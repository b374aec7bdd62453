"""Analytical and behavioural models of the speculative adders.

* :mod:`repro.model.error_model`  — closed-form error rate of SCSA (thesis
  Eq. 3.13), our exact Markov-chain refinement, and the corresponding models
  for the VLSA baseline.
* :mod:`repro.model.behavioral`   — limb-vectorized numpy models of every
  speculative architecture, for Monte Carlo at the thesis' 10^6-10^7 sample
  scale (gate-level simulation cross-validates these on smaller samples).
* :mod:`repro.model.carry_chains` — carry-chain-length statistics (thesis
  Figs. 6.1-6.5).
* :mod:`repro.model.latency`      — the average-cycle model (Eq. 5.2) and a
  cycle-accurate stall simulator for operand streams.
"""

from repro.model.error_model import (
    scsa_error_rate,
    scsa_error_rate_exact,
    vlsa_error_rate_union,
    vlsa_error_rate_exact,
)
from repro.model.behavioral import (
    pack_ints,
    unpack_ints,
    num_limbs,
    extract_field,
    add_packed,
    carry_into_bits,
    window_profile,
    WindowProfile,
    scsa1_error_flags,
    scsa2_s1_error_flags,
    err0_flags,
    err0_terms,
    err1_flags,
    vlsa_error_flags,
    monte_carlo_scsa_error_rate,
)
from repro.model.carry_chains import (
    chain_length_counts,
    chain_length_histogram,
    longest_chain_lengths,
)
from repro.model.error_magnitude import (
    MagnitudeStats,
    scsa1_abs_error_moments,
    scsa1_speculative_values,
    vlsa_speculative_values,
    relative_error_stats,
    scsa1_magnitude_stats,
    vlsa_magnitude_stats,
)
from repro.model.gaussian_model import (
    active_width,
    vlcsa1_gaussian_error_rate,
    vlcsa2_gaussian_stall_rate,
    vlcsa2_gaussian_window_size_for,
)
from repro.model.machine import MachineTrace, VariableLatencyMachine
from repro.model.latency import (
    VariableLatencyTiming,
    average_cycle,
    VariableLatencyAdderSim,
    SimResult,
)

__all__ = [
    "scsa_error_rate",
    "scsa_error_rate_exact",
    "vlsa_error_rate_union",
    "vlsa_error_rate_exact",
    "pack_ints",
    "unpack_ints",
    "num_limbs",
    "extract_field",
    "add_packed",
    "carry_into_bits",
    "window_profile",
    "WindowProfile",
    "scsa1_error_flags",
    "scsa2_s1_error_flags",
    "err0_flags",
    "err0_terms",
    "err1_flags",
    "vlsa_error_flags",
    "monte_carlo_scsa_error_rate",
    "chain_length_counts",
    "chain_length_histogram",
    "longest_chain_lengths",
    "VariableLatencyTiming",
    "average_cycle",
    "VariableLatencyAdderSim",
    "SimResult",
    "MagnitudeStats",
    "scsa1_abs_error_moments",
    "scsa1_speculative_values",
    "vlsa_speculative_values",
    "relative_error_stats",
    "scsa1_magnitude_stats",
    "vlsa_magnitude_stats",
    "MachineTrace",
    "VariableLatencyMachine",
    "active_width",
    "vlcsa1_gaussian_error_rate",
    "vlcsa2_gaussian_stall_rate",
    "vlcsa2_gaussian_window_size_for",
]
