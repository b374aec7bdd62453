"""The differential oracle: one design point, one batch, every cross-check.

For a batch of operand pairs the oracle evaluates up to five independent
implementations and cross-checks them:

1. **vectorized limb backend** — :class:`repro.netlist.compile.CompiledSim`
   over the elaborated netlist (also the source of mux-select coverage,
   since the limb array holds every net);
2. **reference interpreter** —
   :func:`repro.netlist.simulate.simulate_batch_reference`, compared bus
   by bus, bit for bit, against the limb outputs (check id ``backend``);
3. **behavioural models** — :mod:`repro.model.behavioral` window profiles
   supply the expected ERR0/ERR1/stall flags and speculation-correctness
   verdicts; :func:`repro.model.error_magnitude.scsa1_speculative_values`
   pins the speculative sum *value* at widths <= 63; the Monte Carlo
   engine's SWAR kernel (:func:`repro.engine.kernels.counter_flags`)
   must reproduce the profile's per-sample counter flags, and
   :func:`repro.engine.kernels.counter_counts` (the C counter kernel
   when the library loads tuned) their sums (check id ``kernel-swar``);
4. **gate-level machine** — :class:`repro.model.machine.VariableLatencyMachine`
   executes a subsample through the VALID/STALL protocol and its latency
   cycles are checked against the behaviourally predicted stalls.

Every disagreement becomes a :class:`Divergence` carrying the failing
check id, the operand pair, and both sides' values — the record the
corpus minimizer shrinks and CI uploads as an artifact.

The analytical-model rate check (thesis Eq. 3.13 / its exact DP
refinement) is *statistical*, so it lives at campaign level
(:mod:`repro.fuzz.fuzzer`); this module only counts the behavioural
mis-speculations the uniform strategy observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.behavioral import (
    err0_flags,
    err1_flags,
    pack_ints,
    scsa1_error_flags,
    scsa2_s1_error_flags,
    window_profile,
)
from repro.netlist.circuit import Circuit
from repro.netlist.compile import compile_circuit, mux_select_points
from repro.netlist.simulate import simulate_batch_reference

Pair = Tuple[int, int]

#: Designs whose speculative window plan keeps the remainder at the LSB
#: end (SCSA 1 / VLCSA 1) vs the MSB end (SCSA 2 / VLCSA 2).
_LSB_SPECULATIVE = ("scsa1", "vlcsa1")
_MSB_SPECULATIVE = ("scsa2", "vlcsa2")

#: Monte Carlo counters defined over each window plan's profile.
_PLAN_COUNTERS = {
    "lsb": ("scsa1", "vlcsa1_nominal"),
    "msb": ("vlcsa2", "vlcsa2_stall"),
}

#: Designs implementing the full VALID/STALL variable-latency protocol.
_VARIABLE_LATENCY = ("vlcsa1", "vlcsa2", "vlsa")

#: Machine subsample per batch: enough to exercise both protocol arms,
#: cheap enough to run on every chunk.
_MACHINE_SAMPLE = 8


@dataclass(frozen=True)
class DesignPoint:
    """One fuzzed design instance: ``(architecture, width, window)``."""

    design: str
    width: int
    window: Optional[int] = None

    @property
    def label(self) -> str:
        k = f" k={self.window}" if self.window is not None else ""
        return f"{self.design} n={self.width}{k}"

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {"design": self.design, "width": self.width, "window": self.window}


@dataclass
class Divergence:
    """One cross-check failure on one operand pair."""

    point: DesignPoint
    check: str
    a: int
    b: int
    detail: str = ""
    strategy: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form (hex operands)."""
        return {
            **self.point.to_dict(),
            "check": self.check,
            "a": hex(self.a),
            "b": hex(self.b),
            "detail": self.detail,
            "strategy": self.strategy,
        }


@dataclass
class BatchOutcome:
    """What one oracle batch produced."""

    samples: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: coverage key -> witness operand pair
    coverage: Dict[tuple, Pair] = field(default_factory=dict)
    #: uniform-strategy inputs feeding the campaign-level rate check
    lsb_profile_errors: int = 0
    lsb_profile_samples: int = 0


def _bus_value(outputs: Dict[str, List[int]], name: str, index: int) -> int:
    return outputs[name][index]


class Oracle:
    """A design point elaborated once, cross-checked per batch.

    ``circuit`` overrides elaboration (the mutant-injection path used by
    ``--self-test`` and the test suite); ``fault`` applies a stuck-at
    fault via :func:`repro.netlist.faults.apply_fault` on top of whichever
    circuit is used — the planted bug the fuzzer must find.
    """

    def __init__(
        self,
        point: DesignPoint,
        circuit: Optional[Circuit] = None,
        fault: Optional[Tuple[int, int]] = None,
    ):
        from repro.engine.elab import build_design

        self.point = point
        if point.window is None and point.design in (
            _LSB_SPECULATIVE + _MSB_SPECULATIVE
        ):
            raise ValueError(
                f"{point.design} is windowed: its DesignPoint needs an "
                f"explicit window so the behavioural cross-checks line up "
                f"with the elaborated circuit"
            )
        if circuit is None:
            circuit = build_design(point.design, point.width, point.window)
        if fault is not None:
            from repro.netlist.faults import Fault, apply_fault

            circuit = apply_fault(circuit, Fault(fault[0], fault[1]))
        self.circuit = circuit
        self.sim = compile_circuit(circuit)
        self.mux_points = mux_select_points(circuit)
        self.out_buses = circuit.output_buses
        self._machine = None
        if point.design in _VARIABLE_LATENCY:
            from repro.model.machine import VariableLatencyMachine

            self._machine = VariableLatencyMachine(circuit)

    # -- helpers ----------------------------------------------------------

    def _exact(self, a: int, b: int, bus: str) -> int:
        """The exact sum reduced to ``bus``'s width."""
        return (a + b) & ((1 << len(self.out_buses[bus])) - 1)

    def _diverge(
        self, out: BatchOutcome, check: str, pair: Pair, detail: str
    ) -> None:
        out.divergences.append(
            Divergence(self.point, check, pair[0], pair[1], detail)
        )

    # -- the batch check --------------------------------------------------

    def check_batch(
        self,
        pairs: Sequence[Pair],
        collect_coverage: bool = True,
        count_rate: bool = False,
    ) -> BatchOutcome:
        """Run every cross-check over a batch of operand pairs."""
        from repro.obs import spans as _obs

        out = BatchOutcome(samples=len(pairs))
        if not pairs:
            return out
        with _obs.span(
            "fuzz.batch", point=self.point.label, vectors=len(pairs)
        ):
            self._check_batch_inner(pairs, collect_coverage, count_rate, out)
        return out

    def _check_batch_inner(
        self,
        pairs: Sequence[Pair],
        collect_coverage: bool,
        count_rate: bool,
        out: BatchOutcome,
    ) -> None:
        point = self.point
        width = point.width
        inputs = {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}
        num_vectors = len(pairs)

        # 1. Limb backend — one eval of every net (coverage for free).
        # The mux keys are read at once: the latency check below runs
        # this circuit again and reuses the sim's scratch limb array.
        V, ones, _ = self.sim.pack_inputs_limbs(inputs)
        self.sim.eval_limbs(V, ones)
        fast = self.sim.unpack_outputs(V, num_vectors)
        mux_keys: Dict[tuple, int] = {}
        if collect_coverage:
            from repro.fuzz.coverage import mux_toggle_keys

            mux_keys = mux_toggle_keys(
                self.mux_points, V, ones, self.sim.vector_plan().perm
            )

        # 2. Reference interpreter, bus by bus, bit for bit.
        reference = simulate_batch_reference(self.circuit, inputs)
        for name in self.out_buses:
            if fast[name] != reference[name]:
                index = next(
                    i
                    for i, (f, r) in enumerate(zip(fast[name], reference[name]))
                    if f != r
                )
                self._diverge(
                    out,
                    "backend",
                    pairs[index],
                    f"bus {name!r}: vectorized={fast[name][index]:#x} "
                    f"reference={reference[name][index]:#x}",
                )

        # 3. Behavioural cross-checks.
        packed_a = pack_ints(inputs["a"], width)
        packed_b = pack_ints(inputs["b"], width)
        profiles = {}
        if point.window is not None:
            if point.design in _LSB_SPECULATIVE:
                profiles["lsb"] = window_profile(
                    packed_a, packed_b, width, point.window, "lsb"
                )
            if point.design in _MSB_SPECULATIVE:
                profiles["msb"] = window_profile(
                    packed_a, packed_b, width, point.window, "msb"
                )
        self._check_semantics(pairs, fast, profiles, out)
        self._check_kernel(pairs, packed_a, packed_b, profiles, out)
        if count_rate and "lsb" in profiles:
            out.lsb_profile_errors = int(scsa1_error_flags(profiles["lsb"]).sum())
            out.lsb_profile_samples = num_vectors

        # 4. Latency protocol on a subsample (variable-latency designs).
        self._check_latency(pairs, profiles, out)

        # 5. Coverage extraction.
        if collect_coverage:
            from repro.fuzz.coverage import window_pattern_keys

            keys: Dict[tuple, int] = {}
            for remainder, profile in profiles.items():
                keys.update(window_pattern_keys(profile, remainder))
            keys.update(mux_keys)
            for key, index in keys.items():
                out.coverage[key] = pairs[index]

    def _check_kernel(
        self,
        pairs: Sequence[Pair],
        packed_a: np.ndarray,
        packed_b: np.ndarray,
        profiles: Dict[str, object],
        out: BatchOutcome,
    ) -> None:
        """SWAR kernel counter flags and counts vs the same counters read
        off the profiles already built for this batch."""
        from repro.engine.jobs import reference_counter_flags
        from repro.engine.kernels import SWAR_MAX_WINDOW, counter_counts, counter_flags

        window = self.point.window
        if window is None or window > SWAR_MAX_WINDOW:
            return
        counters = tuple(name for plan in profiles for name in _PLAN_COUNTERS[plan])
        want = reference_counter_flags(
            packed_a, packed_b, self.point.width, window, counters, profiles
        )
        got = counter_flags(packed_a, packed_b, self.point.width, window, counters)
        for name in counters:
            mismatch = (got[name] != want[name]).nonzero()[0]
            if mismatch.size:
                index = int(mismatch[0])
                self._diverge(
                    out,
                    "kernel-swar",
                    pairs[index],
                    f"counter {name!r}: kernel={bool(got[name][index])} "
                    f"profile={bool(want[name][index])}",
                )
        # The counts come from the C counter kernel when the library loads
        # tuned; a windowed design without speculative counters asks for none.
        width = self.point.width
        want_counts = {name: int(want[name].sum()) for name in counters}
        counts = counter_counts(packed_a, packed_b, width, window, counters)
        if counts != want_counts:
            # Name the first pair whose one-row count disagrees, if any does.
            index = next(
                (
                    i
                    for i in range(len(pairs))
                    if counter_counts(
                        packed_a[i : i + 1], packed_b[i : i + 1], width, window, counters
                    )
                    != {name: int(want[name][i]) for name in counters}
                ),
                0,
            )
            self._diverge(
                out,
                "kernel-swar",
                pairs[index],
                f"counter counts: kernel={counts} profile={want_counts}",
            )

    def _check_semantics(
        self,
        pairs: Sequence[Pair],
        outputs: Dict[str, List[int]],
        profiles: Dict[str, object],
        out: BatchOutcome,
    ) -> None:
        """Per-design output-bus semantics vs the behavioural models."""
        point = self.point
        design = point.design
        buses = self.out_buses

        if design in _LSB_SPECULATIVE:
            spec_wrong = scsa1_error_flags(profiles["lsb"])
        elif design in _MSB_SPECULATIVE:
            spec_wrong = scsa1_error_flags(profiles["msb"])
            s1_wrong = scsa2_s1_error_flags(profiles["msb"])
        else:
            spec_wrong = None

        spec_values = None
        if design == "scsa1" and point.width <= 63:
            from repro.model.error_magnitude import scsa1_speculative_values

            spec_values = scsa1_speculative_values(
                pack_ints([a for a, _ in pairs], point.width),
                pack_ints([b for _, b in pairs], point.width),
                point.width,
                point.window,
                "lsb",
            )

        for i, pair in enumerate(pairs):
            a, b = pair

            if spec_wrong is None and design not in _VARIABLE_LATENCY:
                # Conventional exact adder: the sum bus is the whole story.
                got = outputs["sum"][i]
                want = self._exact(a, b, "sum")
                if got != want:
                    self._diverge(
                        out, "sum-exact", pair, f"sum={got:#x} expected {want:#x}"
                    )
                continue

            if design == "scsa1":
                got = outputs["sum"][i]
                exact = self._exact(a, b, "sum")
                if (got != exact) != bool(spec_wrong[i]):
                    self._diverge(
                        out,
                        "spec-flag",
                        pair,
                        f"sum={got:#x} exact={exact:#x} but behavioural "
                        f"mis-speculation flag is {bool(spec_wrong[i])}",
                    )
                if spec_values is not None and got != int(spec_values[i]):
                    self._diverge(
                        out,
                        "spec-sum",
                        pair,
                        f"sum={got:#x} but Eq. 4.3 speculation gives "
                        f"{int(spec_values[i]):#x}",
                    )
                continue

            if design == "scsa2":
                for bus, wrong in (("sum0", spec_wrong), ("sum1", s1_wrong)):
                    got = outputs[bus][i]
                    exact = self._exact(a, b, bus)
                    if (got != exact) != bool(wrong[i]):
                        self._diverge(
                            out,
                            f"spec-flag-{bus}",
                            pair,
                            f"{bus}={got:#x} exact={exact:#x} but behavioural "
                            f"wrong-flag is {bool(wrong[i])}",
                        )
                continue

            # Variable-latency designs: err flags, recovery, soundness.
            # (For vlsa there is no behavioural detector model, so only
            # the protocol-level invariants below apply.)
            err = outputs["err"][i]
            if design == "vlcsa1":
                want_err = int(err0_flags(profiles["lsb"])[i])
                if err != want_err:
                    self._diverge(
                        out, "err0", pair,
                        f"err={err} but behavioural ERR0={want_err}",
                    )
            elif design == "vlcsa2":
                want0 = int(err0_flags(profiles["msb"])[i])
                want1 = int(err1_flags(profiles["msb"])[i])
                if outputs["err0"][i] != want0:
                    self._diverge(
                        out, "err0", pair,
                        f"err0={outputs['err0'][i]} but behavioural ERR0={want0}",
                    )
                if outputs["err1"][i] != want1:
                    self._diverge(
                        out, "err1", pair,
                        f"err1={outputs['err1'][i]} but behavioural ERR1={want1}",
                    )
                if err != (outputs["err0"][i] & outputs["err1"][i]):
                    self._diverge(
                        out, "err-combine", pair,
                        f"err={err} != err0&err1="
                        f"{outputs['err0'][i] & outputs['err1'][i]}",
                    )
                for bus, wrong in (("sum0", spec_wrong), ("sum1", s1_wrong)):
                    if bus not in outputs:
                        continue  # style="select" omits the hypothesis buses
                    got = outputs[bus][i]
                    exact = self._exact(a, b, bus)
                    if (got != exact) != bool(wrong[i]):
                        self._diverge(
                            out,
                            f"spec-flag-{bus}",
                            pair,
                            f"{bus}={got:#x} exact={exact:#x} but behavioural "
                            f"wrong-flag is {bool(wrong[i])}",
                        )
            if "valid" in outputs and outputs["valid"][i] != (1 - err):
                self._diverge(
                    out, "valid", pair,
                    f"valid={outputs['valid'][i]} with err={err}",
                )
            rec = outputs["sum_rec"][i]
            want_rec = self._exact(a, b, "sum_rec")
            if rec != want_rec:
                self._diverge(
                    out, "recovery", pair,
                    f"sum_rec={rec:#x} expected {want_rec:#x}",
                )
            if not err:
                got = outputs["sum"][i]
                exact = self._exact(a, b, "sum")
                if got != exact:
                    self._diverge(
                        out, "err-soundness", pair,
                        f"err=0 but sum={got:#x} != exact {exact:#x}",
                    )

    def _check_latency(
        self,
        pairs: Sequence[Pair],
        profiles: Dict[str, object],
        out: BatchOutcome,
    ) -> None:
        """Machine-protocol latency vs behaviourally predicted stalls."""
        if self._machine is None:
            return
        design = self.point.design
        sample = list(pairs[:_MACHINE_SAMPLE])
        trace = self._machine.run(sample)
        if design == "vlcsa1":
            stalls = err0_flags(profiles["lsb"])
        elif design == "vlcsa2":
            stalls = err0_flags(profiles["msb"]) & err1_flags(profiles["msb"])
        else:  # vlsa: no behavioural detector model; check exactness only
            stalls = None
        for i, pair in enumerate(sample):
            a, b = pair
            if trace.results[i] != a + b:
                self._diverge(
                    out, "machine-result", pair,
                    f"accepted result {trace.results[i]:#x} != {a + b:#x}",
                )
            if stalls is not None:
                want_cycles = 2 if stalls[i] else 1
                if trace.cycles[i] != want_cycles:
                    self._diverge(
                        out, "latency", pair,
                        f"machine took {trace.cycles[i]} cycle(s), behavioural "
                        f"model predicts {want_cycles}",
                    )

    def diverges(self, a: int, b: int) -> List[Divergence]:
        """All divergences on a single pair (the minimizer's predicate)."""
        return self.check_batch(
            [(a, b)], collect_coverage=False, count_rate=False
        ).divergences


#: Per-process oracle memo — workers build each (point, fault) once.
_ORACLES: Dict[tuple, Oracle] = {}


def process_oracle(
    point: DesignPoint, fault: Optional[Tuple[int, int]] = None
) -> Oracle:
    """The calling process's oracle for ``point`` (built lazily)."""
    key = (point, fault)
    if key not in _ORACLES:
        _ORACLES[key] = Oracle(point, fault=fault)
    return _ORACLES[key]
