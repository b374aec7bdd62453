"""The paper's contribution: SCSA, VLCSA 1, VLCSA 2, and the VLSA baseline.

Module map (thesis chapter in parentheses):

* :mod:`repro.core.window`    — window segmentation and the shared-prefix
  window adder (Ch. 4.1-4.2).
* :mod:`repro.core.scsa`      — SCSA 1 speculative adder (Ch. 3-4).
* :mod:`repro.core.detection` — ERR0/ERR1 error-detection networks (Ch. 5.1,
  6.6).
* :mod:`repro.core.recovery`  — window-level prefix error recovery (Ch. 5.2).
* :mod:`repro.core.vlcsa`     — VLCSA 1: reliable one/two-cycle adder (Ch. 5).
* :mod:`repro.core.scsa2`     — SCSA 2 with the second speculative result
  (Ch. 6.5).
* :mod:`repro.core.vlcsa2`    — VLCSA 2 for 2's-complement Gaussian inputs
  (Ch. 6).
* :mod:`repro.core.vlsa`      — the Verma et al. DATE'08 baseline (thesis
  ref [17]) the evaluation compares against.
* :mod:`repro.core.pipeline`  — the clocked VALID/STALL machine around any
  variable-latency core (Fig. 5.3).
"""

from repro.core.window import (
    WindowPlan,
    WindowSignals,
    plan_windows,
    build_window,
)
from repro.core.scsa import ScsaCore, build_scsa_adder, build_scsa_core
from repro.core.detection import build_err0, build_err1
from repro.core.recovery import build_recovery
from repro.core.vlcsa import build_vlcsa1
from repro.core.scsa2 import Scsa2Core, build_scsa2_adder, build_scsa2_core
from repro.core.vlcsa2 import build_vlcsa2
from repro.core.vlsa import build_vlsa_speculative, build_vlsa
from repro.core.pipeline import PipelinedAdder, PipelineStats, build_machine

__all__ = [
    "WindowPlan",
    "WindowSignals",
    "plan_windows",
    "build_window",
    "ScsaCore",
    "build_scsa_adder",
    "build_scsa_core",
    "build_err0",
    "build_err1",
    "build_recovery",
    "build_vlcsa1",
    "Scsa2Core",
    "build_scsa2_adder",
    "build_scsa2_core",
    "build_vlcsa2",
    "build_vlsa_speculative",
    "build_vlsa",
    "PipelinedAdder",
    "PipelineStats",
    "build_machine",
]
