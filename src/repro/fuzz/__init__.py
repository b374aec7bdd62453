"""repro.fuzz — coverage-guided differential fuzzing of the adder stack.

The repository computes the same answer four independent ways — the
behavioural numpy models (:mod:`repro.model.behavioral`), the reference
netlist interpreter (:func:`repro.netlist.simulate.simulate_batch_reference`),
the vectorized execution backend (:mod:`repro.netlist.compile`) and the
analytical error model (thesis Eq. 3.13 and its exact refinement).  This
package hunts for inputs on which they *disagree*:

* :mod:`repro.fuzz.generators` — seeded adversarial operand strategies
  (targeted carry chains, window-boundary straddlers, sign-extension
  runs, near-overflow clusters, corpus mutation);
* :mod:`repro.fuzz.oracle` — the differential oracle: one design point,
  one operand batch, every cross-check (sums, ERR/ERR0/ERR1 flags,
  latency cycles, backend bit-identity);
* :mod:`repro.fuzz.coverage` — structural-coverage feedback (inter-window
  carry patterns and netlist mux-select toggles), the novelty signal that
  decides which inputs enter the corpus;
* :mod:`repro.fuzz.corpus` — the persistent on-disk corpus, content-hashed
  for deterministic replay;
* :mod:`repro.fuzz.minimize` — greedy bit-clearing shrinker toward the
  smallest still-diverging operand pair;
* :mod:`repro.fuzz.fuzzer` — the round-based campaign driver, fanned out
  through :mod:`repro.engine` workers.

Everything is deterministic for a fixed ``--seed``: strategies draw from
per-chunk :class:`numpy.random.SeedSequence` children exactly like the
Monte Carlo jobs, and corpus growth is a pure function of (seed, round).
"""

from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.fuzzer import FuzzCampaign, FuzzConfig, run_campaign
from repro.fuzz.generators import STRATEGIES, generate_pairs
from repro.fuzz.minimize import minimize_pair
from repro.fuzz.oracle import DesignPoint, Divergence, Oracle

__all__ = [
    "Corpus",
    "CorpusEntry",
    "DesignPoint",
    "Divergence",
    "FuzzCampaign",
    "FuzzConfig",
    "Oracle",
    "STRATEGIES",
    "generate_pairs",
    "minimize_pair",
    "run_campaign",
]
