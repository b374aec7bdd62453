"""repro.engine — cached, parallel batch-execution engine.

The thesis-scale experiments (10^7 uniform samples for Fig. 7.1, 10^6
Gaussian samples for Tables 7.1/7.2, the (n, k) sweeps behind Tables
7.3-7.5) are embarrassingly chunkable, yet the original scripts ran them
from a cold start in one process.  This subsystem is the shared substrate
they now execute through:

* :mod:`repro.engine.cache` — an elaboration cache (in-process LRU plus an
  optional corruption-tolerant on-disk store) keyed by a content hash of
  ``(architecture, n, k, options)``, so ``Circuit`` construction,
  optimization, and STA run once per design per machine;
* :mod:`repro.engine.jobs` — declarative, deterministically-seeded job
  specs (Monte Carlo error rates, error magnitudes, STA/area sweeps, and
  the static-analysis :class:`LintJob` fan-out) whose aggregates are
  integer counters, count histograms, or index-keyed row dicts, which
  merge associatively and commutatively so chunks may finish in any
  order;
* :mod:`repro.engine.runner` — a multiprocessing worker pool with
  per-chunk seed derivation (``numpy.random.SeedSequence.spawn``
  semantics), backpressure-bounded queues, and a serial fallback that is
  bit-identical to the parallel path;
* :mod:`repro.engine.kernels` — the SWAR (SIMD-within-a-register) Monte
  Carlo kernel: every error counter for all windows of a batch from one
  add and one all-ones test per window plan, instead of a per-window loop;
* :mod:`repro.engine.metrics` — cache-hit counters, per-phase wall-clock
  timers, and chunk throughput, exposed via the ``repro engine`` CLI
  subcommand and a machine-readable JSON report;
* :mod:`repro.engine.checkpoint` — a durable job directory (an
  append-only manifest whose lines are self-verifying chunk records)
  that tolerates torn writes, damaged records, and duplicate records,
  plus the incremental :class:`ManifestTail` reader the streamed
  reduction runs on;
* :mod:`repro.engine.steal` — :func:`run_checkpointed`: billion-sample
  jobs executed by work-stealing workers (the parent is worker 0)
  coordinating through lease files, resumable after SIGKILL to a
  bit-identical final aggregate with O(1) parent memory in samples.
"""

from repro.engine.cache import ElaborationCache, cache_key, default_cache_dir
from repro.engine.checkpoint import (
    CheckpointError,
    CheckpointMismatch,
    CheckpointStore,
    ManifestTail,
    chunk_digest,
    job_digest,
)
from repro.engine.elab import (
    LINTABLE_DESIGNS,
    SWEEPABLE_DESIGNS,
    build_design,
    measure_design,
)
from repro.engine.jobs import (
    DEFAULT_CHUNK,
    ChunkSpec,
    ErrorCounts,
    FuzzChunkSpec,
    FuzzJob,
    FuzzRows,
    LintJob,
    LintRows,
    MonteCarloErrorJob,
    SweepJob,
    SweepPoint,
    SweepRows,
    chunk_seed_sequence,
)
from repro.engine.kernels import (
    counter_counts,
    counter_flags,
    scsa1_error_count,
    scsa1_error_flags_swar,
)
from repro.engine.metrics import EngineMetrics
from repro.engine.runner import (
    EngineError,
    EngineResult,
    WorkerPool,
    run_job,
    run_jobs,
)
from repro.engine.steal import (
    DEFAULT_LEASE_TTL,
    CheckpointResult,
    StealScheduler,
    run_checkpointed,
)

__all__ = [
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointResult",
    "CheckpointStore",
    "ChunkSpec",
    "DEFAULT_CHUNK",
    "DEFAULT_LEASE_TTL",
    "ElaborationCache",
    "EngineError",
    "EngineMetrics",
    "EngineResult",
    "ErrorCounts",
    "FuzzChunkSpec",
    "FuzzJob",
    "FuzzRows",
    "LINTABLE_DESIGNS",
    "LintJob",
    "LintRows",
    "ManifestTail",
    "MonteCarloErrorJob",
    "StealScheduler",
    "SweepJob",
    "SweepPoint",
    "SweepRows",
    "SWEEPABLE_DESIGNS",
    "WorkerPool",
    "build_design",
    "cache_key",
    "chunk_digest",
    "chunk_seed_sequence",
    "counter_counts",
    "counter_flags",
    "default_cache_dir",
    "job_digest",
    "measure_design",
    "run_checkpointed",
    "run_job",
    "run_jobs",
    "scsa1_error_count",
    "scsa1_error_flags_swar",
]
