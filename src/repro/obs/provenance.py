"""Report provenance: the versioned header every ``--json`` report carries.

A benchmark number without its provenance is unfalsifiable: the same
command on a different machine, interpreter, or commit legitimately
produces different timings.  ``provenance_block`` captures the run's
identity — schema version, seed, argv, git revision, python/numpy
versions, platform — under one stable key layout so ``repro bench
compare`` can warn when two reports are not actually comparable.
"""

from __future__ import annotations

import functools
import os
import platform
import subprocess
import sys
from typing import Optional, Sequence

#: Bump when the report layout (provenance block or the surrounding
#: report keys the comparers rely on) changes incompatibly.
REPORT_SCHEMA_VERSION = 1


@functools.lru_cache(maxsize=None)
def git_revision() -> Optional[str]:
    """The repository HEAD revision, or ``None`` outside a checkout.

    Resolved once per process: the running code cannot change under it,
    and a resident server stamps every response with it.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def provenance_block(
    seed: Optional[int] = None, argv: Optional[Sequence[str]] = None
) -> dict:
    """The provenance header for one report."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep today
        numpy_version = None
    # Resolved once at import; package_version() opens and parses the
    # package metadata on every call, and a server stamps every response.
    from repro._version import __version__

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "repro_version": __version__,
        "seed": seed,
        "argv": list(argv) if argv is not None else None,
        "git_rev": git_revision(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy_version": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
    }


def with_provenance(
    payload: dict,
    seed: Optional[int] = None,
    argv: Optional[Sequence[str]] = None,
) -> dict:
    """Attach ``schema_version`` + ``provenance`` to a report payload.

    The single shared helper the CLI's ``--json`` emitters go through;
    existing keys win, so a payload that already carries provenance is
    returned unchanged.
    """
    payload.setdefault("schema_version", REPORT_SCHEMA_VERSION)
    payload.setdefault("provenance", provenance_block(seed=seed, argv=argv))
    return payload
