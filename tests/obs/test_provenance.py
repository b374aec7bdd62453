"""The shared provenance helper every --json report goes through."""

import os
import platform
import subprocess

from repro.obs import provenance
from repro.obs.provenance import (
    REPORT_SCHEMA_VERSION,
    git_revision,
    provenance_block,
    with_provenance,
)


class TestProvenanceBlock:
    def test_required_fields_present(self):
        block = provenance_block(seed=2012, argv=["sim", "vlcsa1"])
        assert block["schema_version"] == REPORT_SCHEMA_VERSION
        assert block["seed"] == 2012
        assert block["argv"] == ["sim", "vlcsa1"]
        assert block["python_version"] == platform.python_version()
        assert block["platform"]
        assert block["machine"]
        import numpy

        assert block["numpy_version"] == numpy.__version__

    def test_git_revision_in_this_checkout(self):
        """Inside a git work tree the revision is ``git rev-parse HEAD``
        (40 hex digits); in an exported tree it is ``None``."""
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(provenance.__file__),
                capture_output=True,
                text=True,
            )
            head = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:  # no git binary: no work tree either
            head = None
        rev = git_revision()
        assert rev == head
        if head is not None:
            assert len(rev) == 40
            assert all(c in "0123456789abcdef" for c in rev)

    def test_git_revision_is_none_when_git_fails(self, monkeypatch):
        def no_git(*_args, **_kwargs):
            raise OSError("git: not found")

        git_revision.cache_clear()
        monkeypatch.setattr(provenance.subprocess, "run", no_git)
        try:
            assert git_revision() is None
        finally:
            git_revision.cache_clear()

    def test_optional_fields_default_to_none(self):
        block = provenance_block()
        assert block["seed"] is None
        assert block["argv"] is None


class TestWithProvenance:
    def test_attaches_schema_and_provenance(self):
        payload = with_provenance({"rows": []}, seed=7)
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["provenance"]["seed"] == 7
        assert payload["rows"] == []

    def test_existing_keys_win(self):
        payload = {"schema_version": 99, "provenance": {"seed": 1}}
        out = with_provenance(payload, seed=2)
        assert out["schema_version"] == 99
        assert out["provenance"] == {"seed": 1}

    def test_json_serializable(self):
        import json

        json.dumps(with_provenance({}, seed=0, argv=["a"]))
