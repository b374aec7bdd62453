"""CLI tests for ``repro engine errors --checkpoint``.

Pins the user-facing half of the resume guarantee: the ``--merged``
report of an interrupted-then-resumed run is byte-identical to the one
an uninterrupted same-seed run writes (the exact comparison the
``checkpoint-resume-smoke`` CI job performs with ``cmp``).
"""

import json

import pytest

from repro.cli import main

BASE = [
    "engine", "errors", "16", "--window", "4",
    "--samples", "4096", "--chunk", "512",
    "--seed", "2012", "--no-design", "--no-cache",
]


def _run(tmp_path, name, *extra):
    merged = tmp_path / f"{name}.json"
    argv = BASE + ["--merged", str(merged), *extra]
    assert main(argv) == 0
    return merged


def test_checkpointed_merged_matches_plain_run(tmp_path, capsys):
    plain = json.loads(_run(tmp_path, "plain").read_text())
    ckpt = json.loads(
        _run(tmp_path, "ckpt", "--checkpoint", str(tmp_path / "dir")).read_text()
    )
    # Identical exact-count content; the checkpointed run additionally
    # pins the chunk-set state digest in a "windows" block.
    windows = ckpt.pop("windows")
    assert plain == ckpt
    assert ckpt["partial"] is False
    assert ckpt["rows"][0]["samples"] == 4096
    assert windows["4"]["total_chunks"] == 8


def test_interrupt_then_resume_is_byte_identical(tmp_path, capsys):
    reference = _run(tmp_path, "reference", "--checkpoint", str(tmp_path / "ref"))

    # Interrupt: a zero-second budget checkpoints nothing (or nearly
    # nothing) and reports partial; the merged file must not pretend
    # otherwise, so it differs from the reference.
    partial = _run(
        tmp_path, "partial",
        "--checkpoint", str(tmp_path / "kill"), "--time-budget", "0",
    )
    assert json.loads(partial.read_text())["partial"] is True
    assert partial.read_bytes() != reference.read_bytes()
    err = capsys.readouterr().err
    assert "rerun with --resume" in err

    # Resume to completion: now byte-identical to the uninterrupted run.
    resumed = _run(
        tmp_path, "resumed",
        "--checkpoint", str(tmp_path / "kill"), "--resume",
    )
    assert resumed.read_bytes() == reference.read_bytes()


def test_existing_checkpoint_requires_resume(tmp_path, capsys):
    _run(tmp_path, "first", "--checkpoint", str(tmp_path / "dir"))
    with pytest.raises(SystemExit, match="--resume"):
        main(BASE + ["--checkpoint", str(tmp_path / "dir")])
    # With --resume the completed directory restores cleanly.
    again = _run(tmp_path, "again", "--checkpoint", str(tmp_path / "dir"), "--resume")
    assert again.read_bytes() == (tmp_path / "first.json").read_bytes()


def test_json_report_carries_checkpoint_block(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = BASE + [
        "--checkpoint", str(tmp_path / "dir"), "--json", str(out),
        "--check-model", "--progress",
    ]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    block = report["checkpoint"]
    assert block["partial"] is False
    info = block["windows"]["4"]
    assert info["done_chunks"] == info["total_chunks"] == 8
    assert info["resumed_chunks"] == 0
    assert isinstance(info["state_digest"], str) and len(info["state_digest"]) == 64
    # --progress writes throttled status lines to stderr.
    assert "progress[" in capsys.readouterr().err
    # The 6-sigma model rows rode along: the gate null is the exact
    # window-chain rate; the Eq. 3.13 closed form is reported alongside.
    row = report["rows"][0]
    assert row["six_sigma"]["consistent"] is True
    assert row["six_sigma"]["expected_rate"] == row["exact_model_rate"]
    assert row["six_sigma_eq313"]["expected_rate"] == row["model_error_rate"]


def _refused(argv, capsys):
    """Exit 2 with one ``error:`` line and no traceback."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert line.startswith("error: ")
    return line


def test_corrupt_header_is_refused_not_adopted(tmp_path, capsys):
    """A different job must not merge chunks it cannot prove are its own."""
    directory = tmp_path / "dir"
    _run(tmp_path, "first", "--checkpoint", str(directory))
    (directory / "w4" / "job.json").write_text("garbage\n")
    bigger = [a if a != "4096" else "8192" for a in BASE]
    for extra in (["--resume"], []):
        line = _refused(bigger + ["--checkpoint", str(directory), *extra], capsys)
        assert "job.json" in line


def test_resuming_another_jobs_directory_is_refused(tmp_path, capsys):
    directory = tmp_path / "dir"
    _run(tmp_path, "first", "--checkpoint", str(directory))
    other = BASE + ["--seed", "7", "--checkpoint", str(directory), "--resume"]
    assert "different job" in _refused(other, capsys)


def test_schema_one_directory_names_both_schemas(tmp_path, capsys):
    directory = tmp_path / "dir"
    _run(tmp_path, "first", "--checkpoint", str(directory))
    header_path = directory / "w4" / "job.json"
    header = json.loads(header_path.read_text())
    header["schema"] = 1
    header_path.write_text(json.dumps(header))
    (directory / "w4" / "chunks").mkdir()
    line = _refused(BASE + ["--checkpoint", str(directory), "--resume"], capsys)
    assert "schema 1" in line and "schema 2" in line
