"""Tests for the command-line interface (repro.cli)."""

import argparse
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cli
from repro.cli import build_parser, main


def test_gen_writes_verilog(tmp_path, capsys):
    out = tmp_path / "adder.v"
    assert main(["gen", "vlcsa1", "24", "6", "-o", str(out)]) == 0
    text = out.read_text()
    assert "module vlcsa1_24w6" in text
    assert "endmodule" in text


def test_gen_to_stdout_parses_back(capsys):
    assert main(["gen", "kogge_stone", "16"]) == 0
    captured = capsys.readouterr().out
    from repro.rtl import from_verilog
    from repro.netlist.simulate import simulate

    circuit = from_verilog(captured)
    assert simulate(circuit, {"a": 1000, "b": 2345})["sum"] == 3345


def test_gen_optimized_is_smaller(tmp_path):
    raw = tmp_path / "raw.v"
    opt = tmp_path / "opt.v"
    main(["gen", "kogge_stone", "32", "-o", str(raw)])
    main(["gen", "kogge_stone", "32", "-o", str(opt), "--optimize"])
    assert opt.read_text().count("assign") < raw.read_text().count("assign")


def test_gen_unknown_design_fails():
    with pytest.raises(SystemExit):
        main(["gen", "quantum", "64"])


def test_gen_default_window_from_solver(tmp_path):
    out = tmp_path / "a.v"
    assert main(["gen", "scsa1", "64", "-o", str(out)]) == 0
    assert "scsa1_64w14" in out.read_text()  # Table 7.4 window


def test_tb_emits_testbench(tmp_path):
    out = tmp_path / "tb.v"
    assert main(["tb", "ripple", "8", "-o", str(out), "--vectors", "5"]) == 0
    text = out.read_text()
    assert "module ripple_8_tb;" in text
    assert text.count("!==") == 5


def test_report_table(capsys):
    assert main(["report", "32", "--designs", "kogge_stone", "scsa1"]) == 0
    out = capsys.readouterr().out
    assert "kogge_stone" in out
    assert "scsa1" in out
    assert "delay" in out


def test_report_prints_a_dash_for_each_missing_path(capsys):
    """SCSA 2 has a speculative path but no detection or recovery."""
    assert main(["report", "32", "--designs", "scsa2", "vlcsa1", "kogge_stone"]) == 0
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[3:]}
    assert rows["scsa2"][2].endswith("/-/-") and "-" not in rows["scsa2"][2][:-4]
    assert "-" not in rows["vlcsa1"][2] and rows["vlcsa1"][2].count("/") == 2
    assert rows["kogge_stone"][2] == "-"


def test_report_unknown_design_fails():
    with pytest.raises(SystemExit):
        main(["report", "32", "--designs", "abacus"])


def test_sweep_table(capsys):
    assert main(["engine", "sweep", "32", "--k-min", "6", "--k-max", "10", "--k-step", "2"]) == 0
    out = capsys.readouterr().out
    assert "P_err" in out
    assert out.count("\n") >= 5


def test_errors_uniform(capsys):
    assert main(["engine", "errors", "32", "--window", "8", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "Eq. 3.13" in out
    assert "VLCSA 2 stall" in out


def test_errors_gaussian_shows_vlcsa1_collapse(capsys):
    assert main(
        ["engine", "errors", "64", "--inputs", "gaussian", "--samples", "30000"]
    ) == 0
    out = capsys.readouterr().out
    # the 25%-ish VLCSA 1 rate appears in the table
    assert any(token.startswith("2") and "%" in token
               for token in out.split() if "%" in token)


def test_equiv_equivalent_designs(capsys):
    assert main(["equiv", "brent_kung", "kogge_stone", "16"]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_equiv_speculative_not_equivalent(capsys):
    assert main(["equiv", "scsa1", "kogge_stone", "16", "--window", "4"]) == 1
    out = capsys.readouterr().out
    assert "NOT EQUIVALENT" in out
    assert "counterexample" in out


def test_equiv_named_buses(capsys):
    assert main(
        ["equiv", "vlcsa1", "kogge_stone", "16", "--window", "4",
         "--bus1", "sum_rec", "--bus2", "sum"]
    ) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_chains_histogram(capsys):
    assert main(["chains", "16", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "carry-chain lengths" in out
    assert "#" in out  # the bar chart rendered


def test_chains_gaussian(capsys):
    assert main(["chains", "64", "--inputs", "gaussian", "--samples", "20000"]) == 0
    assert "gaussian" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["engine", "errors", "32", "--inputs", "gaussian", "--samples", "100"],
         "does not fit 32-bit"),
        (["engine", "errors", "32", "--inputs", "gaussian", "--no-design",
          "--samples", "100"], "does not fit 32-bit"),
        (["chains", "32", "--inputs", "gaussian", "--samples", "100"],
         "does not fit 32-bit"),
        (["stats", "32", "--inputs", "gaussian", "--no-cache", "--samples", "100"],
         "does not fit 32-bit"),
        (["engine", "errors", "128", "--window", "70", "--samples", "100"],
         "windows of 1..63"),
        (["engine", "magnitude", "32", "--window", "8", "--chunk", "-5",
          "--samples", "100"], "chunk_size must be positive"),
        (["chains", "0", "--samples", "100"], "width must be >= 1, got 0"),
        (["chains", "0", "--inputs", "gaussian", "--samples", "100"],
         "width must be >= 1, got 0"),
        (["engine", "sweep", "64", "--k-min", "0", "--k-max", "2", "--no-cache"],
         "--k-min must be >= 1, got 0"),
        (["engine", "sweep", "64", "--k-step", "0", "--no-cache", "--workers", "2"],
         "--k-step must be >= 1, got 0"),
        (["engine", "sweep", "0", "--no-cache"], "width must be >= 1, got 0"),
        (["engine", "sweep", "64", "--designs", "vlcsa1", "--k-min", "9",
          "--k-max", "2", "--no-cache"], "a sweep needs at least one point"),
        (["engine", "errors", "32", "--window", "8", "--samples", "1000", "--no-design",
          "--workers", "-1"], "--workers must be >= 0, got -1"),
        (["engine", "errors", "32", "--window", "8", "--samples", "1000", "--no-design",
          "--workers", "-1", "--checkpoint", "ckpt"], "--workers must be >= 0, got -1"),
        (["engine", "sweep", "32", "--designs", "kogge_stone", "--workers", "-1",
          "--no-cache"], "--workers must be >= 0, got -1"),
        (["engine", "magnitude", "32", "--window", "8", "--samples", "1000",
          "--workers", "-1"], "--workers must be >= 0, got -1"),
        (["stats", "32", "--window", "8", "--samples", "1000", "--workers", "-1",
          "--no-cache"], "--workers must be >= 0, got -1"),
        (["lint", "vlcsa1", "--widths", "16", "--workers", "-1"],
         "--workers must be >= 0, got -1"),
        (["fuzz", "--designs", "vlcsa1", "--widths", "16", "--rounds", "1",
          "--workers", "-1"], "--workers must be >= 0, got -1"),
    ],
)
def test_monte_carlo_jobs_that_cannot_run_exit_2(argv, message, capsys, monkeypatch, tmp_path):
    """Refused before any sample is drawn or any chunk runs: ``error:``
    and status 2."""
    from repro.engine import jobs

    def no_chunk(*_args, **_kwargs):
        raise AssertionError("a refused command ran a chunk")

    monkeypatch.setattr(jobs.SweepJob, "run_chunk", no_chunk)
    monkeypatch.setattr(jobs.MonteCarloErrorJob, "run_chunk", no_chunk)
    monkeypatch.chdir(tmp_path)  # a refused --checkpoint must write nothing
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "vlcsa1", "0"], "width must be >= 1, got 0"),
        (["tb", "vlcsa1", "0"], "width must be >= 1, got 0"),
        (["seq", "vlcsa1", "0"], "width must be >= 1, got 0"),
        (["sim", "vlcsa1", "--widths", "0"], "--widths must be >= 1, got 0"),
        (["opt", "vlcsa1", "--widths", "16", "0"], "--widths must be >= 1, got 0"),
        (["report", "0"], "width must be >= 1, got 0"),
        (["fuzz", "--widths", "0"], "--widths must be >= 1, got 0"),
    ],
)
def test_widths_below_one_exit_2_before_any_design_is_built(argv, message, capsys,
                                                            monkeypatch):
    """A width below 1 is one ``error:`` line and status 2, not a
    ``NetlistError`` traceback out of the netlist builder."""
    def no_build(*_args, **_kwargs):
        raise AssertionError("a refused command built a design")

    monkeypatch.setattr(repro.cli, "build_design", no_build)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        # ``--seed 7 engine magnitude ... --samples 40000 --json`` at the parent
        # of the change that made magnitude a MonteCarloErrorJob counter.
        (["32", "--window", "8"], (198, 275906101248, 4294967296)),
        (["48", "--window", "5", "--inputs", "gaussian"],
         (12510, 10103258153223168, 8804691345408)),
    ],
)
def test_engine_magnitude_matches_the_single_limb_job(argv, expected, tmp_path, capsys):
    out = tmp_path / "magnitude.json"
    assert main(["--seed", "7", "engine", "magnitude", *argv, "--samples", "40000",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["samples"] == 40000
    assert (report["errors"], report["sum_abs_error"], report["max_abs_error"]) == expected
    assert "mean |error| / 2^n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["1100", "--window", "8", "--samples", "1000"], ["128"]]
)
def test_engine_magnitude_past_one_limb(argv, tmp_path, capsys):
    """Any width runs; past 2^1024 the mean is printed without a float."""
    out = tmp_path / "magnitude.json"
    assert main(["engine", "magnitude", *argv, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert 0 < report["errors"] < report["samples"]
    assert 0 < report["max_abs_error"] < 1 << (report["width"] + 1)
    assert report["max_abs_error"] <= report["sum_abs_error"]
    table = capsys.readouterr().out
    assert "mean |error|" in table and "inf" not in table
    assert all(len(line) <= 100 for line in table.splitlines())


@pytest.mark.parametrize("width, window", [(64, 2), (64, 1), (129, 3)])
def test_engine_errors_with_eq313_past_one_reports_null(width, window, tmp_path, capsys):
    """Small windows take Eq. 3.13 above 1: that comparison is null with a
    reason, and the exact-model gate still runs."""
    out = tmp_path / "errors.json"
    argv = ["engine", "errors", str(width), "--window", str(window), "--samples", "1000",
            "--no-design", "--json", str(out)]
    assert main(argv) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["model_error_rate"] > 1
    assert row["six_sigma_eq313"] is None
    assert "outside [0, 1]" in row["six_sigma_eq313_reason"]
    assert row["six_sigma"]["expected_rate"] == row["exact_model_rate"]


def test_seq_emits_core_and_shell(tmp_path):
    out = tmp_path / "seq.v"
    assert main(["seq", "vlcsa1", "16", "4", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.count("module ") == 2
    assert "vlcsa1_16w4_seq" in text
    assert "posedge clk" in text


def test_figures_command(tmp_path, capsys):
    assert main(
        ["figures", "-o", str(tmp_path), "--names", "fig3_5"]
    ) == 0
    out = capsys.readouterr().out
    assert "fig3_5.json" in out
    assert (tmp_path / "fig3_5.json").exists()


def test_lint_clean_design(capsys):
    assert main(["lint", "vlcsa1", "--widths", "16", "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert "vlcsa1 n=16" in captured.out
    assert "0 error(s)" in captured.out
    # The timing pipeline deliberately leaves sharable logic duplicated
    # (sharing raises fanout), so the E001 note is expected: the gate is
    # error-severity only.
    assert "worst severity info" in captured.err


def test_lint_fails_on_unoptimized_timing(capsys):
    assert main(
        ["lint", "vlcsa1", "--widths", "32", "--no-cache", "--no-optimize"]
    ) == 1
    assert "T001" in capsys.readouterr().out


def test_lint_fail_on_never_downgrades_exit(capsys):
    assert main(
        ["lint", "vlcsa1", "--widths", "32", "--no-cache", "--no-optimize",
         "--fail-on", "never"]
    ) == 0


def test_lint_json_format(capsys):
    import json

    assert main(
        ["lint", "vlcsa2", "--widths", "16", "--no-cache", "--format", "json",
         "--fail-on", "error"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    (row,) = payload["rows"]
    assert row["architecture"] == "vlcsa2"
    assert "F003" in row["rules_run"]


def test_lint_sarif_written_to_file(tmp_path):
    import json

    out = tmp_path / "lint.sarif"
    assert main(
        ["lint", "vlcsa1", "--widths", "16", "--no-cache",
         "--format", "sarif", "-o", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["tool"]["driver"]["name"]


def test_lint_select_and_unknown_rule(capsys):
    assert main(
        ["lint", "vlcsa1", "--widths", "16", "--no-cache", "--select", "S001"]
    ) == 0
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["lint", "vlcsa1", "--widths", "16", "--no-cache",
              "--select", "S999"])


def test_lint_requires_designs():
    with pytest.raises(SystemExit, match="no designs"):
        main(["lint", "--no-cache"])


def test_lint_self_test(capsys):
    assert main(
        ["lint", "vlcsa1", "--widths", "16", "--no-cache",
         "--self-test", "--max-mutants", "8"]
    ) == 0
    assert "8/8 mutants killed (ok)" in capsys.readouterr().out


def test_gen_lint_gate_blocks_bad_netlist(tmp_path, capsys):
    out = tmp_path / "a.v"
    with pytest.raises(SystemExit):
        main(["gen", "vlcsa1", "32", "--lint", "-o", str(out)])
    assert not out.exists()
    assert "T001" in capsys.readouterr().err


def test_gen_lint_gate_passes_optimized(tmp_path):
    out = tmp_path / "a.v"
    assert main(
        ["gen", "vlcsa1", "32", "--optimize", "--lint", "-o", str(out)]
    ) == 0
    assert out.exists()


def test_tb_lint_gate(tmp_path, capsys):
    out = tmp_path / "tb.v"
    assert main(
        ["tb", "kogge_stone", "16", "--lint", "-o", str(out), "--vectors", "3"]
    ) == 0
    assert out.exists()


def test_sim_compiled_backend(capsys):
    """The default run is the vectorized backend; the retired
    ``compiled`` name is an argparse error."""
    assert main(
        ["sim", "vlcsa1", "--widths", "16", "--vectors", "32", "--repeat", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "gate-level simulation" in out
    assert "vlcsa1" in out
    assert "vectorized ms" in out
    with pytest.raises(SystemExit) as exit_info:
        main(["sim", "vlcsa1", "--widths", "16", "--backend", "compiled"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'compiled'" in capsys.readouterr().err


def test_sim_both_backends_cross_check_json(tmp_path, capsys):
    import json

    out = tmp_path / "bench.json"
    assert main(
        ["sim", "vlcsa1", "designware", "--widths", "16", "--vectors", "64",
         "--backend", "both", "--faults", "--repeat", "1",
         "--json", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "sim"
    assert doc["ok"] is True
    from repro.netlist import _accel

    assert doc["accel"] is (_accel.load() is not None)
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["vectorized_speedup"] > 0
        assert row["fault_speedup"] > 0
        assert row["fault_vectorized_s"] > 0
        assert row["fault_reference_s"] > 0
        assert 0.0 < row["fault_coverage"] <= 1.0
        assert not any("compiled" in key for key in row)
    assert doc["metrics"]["counters"]["samples"] > 0
    table = capsys.readouterr().out
    assert "speedup" in table


def test_sim_vectorized_backend_and_vector_grid(tmp_path):
    import json

    out = tmp_path / "bench.json"
    assert main(
        ["sim", "vlcsa1", "--widths", "16", "--vectors", "32", "128",
         "--backend", "both", "--repeat", "1", "--json", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["vectors"] == [32, 128]
    assert len(doc["rows"]) == 2  # one row per batch size
    for row in doc["rows"]:
        assert row["vectorized_s"] > 0
        assert row["vectorized_samples_per_s"] > 0
        assert row["vectorized_speedup"] > 0
        assert row["reference_s"] > 0
    # elaborations stay one per (design, width), not per batch size
    assert doc["metrics"]["counters"]["elaborations"] == 1


def test_sim_profile_levels_report(capsys):
    assert main(
        ["sim", "vlcsa1", "--widths", "16", "--vectors", "16",
         "--repeat", "1", "--profile-levels"]
    ) == 0
    out = capsys.readouterr().out
    assert "fused groups" in out
    assert "(kind: gates)" in out


def test_sim_fault_widths_restricts_fault_runs(tmp_path):
    import json

    out = tmp_path / "bench.json"
    assert main(
        ["sim", "vlcsa1", "--widths", "8", "16", "--vectors", "32",
         "--faults", "--fault-widths", "16", "--repeat", "1",
         "--json", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    by_width = {row["width"]: row for row in doc["rows"]}
    assert "fault_coverage" in by_width[16]
    assert "fault_coverage" not in by_width[8]


def test_sim_unknown_design_fails():
    with pytest.raises(SystemExit):
        main(["sim", "nosuch", "--widths", "16", "--vectors", "8"])


def test_sim_both_backends_elaborate_once_per_point(tmp_path):
    """--backend both must reuse one elaboration for both passes: the
    elaborations counter equals designs x widths, not x backends."""
    import json

    out = tmp_path / "bench.json"
    assert main(
        ["sim", "vlcsa1", "kogge_stone", "--widths", "16", "--vectors", "32",
         "--backend", "both", "--repeat", "1", "--json", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["metrics"]["counters"]["elaborations"] == 2


# -- fuzz -------------------------------------------------------------------


_FUZZ_SMOKE = ["fuzz", "--designs", "vlcsa1", "--widths", "16",
               "--vectors", "32", "--rounds", "2", "--seed", "7"]


def test_fuzz_smoke_agrees(tmp_path, capsys):
    import json

    out = tmp_path / "fuzz.json"
    assert main(_FUZZ_SMOKE + ["--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "fuzz"
    assert doc["ok"] is True
    assert doc["execs"] > 0
    assert doc["coverage_points"] > 0
    assert doc["corpus"]["hash"]
    assert doc["provenance"]["seed"] == 7
    assert doc["metrics"]["counters"]["fuzz_execs"] == doc["execs"]
    assert "fuzz @ seed=7" in capsys.readouterr().out


def test_fuzz_deterministic_reports(tmp_path):
    """Two equal-seed runs: identical corpus hash and report body modulo
    timings (the ISSUE acceptance criterion, on a smoke-sized grid)."""
    import json

    docs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        assert main(_FUZZ_SMOKE + ["--time-budget", "30", "--json", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    for doc in docs:
        doc.pop("provenance")
        doc["metrics"].pop("timers_s", None)
    assert docs[0] == docs[1]


def test_fuzz_self_test_catches_planted_mutant(capsys):
    assert main(_FUZZ_SMOKE + ["--self-test"]) == 0
    err = capsys.readouterr().err
    assert "planted stuck-at" in err
    assert "self-test ok" in err
    assert "reproducer [" in err


def test_fuzz_divergence_exits_one_with_reproducer(tmp_path, capsys):
    """A real divergence (not in self-test mode) must exit 1 and print the
    minimized reproducer; the corpus keeps it for replay."""
    import json

    corpus = tmp_path / "corpus"
    out = tmp_path / "fuzz.json"
    # Plant the fault but *report* normally by driving the API path via
    # the CLI self-test exit-code inversion: here we assert the raw
    # campaign contract instead through --json.
    assert main(
        _FUZZ_SMOKE + ["--self-test", "--corpus", str(corpus),
                       "--json", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is False
    assert doc["divergence_count"] > 0
    assert doc["minimized"]
    assert any(item["minimized"] for item in doc["minimized"])
    assert "reproducer [" in capsys.readouterr().err
    # The divergence landed in the persistent corpus...
    entries = list(corpus.glob("*.json"))
    assert entries
    # ...and replaying it against the *clean* design now agrees (exit 0).
    assert main(["fuzz", "--replay", str(corpus)]) == 0


def test_fuzz_replay_missing_corpus_fails(tmp_path):
    with pytest.raises(SystemExit, match="empty or unreadable"):
        main(["fuzz", "--replay", str(tmp_path / "nothing")])


@pytest.mark.parametrize("workers", ["0", "2"])
@pytest.mark.parametrize("argv, message", [
    (["nosuch", "--widths", "16"], "unknown design 'nosuch'"),
    (["vlcsa1", "--widths", "8", "--window", "0"], "window size must be positive"),
    (["vlcsa1", "--widths", "0"], "width must be positive"),
])
def test_lint_refuses_bad_points_before_any_chunk(argv, message, workers):
    with pytest.raises(SystemExit, match=message):
        main(["lint", *argv, "--workers", workers])


def test_fuzz_unknown_design_fails(capsys):
    with pytest.raises(SystemExit, match="unknown design 'nosuch'"):
        main(["fuzz", "--designs", "nosuch", "--widths", "16"])


def test_fuzz_bad_json_destination_fails(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.json"
    with pytest.raises(SystemExit) as excinfo:
        main(_FUZZ_SMOKE + ["--json", str(missing)])
    assert excinfo.value.code == 1
    assert "cannot write JSON report" in capsys.readouterr().err


# -- bench compare exit-code 2 branches -------------------------------------


def test_bench_compare_malformed_report_exits_two(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text("{not json")
    new.write_text('{"rows": []}')
    assert main(["bench", "compare", str(old), str(new)]) == 2
    assert "error: cannot read report" in capsys.readouterr().err


def test_bench_compare_missing_rows_exits_two(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text('{"other": 1}')
    new.write_text('{"rows": []}')
    assert main(["bench", "compare", str(old), str(new)]) == 2
    assert "not a bench report" in capsys.readouterr().err


def test_bench_compare_no_comparable_metrics_exits_two(tmp_path, capsys):
    import json

    report = {"rows": [{"architecture": "vlcsa1", "width": 16}]}
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(report))
    new.write_text(json.dumps(report))
    assert main(["bench", "compare", str(old), str(new)]) == 2
    assert "no comparable metrics" in capsys.readouterr().err


def test_version_flag_reports_package_version(capsys):
    from repro._version import package_version

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {package_version()}"


def test_serve_rejects_bad_config(capsys):
    assert main(["serve", "--shards", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--shards", "--shard-depth", "--max-batch"])
def test_serve_rejects_out_of_range_sizes(tmp_path, capsys, flag):
    uds = tmp_path / "serve.sock"
    assert main(["serve", "--uds", str(uds), "--no-disk-cache", flag, "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not uds.exists()  # refused before it listened


def test_loadgen_rejects_bad_config(capsys):
    assert main(["loadgen", "--uds", "/tmp/x.sock", "--requests", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_equiv_mutant_refuted_with_minimized_cex(tmp_path, capsys):
    out = tmp_path / "equiv.json"
    code = main(
        ["equiv", "scsa1", "designware", "16", "--bus1", "sum",
         "--bus2", "sum", "--json", str(out)]
    )
    assert code == 1
    text = capsys.readouterr().out
    assert "NOT EQUIVALENT" in text and "counterexample" in text
    import json

    payload = json.loads(out.read_text())
    assert payload["result"]["equivalent"] is False
    assert payload["result"]["counterexample"] is not None


def test_equiv_optimized_against_raw(capsys):
    assert main(["equiv", "vlcsa2", "vlcsa2", "16", "--optimize2"]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_opt_proves_and_reports_reductions(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code = main(
        ["opt", "carry_select", "--widths", "16", "--prove",
         "--json", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "reduction" in text and "proved" in text
    import json

    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert row["proved"] is True and row["rollbacks"] == 0
    assert row["gate_reduction"] >= 1.10
    assert payload["ok"] is True


def test_sta_reports_paths_and_sarif(tmp_path, capsys):
    sarif = tmp_path / "sta.sarif"
    assert main(
        ["sta", "vlcsa2", "32", "--paths", "3", "-v", "--sarif", str(sarif)]
    ) == 0
    text = capsys.readouterr().out
    assert "critical delay" in text and "slack" in text
    assert "worst path" in text
    import json

    doc = json.loads(sarif.read_text())
    assert doc["version"] == "2.1.0"


def test_sta_tight_clock_fails_with_violation(capsys):
    assert main(["sta", "ripple", "32", "--clock", "0.1"]) == 1
    assert "TIMING VIOLATION" in capsys.readouterr().err


# -- unwritable output paths -------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "vlcsa1", "16", "4"], "-o"),
        (["tb", "ripple", "8", "--vectors", "2"], "-o"),
        (["sta", "ripple", "16"], "--sarif"),
        (["lint", "vlcsa1", "--widths", "16", "--no-cache"], "-o"),
        (["engine", "errors", "16", "--window", "4", "--samples", "1000",
          "--no-design", "--no-cache"], "--merged"),
        (["seq", "vlcsa1", "16", "4"], "-o"),
        (["figures", "--names", "fig3_5", "--samples", "100"], "-o"),
    ],
)
def test_unwritable_output_path_exits_1_without_traceback(argv, flag, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv, flag, str(target)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "error: cannot write " in proc.stderr
    assert f"to {str(target)!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


# -- the parser tree ---------------------------------------------------------


def _leaves(parser, path=()):
    subparsers = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


def test_parser_tree_has_one_handler_per_command(capsys):
    leaves = dict(_leaves(build_parser()))
    handlers = {path: leaf.get_default("fn") for path, leaf in leaves.items()}
    assert all(callable(fn) for fn in handlers.values())
    # One path per handler: no command has a second spelling.
    assert len(set(handlers.values())) == len(handlers)
    assert ("errors",) not in handlers and ("sweep",) not in handlers
    modules = [repro.cli] + [
        importlib.import_module(f"repro.cli.{info.name}")
        for info in pkgutil.iter_modules(repro.cli.__path__)
    ]
    defined = {
        fn for module in modules
        for name, fn in vars(module).items() if name.startswith("_cmd_")
    }
    assert defined == set(handlers.values())
    for path in leaves:
        with pytest.raises(SystemExit) as excinfo:
            main([*path, "--help"])
        assert excinfo.value.code == 0, path
    capsys.readouterr()
