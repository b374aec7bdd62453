"""CLI surface of the observability subsystem: stats, --trace, provenance."""

import json

import pytest

from repro.cli import main
from repro.obs import spans as obs
from repro.obs.provenance import REPORT_SCHEMA_VERSION


@pytest.fixture(autouse=True)
def _obs_left_disabled():
    """Every CLI invocation must leave the global switch off."""
    yield
    assert not obs.is_enabled()


class TestStatsCommand:
    def test_latency_histogram_mean_matches_model(self, tmp_path, capsys):
        """Acceptance: the VLCSA 2 latency-cycle histogram mean matches the
        Eq. 5.2 expectation within 1e-3 on a seeded 1e5-sample run."""
        out = tmp_path / "stats.json"
        assert main(
            ["stats", "32", "--window", "8", "--samples", "100000",
             "--no-cache", "--json", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        rows = {row["architecture"]: row for row in doc["rows"]}
        for design in ("vlcsa1", "vlcsa2"):
            row = rows[design]
            assert row["latency_cycles"]["count"] == 100_000
            assert abs(
                row["mean_cycles_per_add"] - row["expected_cycles_per_add"]
            ) < 1e-3
        # vlcsa1 stalls whenever the window speculation misses
        assert rows["vlcsa1"]["stall_rate"] > 0
        # the ERR0 & ERR1 stall rate of VLCSA 2 is at most VLCSA 1's
        assert rows["vlcsa2"]["stall_rate"] <= rows["vlcsa1"]["stall_rate"]
        text = capsys.readouterr().out
        assert "latency cycles" in text
        assert "Eq. 5.2" in text

    def test_histograms_in_metrics_report(self, tmp_path):
        out = tmp_path / "stats.json"
        assert main(
            ["stats", "16", "--window", "4", "--samples", "20000",
             "--no-cache", "--json", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        hists = doc["metrics"]["histograms"]
        assert "vlcsa1.latency_cycles" in hists
        assert "vlcsa2.latency_cycles" in hists

    def test_deterministic_across_runs(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                ["--seed", "7", "stats", "16", "--window", "4",
                 "--samples", "20000", "--no-cache", "--json", str(out)]
            ) == 0
            outs.append(json.loads(out.read_text())["rows"])
        assert outs[0] == outs[1]


class TestTraceFlag:
    def test_sim_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        """Acceptance: repro sim --trace out.json produces a Chrome trace
        whose events carry ph/ts/dur/pid/tid and are ts-monotonic."""
        trace = tmp_path / "out.json"
        assert main(
            ["sim", "vlcsa1", "--widths", "16", "--vectors", "32",
             "--repeat", "1", "--trace", str(trace)]
        ) == 0
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0 and event["dur"] >= 0
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        names = {e["name"] for e in events}
        assert "repro.sim" in names
        # compile.codegen is absent when the process-wide kernel cache is
        # already warm from an earlier test; the sim spans always fire.
        assert {"sim.batch", "sim.exec"} <= names
        # sim.exec names the plan runner that ran: the C evaluator when
        # the library loads, else the numpy group schedule.
        from repro.netlist import _accel

        runner = "c" if _accel.load() is not None else "numpy"
        assert {
            e["args"]["runner"] for e in events if e["name"] == "sim.exec"
        } == {runner}
        err = capsys.readouterr().err
        assert "trace event(s)" in err
        assert "repro.sim" in err  # the text flamegraph

    def test_stats_trace_spans_cover_engine_phases(self, tmp_path):
        trace = tmp_path / "t.json"
        assert main(
            ["stats", "16", "--window", "4", "--samples", "20000",
             "--no-cache", "--trace", str(trace)]
        ) == 0
        names = {
            e["name"]
            for e in json.loads(trace.read_text())["traceEvents"]
        }
        assert {"repro.stats", "simulate", "elaborate"} <= names

    def test_lint_trace_has_per_rule_spans(self, tmp_path):
        trace = tmp_path / "t.json"
        assert main(
            ["lint", "vlcsa1", "--widths", "16", "--no-cache",
             "--trace", str(trace)]
        ) == 0
        names = {
            e["name"]
            for e in json.loads(trace.read_text())["traceEvents"]
        }
        assert "lint.run" in names
        assert any(n.startswith("lint.S") for n in names)
        assert any(n.startswith("lint.F") for n in names)

    def test_untraced_run_records_nothing(self, tmp_path):
        obs.reset()
        assert main(
            ["sim", "vlcsa1", "--widths", "16", "--vectors", "16",
             "--repeat", "1"]
        ) == 0
        assert obs.global_collector().spans == []


class TestProvenance:
    def test_sim_report_carries_provenance(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(
            ["sim", "vlcsa1", "--widths", "16", "--vectors", "32",
             "--repeat", "1", "--seed", "5", "--json", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        prov = doc["provenance"]
        assert prov["seed"] == 5
        assert prov["python_version"]
        assert prov["numpy_version"]
        assert prov["platform"]

    def test_engine_errors_report_carries_provenance(self, tmp_path):
        out = tmp_path / "e.json"
        assert main(
            ["engine", "errors", "16", "--window", "4", "--samples", "20000",
             "--no-cache", "--no-design", "--json", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert doc["provenance"]["seed"] == doc["seed"]

    def test_lint_json_carries_provenance(self, capsys):
        assert main(
            ["lint", "vlcsa1", "--widths", "16", "--no-cache",
             "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert "git_rev" in doc["provenance"]
