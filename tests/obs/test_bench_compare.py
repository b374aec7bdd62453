"""Regression telemetry: compare_reports semantics and the CLI gate."""

import copy
import json

import pytest

from repro.cli import main
from repro.obs.bench import compare_reports, load_report

BASELINE = {
    "schema_version": 1,
    "rows": [
        {
            "architecture": "vlcsa1",
            "width": 64,
            "vectors": 1024,
            "vectorized_samples_per_s": 100_000.0,
            "speedup": 30.0,
            "fault_speedup": 20.0,
        },
        {
            "architecture": "designware",
            "width": 64,
            "vectors": 1024,
            "vectorized_samples_per_s": 150_000.0,
            "speedup": 25.0,
        },
    ],
    "metrics": {"throughput_samples_per_s": 120_000.0},
}


def _degraded(factor, metric="speedup"):
    report = copy.deepcopy(BASELINE)
    for row in report["rows"]:
        if metric in row:
            row[metric] *= factor
    return report


class TestCompareReports:
    def test_identical_reports_pass(self):
        result = compare_reports(BASELINE, copy.deepcopy(BASELINE), 0.1)
        assert result.ok
        assert result.regressions == []
        # 3 + 2 row metrics plus the overall throughput
        assert len(result.deltas) == 6

    def test_twenty_percent_regression_fails_at_ten_percent_tolerance(self):
        result = compare_reports(BASELINE, _degraded(0.8), tolerance=0.1)
        assert not result.ok
        assert {d.metric for d in result.regressions} == {"speedup"}
        assert len(result.regressions) == 2

    def test_regression_within_tolerance_passes(self):
        result = compare_reports(BASELINE, _degraded(0.95), tolerance=0.1)
        assert result.ok

    def test_improvement_passes(self):
        result = compare_reports(BASELINE, _degraded(1.5), tolerance=0.1)
        assert result.ok

    def test_metric_restriction(self):
        result = compare_reports(
            BASELINE, _degraded(0.5), tolerance=0.1, metrics=("fault_speedup",)
        )
        assert result.ok  # only speedup regressed; it was not compared
        assert all(d.metric == "fault_speedup" for d in result.deltas)

    def test_missing_row_warns_but_does_not_fail(self):
        new = copy.deepcopy(BASELINE)
        new["rows"] = new["rows"][:1]
        result = compare_reports(BASELINE, new, 0.1)
        assert result.ok
        assert any("missing from NEW" in w for w in result.warnings)

    def test_schema_version_mismatch_warns(self):
        old = copy.deepcopy(BASELINE)
        del old["schema_version"]  # pre-provenance checked-in baseline
        result = compare_reports(old, BASELINE, 0.1)
        assert any("schema_version differs" in w for w in result.warnings)
        assert result.ok

    def test_accel_mismatch_warns(self):
        """A report made without the C library is named, not guessed at."""
        old = dict(copy.deepcopy(BASELINE), accel=True)
        new = dict(copy.deepcopy(BASELINE), accel=False)
        result = compare_reports(old, new, 0.1)
        assert "accel differs: old=True new=False" in result.warnings
        assert result.ok
        same = compare_reports(old, copy.deepcopy(old), 0.1)
        assert not any("accel" in w for w in same.warnings)

    def test_missing_metric_is_skipped_not_crashed(self):
        # designware row has no fault_speedup: must simply not compare it
        result = compare_reports(BASELINE, copy.deepcopy(BASELINE), 0.1)
        assert not any(
            d.row.startswith("designware") and d.metric == "fault_speedup"
            for d in result.deltas
        )

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(BASELINE, BASELINE, tolerance=1.5)


class TestDefaults:
    def test_every_default_metric_is_in_a_checked_in_report(self):
        """A default naming a metric no report carries compares nothing."""
        from pathlib import Path

        from repro.obs.bench import DEFAULT_METRICS

        carried = set()
        for path in Path(__file__).parents[2].glob("BENCH_*.json"):
            report = load_report(str(path))
            for row in report["rows"]:
                carried.update(row)
            carried.update(report.get("metrics") or {})
        assert set(DEFAULT_METRICS) <= carried, set(DEFAULT_METRICS) - carried

    def test_overall_throughput_keys_on_its_own_name(self):
        only = compare_reports(
            BASELINE, copy.deepcopy(BASELINE), 0.1, metrics=("throughput_samples_per_s",)
        )
        assert [d.row for d in only.deltas] == ["(overall)"]
        without = compare_reports(
            BASELINE, copy.deepcopy(BASELINE), 0.1, metrics=("speedup",)
        )
        assert all(d.row != "(overall)" for d in without.deltas)

    def test_cli_help_names_the_defaults(self, capsys):
        from repro.obs.bench import DEFAULT_METRICS

        with pytest.raises(SystemExit):
            main(["bench", "compare", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default: {' '.join(DEFAULT_METRICS)})" in help_text


class TestLoadReport:
    def test_rejects_non_report_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="no 'rows'"):
            load_report(str(path))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_report(str(tmp_path / "nope.json"))


class TestCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_identical_exits_zero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", BASELINE)
        new = self._write(tmp_path, "new.json", BASELINE)
        assert main(["bench", "compare", old, new]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_twenty_percent_regression_exits_one(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", BASELINE)
        new = self._write(tmp_path, "new.json", _degraded(0.8))
        assert main(["bench", "compare", old, new, "--tolerance", "0.1"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_generous_tolerance_forgives(self, tmp_path):
        old = self._write(tmp_path, "old.json", BASELINE)
        new = self._write(tmp_path, "new.json", _degraded(0.8))
        assert main(["bench", "compare", old, new, "--tolerance", "0.5"]) == 0

    def test_metrics_flag_restricts(self, tmp_path):
        old = self._write(tmp_path, "old.json", BASELINE)
        new = self._write(tmp_path, "new.json", _degraded(0.5))
        assert main(
            ["bench", "compare", old, new, "--metrics", "fault_speedup"]
        ) == 0

    def test_accel_mismatch_prints_warning(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", dict(BASELINE, accel=True))
        new = self._write(tmp_path, "new.json", dict(BASELINE, accel=False))
        assert main(["bench", "compare", old, new]) == 0
        assert "warning: accel differs: old=True new=False" in capsys.readouterr().out

    def test_unreadable_report_exits_two(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", BASELINE)
        assert main(["bench", "compare", old, str(tmp_path / "gone.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_overlap_exits_two(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", BASELINE)
        new = self._write(
            tmp_path, "new.json", {"rows": [{"architecture": "other", "width": 8}]}
        )
        assert main(["bench", "compare", old, new]) == 2

    def test_checked_in_baseline_compares_against_itself(self):
        from pathlib import Path

        baseline = str(Path(__file__).parents[2] / "BENCH_netlist_sim.json")
        assert (
            main(
                ["bench", "compare", baseline, baseline,
                 "--metrics", "speedup", "fault_speedup",
                 "--tolerance", "0.75"]
            )
            == 0
        )
