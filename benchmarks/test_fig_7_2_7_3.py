"""Figures 7.2/7.3: delay and area of the speculative adders vs Kogge-Stone.

Paper (0.01% error, parameters of Table 7.3):

* Fig 7.2 — SCSA 1 critical path 18-38% below Kogge-Stone; similar to the
  speculative adder inside VLSA.
* Fig 7.3 — SCSA 1 area 15-38% below Kogge-Stone and always below the
  VLSA speculative adder (window-level vs per-bit speculation).
"""

from repro.analysis.report import format_table, percent, ratio
from repro.analysis.sizing import THESIS_TABLE_7_3
from repro.engine.elab import measure_design

from benchmarks.conftest import run_once


def test_fig_7_2_7_3_speculative_vs_kogge_stone(benchmark):
    def compute():
        rows = []
        for n in sorted(THESIS_TABLE_7_3):
            k, l = THESIS_TABLE_7_3[n]
            rows.append(
                (
                    n,
                    measure_design("kogge_stone", n),
                    measure_design("scsa1", n, k),
                    measure_design("vlsa_spec", n, l),
                )
            )
        return rows

    rows = run_once(benchmark, compute)

    print()
    print(
        format_table(
            ["n", "KS delay", "SCSA1 delay", "Δ vs KS", "VLSAsp delay",
             "KS area", "SCSA1 area", "Δ vs KS", "VLSAsp area"],
            [
                (
                    n,
                    f"{ks.delay:.3f}",
                    f"{s.delay:.3f}",
                    percent(ratio(s.delay, ks.delay)),
                    f"{v.delay:.3f}",
                    f"{ks.area:.0f}",
                    f"{s.area:.0f}",
                    percent(ratio(s.area, ks.area)),
                    f"{v.area:.0f}",
                )
                for n, ks, s, v in rows
            ],
            title="Figs 7.2/7.3 — speculative adders vs Kogge-Stone @0.01% "
            "(paper: delay -18..-38%, area -15..-38%)",
        )
    )

    for n, ks, scsa, vlsa_spec in rows:
        # Fig 7.2: SCSA 1 faster than KS; gap grows with width.
        assert scsa.delay < ks.delay, n
        # Fig 7.3: SCSA 1 smaller than KS and not larger than VLSA-spec.
        assert scsa.area < ks.area, n
        assert scsa.area <= vlsa_spec.area * 1.05, n
    # delay advantage grows with n (log k flat vs log n growing)
    gaps = [ratio(s.delay, ks.delay) for _, ks, s, _ in rows]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < -0.25  # >25% faster at n=512
