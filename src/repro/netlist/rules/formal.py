"""Formal lint rules (``F0xx``): BDD-backed proofs per architecture.

These turn the speculate/detect/recover contract into machine-checked
theorems over *every* input vector, not a Monte Carlo sample:

* ``F001`` — ``ERR = 0`` implies the speculative ``sum`` equals the exact
  sum (the thesis' reliability invariant for VLCSA 1/2 and VLSA);
* ``F002`` — the recovery bus ``sum_rec`` *is* the exact sum,
  unconditionally (equivalently: it matches a Kogge-Stone adder, which
  :func:`repro.netlist.equiv.check_equivalent` pins to the same function);
* ``F003`` — VLCSA 2's hypothesis selection: ``ERR0 = 0`` implies ``S*0``
  is exact and ``ERR0 = 1, ERR1 = 0`` implies ``S*1`` is exact
  (section 6.7's selection table);
* ``F004`` — the detector is not constant (a stuck detector would make
  ``F001`` vacuously true while destroying either reliability reporting
  or the one-cycle rate);
* ``F005`` — the peephole optimizer's rewrites are sound on this circuit.

Every failed proof reports a concrete counterexample input assignment
extracted from the violating BDD.

All rules apply only to *adder-shaped* circuits (input buses ``a``/``b``
of width ``n``, a ``width + 1`` sum-like bus) carrying the relevant
output buses, so plain speculative adders (no detector) and non-adder
netlists are skipped rather than mis-judged.
"""

from __future__ import annotations

from typing import Iterator

from repro.netlist.lint import Finding, LintContext, SEVERITY_ERROR, SEVERITY_WARNING
from repro.netlist.rules import register


def _has_buses(ctx: LintContext, *names: str) -> bool:
    if ctx.adder_shape() is None:
        return False
    outs = ctx.circuit.output_buses
    return all(name in outs for name in names)


def _coverage_findings(
    ctx: LintContext, guard, sum_bus: str, condition: str
) -> Iterator[Finding]:
    """Findings for ``guard`` (a BDD node) not implying ``sum_bus`` exact.

    Emits at most one finding per differing bit: the satisfying assignment
    of ``guard AND (bit != exact bit)`` is the counterexample.
    """
    manager, funcs, exact, _ = ctx.bdd_products()
    for bit, (got, want) in enumerate(zip(funcs[sum_bus], exact)):
        bad = manager.and_(guard, manager.xor(got, want))
        if bad != 0:
            yield Finding(
                message=(
                    f"{condition} does not guarantee {sum_bus}[{bit}] is "
                    f"exact: speculation coverage is broken"
                ),
                nets=(ctx.circuit.net_name(ctx.circuit.output_buses[sum_bus][bit]),),
                counterexample=ctx.bdd_counterexample(bad),
                hint=(
                    "the detector must fire on every window whose select "
                    "differs from the true carry (thesis Eq. 5.1)"
                ),
            )


@register(
    "F001",
    "err-coverage",
    family="formal",
    severity=SEVERITY_ERROR,
    description="Proof: ERR = 0 implies the speculative sum equals the exact sum.",
    applies=lambda ctx: _has_buses(ctx, "sum", "err"),
)
def check_err_coverage(ctx: LintContext) -> Iterator[Finding]:
    manager, funcs, _, _ = ctx.bdd_products()
    guard = manager.not_(funcs["err"][0])
    yield from _coverage_findings(ctx, guard, "sum", "ERR = 0")


@register(
    "F002",
    "recovery-exact",
    family="formal",
    severity=SEVERITY_ERROR,
    description="Proof: the recovery bus equals the exact sum on every input.",
    applies=lambda ctx: _has_buses(ctx, "sum_rec"),
)
def check_recovery_exact(ctx: LintContext) -> Iterator[Finding]:
    manager, funcs, exact, _ = ctx.bdd_products()
    for bit, (got, want) in enumerate(zip(funcs["sum_rec"], exact)):
        if got == want:
            continue  # ROBDDs are canonical: same node iff same function
        diff = manager.xor(got, want)
        yield Finding(
            message=f"sum_rec[{bit}] differs from the exact sum",
            nets=(ctx.circuit.net_name(ctx.circuit.output_buses["sum_rec"][bit]),),
            counterexample=ctx.bdd_counterexample(diff),
            hint="recovery must reduce the window P/G terms with an exact prefix network",
        )


@register(
    "F003",
    "hypothesis-coverage",
    family="formal",
    severity=SEVERITY_ERROR,
    description=(
        "Proof: ERR0 = 0 implies S*0 exact; ERR0 = 1, ERR1 = 0 implies S*1 "
        "exact (VLCSA 2 selection table)."
    ),
    applies=lambda ctx: _has_buses(ctx, "sum0", "sum1", "err0", "err1"),
)
def check_hypothesis_coverage(ctx: LintContext) -> Iterator[Finding]:
    manager, funcs, _, _ = ctx.bdd_products()
    err0 = funcs["err0"][0]
    err1 = funcs["err1"][0]
    yield from _coverage_findings(ctx, manager.not_(err0), "sum0", "ERR0 = 0")
    second = manager.and_(err0, manager.not_(err1))
    yield from _coverage_findings(ctx, second, "sum1", "ERR0 = 1, ERR1 = 0")


@register(
    "F004",
    "detector-constant",
    family="formal",
    severity=SEVERITY_WARNING,
    description=(
        "The error detector computes a constant: coverage proofs become "
        "vacuous (always-1) or speculation is claimed always-correct (always-0)."
    ),
    applies=lambda ctx: _has_buses(ctx, "err"),
)
def check_detector_constant(ctx: LintContext) -> Iterator[Finding]:
    _, funcs, _, _ = ctx.bdd_products()
    err = funcs["err"][0]
    if err in (0, 1):
        value = "1 (every addition stalls)" if err == 1 else "0 (never fires)"
        yield Finding(
            message=f"detector output err is constant {value}",
            nets=(ctx.circuit.net_name(ctx.circuit.output_buses["err"][0]),),
            hint="check the ERR tree inputs: P[i+1]·G[i] terms over window group signals",
        )


@register(
    "F005",
    "optimizer-soundness",
    family="formal",
    severity=SEVERITY_ERROR,
    description="Proof: the peephole optimize() pipeline preserves every output of this circuit.",
    applies=lambda ctx: bool(ctx.circuit.output_buses) and bool(ctx.circuit.input_buses),
)
def check_optimizer_soundness(ctx: LintContext) -> Iterator[Finding]:
    from repro.netlist.equiv import check_equivalent
    from repro.netlist.optimize import optimize

    optimized, _ = optimize(ctx.circuit)
    result = check_equivalent(ctx.circuit, optimized, sim_vectors=0)
    if not result.equivalent:
        bus, bit = result.mismatch
        yield Finding(
            message=(
                f"optimize() changed the function of {bus}[{bit}]: "
                f"rewrite pipeline is unsound on this circuit"
            ),
            counterexample=result.counterexample,
            hint="bisect DEFAULT_PASSES to find the unsound rewrite",
        )
