"""Pass-based static analysis of netlists.

The thesis' headline claim is *reliability*: the detector (``ERR =
OR_i P[i+1]·G[i]``, plus VLCSA 2's ``ERR1``) must flag every mis-speculated
window so the recovery path always yields the exact sum.  Monte Carlo only
samples that contract; this module *checks* it — statically, for every
generated design — by running a configurable rule set over a
:class:`~repro.netlist.circuit.Circuit` and emitting structured
:class:`Diagnostic` records.

Three rule families live in :mod:`repro.netlist.rules`:

* **structural** (``S0xx``) — the invariants :func:`repro.netlist.validate.
  check_circuit` historically raised on (multi-driven nets, undriven
  outputs, unknown/arity-mismatched cells) plus dead-logic and
  drive-limit checks;
* **formal** (``F0xx``) — BDD-backed proofs: ``ERR = 0`` implies the
  speculative sum equals the exact sum, the recovery bus *is* the exact
  sum, the optimizer's rewrites are sound.  Failures carry a concrete
  counterexample input vector;
* **timing** (``T0xx``) — the detection path must not arrive later than
  the speculative sum path (thesis Fig. 7.4's contract for VLCSA).

:func:`run_lint` evaluates the rules and returns a :class:`LintReport`
whose diagnostics are deterministically ordered; :func:`format_text`,
:func:`report_to_dict`, and :func:`reports_to_sarif` render it for humans,
machines, and CI annotation consumers respectively.

:func:`mutation_self_test` turns the linter on itself: it injects single
stuck-at faults into the detector cone (via :mod:`repro.netlist.faults`)
and checks the formal rules flag every fault that actually breaks the
speculation-coverage contract, cross-checking survivors against a
bit-parallel simulation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cells.library import CellLibrary, default_library
from repro.netlist.circuit import Circuit

#: Diagnostic severities, in escalating order.
SEVERITY_INFO = "info"
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"

SEVERITIES = (SEVERITY_INFO, SEVERITY_WARNING, SEVERITY_ERROR)

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity name (higher = worse)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; choose from {SEVERITIES}"
        ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule on one circuit.

    ``nets`` are printable net names and ``gates`` gate indices locating
    the finding; ``ports`` are named-bus-plus-bit-index anchors
    (``sum[63]``) when the finding lands on primary ports, so SARIF
    locations can point at the actual port rather than a bare net id;
    ``counterexample`` (formal rules) maps input bus names to concrete
    values exhibiting the violation; ``hint`` suggests a fix.
    """

    rule_id: str
    rule_name: str
    severity: str
    circuit: str
    message: str
    nets: Tuple[str, ...] = ()
    gates: Tuple[int, ...] = ()
    ports: Tuple[str, ...] = ()
    counterexample: Optional[Dict[str, int]] = None
    hint: Optional[str] = None

    def sort_key(self) -> Tuple:
        """Deterministic ordering: rule, then location, then message."""
        return (self.rule_id, self.gates, self.nets, self.ports, self.message)

    def to_dict(self) -> dict:
        """JSON-ready representation (counterexample values as ints)."""
        payload = {
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "severity": self.severity,
            "circuit": self.circuit,
            "message": self.message,
            "nets": list(self.nets),
            "gates": list(self.gates),
        }
        if self.ports:
            payload["ports"] = list(self.ports)
        if self.counterexample is not None:
            payload["counterexample"] = dict(self.counterexample)
        if self.hint is not None:
            payload["hint"] = self.hint
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "Diagnostic":
        """Inverse of :meth:`to_dict`."""
        return Diagnostic(
            rule_id=payload["rule_id"],
            rule_name=payload["rule_name"],
            severity=payload["severity"],
            circuit=payload["circuit"],
            message=payload["message"],
            nets=tuple(payload.get("nets", ())),
            gates=tuple(payload.get("gates", ())),
            ports=tuple(payload.get("ports", ())),
            counterexample=payload.get("counterexample"),
            hint=payload.get("hint"),
        )


@dataclass(frozen=True)
class Finding:
    """What a rule's check function yields; the runner wraps it into a
    :class:`Diagnostic` carrying the rule's id/name/severity."""

    message: str
    nets: Tuple[str, ...] = ()
    gates: Tuple[int, ...] = ()
    #: named-bus + bit-index anchors (``sum[63]``) for port-level findings
    ports: Tuple[str, ...] = ()
    counterexample: Optional[Dict[str, int]] = None
    hint: Optional[str] = None
    #: override the rule's default severity for this one finding
    severity: Optional[str] = None


class LintContext:
    """Shared state one :func:`run_lint` invocation hands every rule.

    Expensive products (fanout counts, the timing report, the circuit's
    BDDs next to an exact reference adder's) are computed lazily and
    memoized, so rule families share work instead of repeating it.
    """

    def __init__(self, circuit: Circuit, library: Optional[CellLibrary] = None):
        self.circuit = circuit
        self.library = library if library is not None else default_library()
        self._fanout: Optional[List[int]] = None
        self._timing = None
        self._bdd_products = None

    # -- cheap structural views ------------------------------------------

    def fanout_counts(self) -> List[int]:
        """Memoized :meth:`Circuit.fanout_counts`."""
        if self._fanout is None:
            self._fanout = self.circuit.fanout_counts()
        return self._fanout

    # -- timing -----------------------------------------------------------

    def timing(self):
        """Memoized STA report of the circuit under ``self.library``."""
        if self._timing is None:
            from repro.netlist.timing import analyze_timing

            self._timing = analyze_timing(self.circuit, self.library)
        return self._timing

    # -- formal -----------------------------------------------------------

    def adder_shape(self) -> Optional[int]:
        """Operand width when the circuit is adder-shaped, else ``None``.

        Adder-shaped means: input buses exactly ``a`` and ``b`` of equal
        width ``n``, and some output bus of width ``n + 1`` named ``sum``
        or ``sum_rec``.
        """
        ins = self.circuit.input_buses
        if set(ins) != {"a", "b"} or len(ins["a"]) != len(ins["b"]):
            return None
        width = len(ins["a"])
        outs = self.circuit.output_buses
        for name in ("sum", "sum_rec"):
            if name in outs and len(outs[name]) == width + 1:
                return width
        return None

    def bdd_products(self):
        """``(manager, circuit BDDs by bus, exact-sum BDDs, order)``.

        The exact reference is a ripple adder over the same ``a``/``b``
        variables (any exact adder works — the tests prove them all
        equivalent to each other), so formal rules can compare
        any output bus against the true sum bit by bit.
        """
        if self._bdd_products is None:
            from repro.adders import build_ripple_adder
            from repro.netlist.bdd import BDD, circuit_to_bdds, interleaved_order

            width = self.adder_shape()
            if width is None:
                raise ValueError(
                    f"{self.circuit.name!r} is not adder-shaped; "
                    "formal rules should not have requested BDDs"
                )
            manager = BDD()
            by_net = interleaved_order(self.circuit)
            levels = {
                self.circuit.net_name(net): lvl for net, lvl in by_net.items()
            }
            funcs = circuit_to_bdds(self.circuit, manager, levels)
            reference = build_ripple_adder(width)
            exact = circuit_to_bdds(reference, manager, levels)["sum"]
            self._bdd_products = (manager, funcs, exact, by_net)
        return self._bdd_products

    def bdd_counterexample(self, node: int) -> Dict[str, int]:
        """Concrete ``{bus: value}`` assignment satisfying ``node``."""
        manager, _, _, by_net = self.bdd_products()
        assignment = manager.satisfy_one(node)
        assert assignment is not None
        values = {name: 0 for name in self.circuit.input_buses}
        for name, nets in self.circuit.input_buses.items():
            for i, net in enumerate(nets):
                if assignment.get(by_net[net], 0):
                    values[name] |= 1 << i
        return values


def _always_applies(ctx: "LintContext") -> bool:
    """Default ``Rule.applies`` gate: the rule runs on every circuit."""
    return True


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable id, human name, family, and a check function.

    ``applies`` gates the rule on circuit shape (formal rules need
    adder-shaped ports); ``check`` yields :class:`Finding` records.
    """

    id: str
    name: str
    family: str
    severity: str
    description: str
    check: Callable[[LintContext], Iterator[Finding]]
    applies: Callable[[LintContext], bool] = _always_applies

    def run(self, ctx: LintContext) -> List[Diagnostic]:
        """Evaluate the rule, wrapping findings into diagnostics."""
        if not self.applies(ctx):
            return []
        out = []
        for finding in self.check(ctx):
            out.append(
                Diagnostic(
                    rule_id=self.id,
                    rule_name=self.name,
                    severity=finding.severity or self.severity,
                    circuit=ctx.circuit.name,
                    message=finding.message,
                    nets=finding.nets,
                    gates=finding.gates,
                    ports=finding.ports,
                    counterexample=finding.counterexample,
                    hint=finding.hint,
                )
            )
        return out


@dataclass
class LintReport:
    """Outcome of :func:`run_lint`: diagnostics in deterministic order."""

    circuit: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: ids of the rules that ran (applied to this circuit)
    rules_run: Tuple[str, ...] = ()

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_WARNING]

    def worst_severity(self) -> Optional[str]:
        """The highest severity present, or ``None`` when clean."""
        if not self.diagnostics:
            return None
        return max(self.diagnostics, key=lambda d: severity_rank(d.severity)).severity

    def counts(self) -> Dict[str, int]:
        """Diagnostic count per severity (all severities present)."""
        out = {name: 0 for name in SEVERITIES}
        for diag in self.diagnostics:
            out[diag.severity] += 1
        return out

    def exceeds(self, fail_on: str) -> bool:
        """True when any diagnostic is at least ``fail_on`` severe."""
        threshold = severity_rank(fail_on)
        return any(severity_rank(d.severity) >= threshold for d in self.diagnostics)


def resolve_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
) -> Tuple[Rule, ...]:
    """The registered rules, filtered by id/name (``select``/``ignore``)
    and family.  Unknown ids raise so typos fail loudly."""
    from repro.netlist.rules import all_rules

    rules = all_rules()
    known = {r.id for r in rules} | {r.name for r in rules}
    for wanted in list(select or ()) + list(ignore or ()):
        if wanted not in known:
            raise ValueError(
                f"unknown rule {wanted!r}; known: {sorted(known)}"
            )
    if families is not None:
        rules = tuple(r for r in rules if r.family in families)
    if select is not None:
        chosen = set(select)
        rules = tuple(r for r in rules if r.id in chosen or r.name in chosen)
    if ignore is not None:
        dropped = set(ignore)
        rules = tuple(
            r for r in rules if r.id not in dropped and r.name not in dropped
        )
    return rules


def run_lint(
    circuit: Circuit,
    rules: Optional[Sequence[Rule]] = None,
    library: Optional[CellLibrary] = None,
) -> LintReport:
    """Run ``rules`` (default: every registered rule) over ``circuit``.

    Diagnostics are sorted by ``(rule id, location, message)`` so repeated
    runs — and runs fanned out over worker processes — agree byte for
    byte.
    """
    from repro.obs import spans as _obs

    chosen = tuple(rules) if rules is not None else resolve_rules()
    ctx = LintContext(circuit, library)
    diagnostics: List[Diagnostic] = []
    ran: List[str] = []
    with _obs.span("lint.run", circuit=circuit.name):
        for rule in chosen:
            if rule.applies(ctx):
                ran.append(rule.id)
                with _obs.span(f"lint.{rule.id}"):
                    diagnostics.extend(rule.run(ctx))
    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(
        circuit=circuit.name, diagnostics=diagnostics, rules_run=tuple(ran)
    )


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------


def format_text(report: LintReport, verbose: bool = False) -> str:
    """Human-readable rendering, one line per diagnostic."""
    lines = []
    counts = report.counts()
    lines.append(
        f"{report.circuit}: {counts['error']} error(s), "
        f"{counts['warning']} warning(s), {counts['info']} note(s)"
    )
    for diag in report.diagnostics:
        where = ""
        if diag.nets:
            shown = ", ".join(diag.nets[:4])
            more = f" (+{len(diag.nets) - 4} more)" if len(diag.nets) > 4 else ""
            where = f" [{shown}{more}]"
        lines.append(
            f"  {diag.severity.upper():7s} {diag.rule_id} "
            f"{diag.rule_name}: {diag.message}{where}"
        )
        if diag.counterexample is not None:
            vals = ", ".join(
                f"{k}={v:#x}" for k, v in sorted(diag.counterexample.items())
            )
            lines.append(f"          counterexample: {vals}")
        if verbose and diag.hint:
            lines.append(f"          hint: {diag.hint}")
    return "\n".join(lines)


def report_to_dict(report: LintReport) -> dict:
    """JSON-ready representation of one report."""
    return {
        "circuit": report.circuit,
        "counts": report.counts(),
        "rules_run": list(report.rules_run),
        "diagnostics": [d.to_dict() for d in report.diagnostics],
    }


def report_from_dict(payload: dict) -> LintReport:
    """Inverse of :func:`report_to_dict` (extra keys are ignored, so the
    engine's :class:`~repro.engine.jobs.LintRows` rows round-trip too)."""
    return LintReport(
        circuit=payload["circuit"],
        diagnostics=[Diagnostic.from_dict(d) for d in payload["diagnostics"]],
        rules_run=tuple(payload.get("rules_run", ())),
    )


_SARIF_LEVEL = {
    SEVERITY_INFO: "note",
    SEVERITY_WARNING: "warning",
    SEVERITY_ERROR: "error",
}


def reports_to_sarif(
    reports: Sequence[LintReport], tool_version: str = "1.0.0"
) -> dict:
    """SARIF 2.1.0 document covering several reports in one run.

    Netlists have no source files, so findings are located via SARIF
    *logical locations*: the circuit (kind ``module``), net names (kind
    ``member``), and — for diagnostics carrying port anchors — the named
    bus + bit index as kind ``parameter`` with a ``circuit::port``
    fully-qualified name, so timing endpoints resolve to actual ports.
    """
    rule_meta = {}
    for rule in resolve_rules():
        rule_meta[rule.id] = {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": _SARIF_LEVEL[rule.severity]},
            "properties": {"family": rule.family},
        }
    results = []
    for report in reports:
        for diag in report.diagnostics:
            logical = (
                [{"name": report.circuit, "kind": "module"}]
                + [
                    {
                        "name": port,
                        "kind": "parameter",
                        "fullyQualifiedName": f"{report.circuit}::{port}",
                    }
                    for port in diag.ports[:8]
                ]
                + [{"name": net, "kind": "member"} for net in diag.nets[:8]]
            )
            message = diag.message
            if diag.counterexample is not None:
                vals = ", ".join(
                    f"{k}={v:#x}" for k, v in sorted(diag.counterexample.items())
                )
                message = f"{message} (counterexample: {vals})"
            results.append(
                {
                    "ruleId": diag.rule_id,
                    "level": _SARIF_LEVEL[diag.severity],
                    "message": {"text": message},
                    "locations": [{"logicalLocations": logical}],
                }
            )
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "version": tool_version,
                        "rules": sorted(
                            rule_meta.values(), key=lambda r: r["id"]
                        ),
                    }
                },
                "results": results,
            }
        ],
    }


# ---------------------------------------------------------------------------
# Mutation self-test: does the linter catch broken detectors?
# ---------------------------------------------------------------------------

#: Output buses whose transitive fanin constitutes "detector logic".
_DETECTOR_BUSES = ("err", "err0", "err1")


@dataclass
class MutationOutcome:
    """One injected fault and what the linter said about it."""

    net: int
    net_name: str
    stuck_at: int
    killed: bool
    #: rule ids that fired on the mutant (beyond the clean run's findings)
    fired: Tuple[str, ...] = ()


@dataclass
class MutationReport:
    """Outcome of :func:`mutation_self_test`.

    ``missed`` is non-empty only when the *simulation oracle* exhibited a
    coverage violation on a mutant the formal rules proved clean — i.e. a
    bug in the linter itself.  A healthy linter yields ``missed == []``:
    every surviving mutant is then formally benign (the BDD proof *is* the
    evidence — e.g. a fault that only makes the detector fire more often).
    """

    circuit: str
    total: int
    killed: int
    outcomes: List[MutationOutcome] = field(default_factory=list)
    missed: List[Diagnostic] = field(default_factory=list)

    @property
    def survivors(self) -> List[MutationOutcome]:
        return [o for o in self.outcomes if not o.killed]

    @property
    def kill_fraction(self) -> float:
        return self.killed / self.total if self.total else 1.0

    @property
    def ok(self) -> bool:
        """True when no mutant slipped past the formal rules unsoundly."""
        return not self.missed and (self.total == 0 or self.killed > 0)

    def to_dict(self) -> dict:
        """JSON-ready representation of the self-test outcome."""
        return {
            "circuit": self.circuit,
            "total": self.total,
            "killed": self.killed,
            "kill_fraction": self.kill_fraction,
            "survivors": [
                {"net": o.net_name, "stuck_at": o.stuck_at}
                for o in self.survivors
            ],
            "missed": [d.to_dict() for d in self.missed],
            "ok": self.ok,
        }


def detector_cone_faults(circuit: Circuit) -> List["Fault"]:
    """Single stuck-at faults on every gate output inside the detector
    cone (transitive fanin of the ``err``/``err0``/``err1`` outputs)."""
    from repro.netlist.faults import Fault

    stack: List[int] = []
    for name in _DETECTOR_BUSES:
        if name in circuit.output_buses:
            stack.extend(circuit.output_buses[name])
    cone = set()
    while stack:
        net = stack.pop()
        if net in cone:
            continue
        cone.add(net)
        gate = circuit.driver_of(net)
        if gate is not None:
            stack.extend(gate.inputs)
    faults = []
    for gate in circuit.gates:
        if gate.kind in ("CONST0", "CONST1") or gate.output not in cone:
            continue
        faults.append(Fault(gate.output, 0))
        faults.append(Fault(gate.output, 1))
    return faults


def _oracle_violation(
    mutant: Circuit, samples: int, seed: int
) -> Optional[Dict[str, int]]:
    """Random-simulation oracle: a vector with ``err = 0`` but a wrong
    speculative sum, or ``None`` if none is found in ``samples`` tries."""
    import numpy as np

    from repro.netlist.simulate import simulate_batch

    width = len(mutant.input_buses["a"])
    rng = np.random.default_rng(seed)
    vectors = {
        name: [int(v) for v in rng.integers(0, 1 << width, size=samples, dtype=np.uint64)]
        for name in ("a", "b")
    }
    results = simulate_batch(mutant, vectors)
    for i in range(samples):
        a, b = vectors["a"][i], vectors["b"][i]
        if results["err"][i] == 0 and results["sum"][i] != a + b:
            return {"a": a, "b": b}
    return None


def mutation_self_test(
    circuit: Circuit,
    max_mutants: Optional[int] = 64,
    oracle_samples: int = 256,
    seed: int = 2012,
) -> MutationReport:
    """Mutation-test the linter's formal rules on one design.

    Injects single stuck-at faults into the detector cone, re-runs the
    formal rule family on each mutant, and counts a mutant *killed* when a
    rule fires that stayed silent on the clean circuit.  Each surviving
    mutant is cross-checked against a random-simulation oracle; an oracle
    violation the rules missed is reported as an ``M001`` diagnostic in
    ``missed`` — the self-test's own failure condition.

    ``max_mutants`` bounds the run by sampling the fault list at an even
    stride (deterministic), since BDD-proving hundreds of 64-bit mutants
    is needlessly slow for a CI gate.
    """
    from repro.netlist.faults import apply_fault

    rules = resolve_rules(families=("formal",))
    clean = run_lint(circuit, rules)
    baseline = {(d.rule_id, d.message) for d in clean.diagnostics}

    faults = detector_cone_faults(circuit)
    if max_mutants is not None and len(faults) > max_mutants:
        stride = len(faults) / max_mutants
        faults = [faults[int(i * stride)] for i in range(max_mutants)]

    outcomes: List[MutationOutcome] = []
    missed: List[Diagnostic] = []
    killed = 0
    for fault in faults:
        mutant = apply_fault(circuit, fault)
        report = run_lint(mutant, rules)
        fired = tuple(
            sorted(
                {
                    d.rule_id
                    for d in report.diagnostics
                    if (d.rule_id, d.message) not in baseline
                }
            )
        )
        is_killed = bool(fired)
        if not is_killed and "err" in circuit.output_buses:
            violation = _oracle_violation(mutant, oracle_samples, seed)
            if violation is not None:
                missed.append(
                    Diagnostic(
                        rule_id="M001",
                        rule_name="selftest-missed-mutant",
                        severity=SEVERITY_ERROR,
                        circuit=circuit.name,
                        message=(
                            f"simulation found a coverage violation on "
                            f"stuck-at-{fault.stuck_at} of "
                            f"{circuit.net_name(fault.net)} that the formal "
                            f"rules did not flag"
                        ),
                        nets=(circuit.net_name(fault.net),),
                        counterexample=violation,
                    )
                )
        if is_killed:
            killed += 1
        outcomes.append(
            MutationOutcome(
                net=fault.net,
                net_name=circuit.net_name(fault.net),
                stuck_at=fault.stuck_at,
                killed=is_killed,
                fired=fired,
            )
        )
    return MutationReport(
        circuit=circuit.name,
        total=len(faults),
        killed=killed,
        outcomes=outcomes,
        missed=missed,
    )


__all__ = [
    "Diagnostic",
    "Finding",
    "LintContext",
    "LintReport",
    "MutationOutcome",
    "MutationReport",
    "Rule",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "detector_cone_faults",
    "format_text",
    "mutation_self_test",
    "report_to_dict",
    "reports_to_sarif",
    "resolve_rules",
    "run_lint",
    "severity_rank",
]
