"""Tests for the peephole optimizer (repro.netlist.optimize)."""

import itertools
import random

import pytest

from repro.netlist.circuit import Circuit
from repro.netlist.optimize import (
    AREA_PASSES,
    buffer_fanout,
    depth_levels,
    fold_constants,
    map_compound,
    merge_inverters,
    optimize,
    share_structure,
    strip_dead,
)
from repro.netlist.simulate import simulate, simulate_batch
from repro.netlist.validate import check_circuit


def _exhaustive_equivalent(c1, c2, widths):
    """Check functional equivalence over all input combinations."""
    names = sorted(widths)
    spaces = [range(1 << widths[n]) for n in names]
    for combo in itertools.product(*spaces):
        ins = dict(zip(names, combo))
        assert simulate(c1, ins) == simulate(c2, ins), ins


class TestFoldConstants:
    def test_and_with_zero(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("y", c.and2(a, c.const0()))
        out = fold_constants(c)
        assert simulate(out, {"a": 1})["y"] == 0
        assert out.count_by_kind().get("AND2", 0) == 0

    def test_or_with_one(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("y", c.or2(c.const1(), a))
        out = fold_constants(c)
        assert simulate(out, {"a": 0})["y"] == 1

    def test_xor_with_const_becomes_inverter_or_wire(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("y0", c.xor2(a, c.const0()))
        c.set_output("y1", c.xor2(a, c.const1()))
        out = strip_dead(fold_constants(c))
        for v in (0, 1):
            got = simulate(out, {"a": v})
            assert got["y0"] == v
            assert got["y1"] == 1 - v
        assert out.count_by_kind().get("XOR2", 0) == 0

    def test_mux_with_const_select(self):
        c = Circuit("t")
        d0 = c.add_input("d0")
        d1 = c.add_input("d1")
        c.set_output("y", c.mux2(c.const1(), d0, d1))
        out = fold_constants(c)
        assert out.count_by_kind().get("MUX2", 0) == 0
        for x0, x1 in itertools.product((0, 1), repeat=2):
            assert simulate(out, {"d0": x0, "d1": x1})["y"] == x1

    def test_mux_same_data_collapses(self):
        c = Circuit("t")
        s = c.add_input("s")
        d = c.add_input("d")
        c.set_output("y", c.mux2(s, d, d))
        out = fold_constants(c)
        assert out.count_by_kind().get("MUX2", 0) == 0

    def test_constant_propagation_is_transitive(self):
        c = Circuit("t")
        a = c.add_input("a")
        x = c.and2(c.const0(), a)  # 0
        y = c.or2(x, a)  # a
        c.set_output("y", y)
        out = strip_dead(fold_constants(c))
        assert out.num_gates == 0  # y aliases input a
        for v in (0, 1):
            assert simulate(out, {"a": v})["y"] == v


class TestMergeInverters:
    def test_double_inverter_removed(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("y", c.not_(c.not_(a)))
        out = strip_dead(merge_inverters(c))
        assert out.num_gates == 0

    def test_inv_and_becomes_nand(self):
        c = Circuit("t")
        a = c.add_input("a")
        b = c.add_input("b")
        c.set_output("y", c.not_(c.and2(a, b)))
        out = strip_dead(merge_inverters(c))
        assert out.count_by_kind() == {"NAND2": 1}
        _exhaustive_equivalent(c, out, {"a": 1, "b": 1})

    def test_shared_gate_not_absorbed(self):
        """An AND feeding two sinks must survive inverter merging."""
        c = Circuit("t")
        a = c.add_input("a")
        b = c.add_input("b")
        x = c.and2(a, b)
        c.set_output("y", c.not_(x))
        c.set_output("z", x)
        out = strip_dead(merge_inverters(c))
        assert out.count_by_kind().get("AND2", 0) == 1
        _exhaustive_equivalent(c, out, {"a": 1, "b": 1})


class TestMapCompound:
    def test_and_or_becomes_aoi(self):
        c = Circuit("t")
        ins = [c.add_input(n) for n in "abx"]
        c.set_output("y", c.or2(c.and2(ins[0], ins[1]), ins[2]))
        out = strip_dead(map_compound(c))
        kinds = out.count_by_kind()
        assert kinds.get("AOI21") == 1
        _exhaustive_equivalent(c, out, {"a": 1, "b": 1, "x": 1})

    def test_double_and_or_becomes_aoi22(self):
        c = Circuit("t")
        ins = [c.add_input(n) for n in "abxw"]
        c.set_output(
            "y", c.or2(c.and2(ins[0], ins[1]), c.and2(ins[2], ins[3]))
        )
        out = strip_dead(map_compound(c))
        assert out.count_by_kind().get("AOI22") == 1
        _exhaustive_equivalent(c, out, {k: 1 for k in "abxw"})

    def test_or_and_becomes_oai(self):
        c = Circuit("t")
        ins = [c.add_input(n) for n in "abx"]
        c.set_output("y", c.and2(c.or2(ins[0], ins[1]), ins[2]))
        out = strip_dead(map_compound(c))
        assert out.count_by_kind().get("OAI21") == 1
        _exhaustive_equivalent(c, out, {"a": 1, "b": 1, "x": 1})


class TestStripDead:
    def test_dead_gate_removed(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.not_(a)  # dead
        c.set_output("y", c.buf(a))
        out = strip_dead(c)
        assert out.count_by_kind().get("INV", 0) == 0

    def test_live_logic_kept(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("y", c.not_(a))
        out = strip_dead(c)
        assert out.count_by_kind() == {"INV": 1}


class TestBufferFanout:
    def test_high_fanout_net_gets_buffers(self):
        c = Circuit("t")
        a = c.add_input("a")
        x = c.not_(a)
        c.set_output_bus("y", [c.not_(x) for _ in range(30)])
        out = buffer_fanout(c, max_fanout=8)
        check_circuit(out)
        fan = out.fanout_counts()
        assert max(fan) <= 8
        assert out.count_by_kind().get("BUF", 0) >= 4
        for v in (0, 1):
            assert simulate(out, {"a": v})["y"] == simulate(c, {"a": v})["y"]

    def test_low_fanout_untouched(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("y", c.not_(a))
        out = buffer_fanout(c, max_fanout=8)
        assert out.count_by_kind().get("BUF", 0) == 0

    def test_high_fanout_input_buffered(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output_bus("y", [c.not_(a) for _ in range(20)])
        out = buffer_fanout(c, max_fanout=4)
        assert max(out.fanout_counts()) <= 4

    def test_invalid_limit_rejected(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("y", a)
        with pytest.raises(ValueError, match="max_fanout"):
            buffer_fanout(c, max_fanout=1)


class TestShareStructure:
    def test_duplicate_gate_shared(self):
        c = Circuit("t")
        a = c.add_input("a")
        b = c.add_input("b")
        x = c.and2(a, b)
        y = c.and2(a, b)
        c.set_output("p", c.not_(x))
        c.set_output("q", c.not_(y))
        out = strip_dead(share_structure(c))
        assert out.count_by_kind().get("AND2", 0) == 1
        _exhaustive_equivalent(c, out, {"a": 1, "b": 1})

    def test_commutative_operand_order_irrelevant(self):
        c = Circuit("t")
        a = c.add_input("a")
        b = c.add_input("b")
        c.set_output("p", c.xor2(a, b))
        c.set_output("q", c.xor2(b, a))
        out = strip_dead(share_structure(c))
        assert out.count_by_kind().get("XOR2", 0) == 1

    def test_degenerate_same_operand_gates_collapse(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("and_aa", c.and2(a, a))  # a
        c.set_output("xor_aa", c.xor2(a, a))  # 0
        c.set_output("xnor_aa", c.xnor2(a, a))  # 1
        c.set_output("nand_aa", c.nand2(a, a))  # ~a
        out = strip_dead(share_structure(c))
        kinds = out.count_by_kind()
        assert kinds.get("AND2", 0) == 0
        assert kinds.get("XOR2", 0) == 0
        assert kinds.get("XNOR2", 0) == 0
        assert kinds.get("NAND2", 0) == 0
        for v in (0, 1):
            got = simulate(out, {"a": v})
            assert got["and_aa"] == v
            assert got["xor_aa"] == 0
            assert got["xnor_aa"] == 1
            assert got["nand_aa"] == 1 - v

    def test_sharing_is_transitive_through_rebuilt_fanin(self):
        """Gates over shared fan-in merge too (one pass, topological)."""
        c = Circuit("t")
        a = c.add_input("a")
        b = c.add_input("b")
        c.set_output("p", c.or2(c.and2(a, b), a))
        c.set_output("q", c.or2(c.and2(b, a), a))
        out = strip_dead(share_structure(c))
        assert out.count_by_kind() == {"AND2": 1, "OR2": 1}
        _exhaustive_equivalent(c, out, {"a": 1, "b": 1})


class TestOptimizePipeline:
    @pytest.mark.parametrize("width", [4, 8])
    def test_adder_preserved_exhaustively(self, width):
        from repro.adders import build_ripple_adder

        c = build_ripple_adder(width)
        opt, stats = optimize(c)
        check_circuit(opt)
        assert stats.gates_before == c.num_gates
        for a in range(1 << width):
            for b in range(0, 1 << width, 3):
                assert simulate(opt, {"a": a, "b": b})["sum"] == a + b

    def test_optimize_reduces_kogge_stone(self):
        from repro.adders import build_kogge_stone_adder

        c = build_kogge_stone_adder(32)
        opt, stats = optimize(c, buffer_limit=None)
        assert opt.num_gates < c.num_gates
        assert stats.removed > 0

    def test_random_circuit_equivalence(self):
        """Optimizer preserves function on randomly-built DAGs."""
        gen = random.Random(7)
        for trial in range(12):
            c = Circuit(f"rand{trial}")
            nets = list(c.add_input_bus("x", 4))
            nets.append(c.const0())
            nets.append(c.const1())
            for _ in range(25):
                op = gen.choice(
                    ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2", "INV", "MUX2"]
                )
                arity = {"INV": 1, "MUX2": 3}.get(op, 2)
                ins = [gen.choice(nets) for _ in range(arity)]
                nets.append(c.add_gate(op, ins))
            c.set_output_bus("y", nets[-6:])
            opt, _ = optimize(c)
            check_circuit(opt)
            vals = list(range(16))
            assert (
                simulate_batch(c, {"x": vals})["y"]
                == simulate_batch(opt, {"x": vals})["y"]
            )

    def test_optimize_does_not_mutate_input(self):
        from repro.adders import build_ripple_adder

        c = build_ripple_adder(6)
        before = c.num_gates
        optimize(c)
        assert c.num_gates == before


# ---------------------------------------------------------------------------
# Grid-wide invariants: idempotence and simulate bit-identity
# ---------------------------------------------------------------------------

GRID_WIDTHS = (8, 16, 32, 64)


def _grid_points():
    from repro.engine.elab import grid_designs

    return [(name, width) for name in grid_designs() for width in GRID_WIDTHS]


@pytest.mark.parametrize("name,width", _grid_points())
def test_grid_optimize_idempotent_and_bit_identical(name, width):
    """AREA pipeline: optimize twice == optimize once, and simulation of
    the optimized netlist is bit-identical to the raw one on both
    backends (seeded random batch)."""
    from repro.engine.elab import build_design
    from repro.netlist.equiv import random_input_batch, structural_key

    raw = build_design(name, width)
    once, _ = optimize(raw, passes=AREA_PASSES, buffer_limit=None)
    twice, stats2 = optimize(once, passes=AREA_PASSES, buffer_limit=None)
    check_circuit(once)
    assert structural_key(once) == structural_key(twice), (name, width)
    assert stats2.removed == 0

    batch = random_input_batch(raw, 64, seed=width)
    want = simulate_batch(raw, batch, backend="reference")
    got_ref = simulate_batch(once, batch, backend="reference")
    got_vec = simulate_batch(once, batch, backend="vectorized")
    for bus in raw.output_buses:
        assert got_ref[bus] == want[bus], (name, width, bus)
        assert got_vec[bus] == want[bus], (name, width, bus)


def test_depth_levels_counts_unit_logic_depth():
    c = Circuit("t")
    a = c.add_input("a")
    x = a
    for _ in range(4):
        x = c.not_(x)
    c.set_output("y", x)
    c.set_output("zero", c.const0())  # constants are depth 0
    assert depth_levels(c) == 4


# ---------------------------------------------------------------------------
# Prove mode: equivalence-gated passes with rollback
# ---------------------------------------------------------------------------


class TestProveMode:
    def test_prove_records_every_pass(self):
        from repro.adders import build_carry_select_adder

        c = build_carry_select_adder(16)
        opt, stats = optimize(
            c, passes=AREA_PASSES, buffer_limit=None, prove=True
        )
        assert stats.proved
        assert stats.rollbacks == 0
        assert len(stats.pass_records) >= len(AREA_PASSES)
        names = {r.name for r in stats.pass_records}
        assert "share_structure" in names
        for record in stats.pass_records:
            assert record.proved is True and not record.rolled_back

    def test_unproved_run_reports_not_proved(self):
        from repro.adders import build_ripple_adder

        _, stats = optimize(build_ripple_adder(8))
        assert not stats.proved
        # Records are kept even without prove=True, but carry no verdict.
        assert stats.pass_records
        assert all(r.proved is None for r in stats.pass_records)

    def test_broken_pass_rolled_back_with_counterexample(self):
        """A miscompiling pass is refuted, rolled back, and reported."""
        from repro.adders import build_ripple_adder

        def bad_pass(circuit):
            # Rewrite every AND2 as OR2: wrong whenever inputs differ.
            out = Circuit(circuit.name)
            env = {}
            for name, nets in circuit.input_buses.items():
                env.update(zip(nets, out.add_input_bus(name, len(nets))))
            for gate in circuit.gates:
                kind = "OR2" if gate.kind == "AND2" else gate.kind
                if kind == "CONST0":
                    env[gate.output] = out.const0()
                elif kind == "CONST1":
                    env[gate.output] = out.const1()
                else:
                    env[gate.output] = out.add_gate(
                        kind, [env[n] for n in gate.inputs]
                    )
            for name, nets in circuit.output_buses.items():
                out.set_output_bus(name, [env[n] for n in nets])
            return out

        c = build_ripple_adder(8)
        opt, stats = optimize(
            c,
            passes=(bad_pass,),
            max_iterations=1,
            buffer_limit=None,
            prove=True,
        )
        assert stats.rollbacks == 1
        record = stats.pass_records[0]
        assert record.rolled_back and record.proved is False
        assert record.counterexample is not None
        # The rollback left the circuit untouched...
        for a in (0, 3, 255):
            assert simulate(opt, {"a": a, "b": 1})["sum"] == a + 1
        # ...and the recorded counterexample really refutes the bad pass.
        cex = record.counterexample
        broken = bad_pass(c)
        assert simulate(broken, cex)["sum"] != simulate(c, cex)["sum"]
        # stats.proved still holds: the refuted pass was rolled back.
        assert stats.proved
