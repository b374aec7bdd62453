"""Tests for the ROBDD engine (repro.netlist.bdd) and the equivalence proofs it backs."""

import itertools

import pytest

from repro.netlist.bdd import BDD, circuit_to_bdds, interleaved_order
from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.equiv import check_equivalent
from repro.netlist.simulate import simulate


class TestBddManager:
    def test_terminals(self):
        m = BDD()
        assert m.and_(1, 1) == 1
        assert m.and_(1, 0) == 0
        assert m.or_(0, 0) == 0
        assert m.not_(0) == 1

    def test_var_is_canonical(self):
        m = BDD()
        assert m.var(3) == m.var(3)
        assert m.var(3) != m.var(4)

    def test_reduction_eliminates_redundant_tests(self):
        m = BDD()
        x = m.var(0)
        assert m.ite(x, 1, 1) == 1  # both branches equal -> no node
        assert m.or_(x, m.not_(x)) == 1  # tautology collapses
        assert m.and_(x, m.not_(x)) == 0

    def test_boolean_identities(self):
        m = BDD()
        x, y, z = m.var(0), m.var(1), m.var(2)
        # De Morgan
        assert m.not_(m.and_(x, y)) == m.or_(m.not_(x), m.not_(y))
        # distribution
        assert m.and_(x, m.or_(y, z)) == m.or_(m.and_(x, y), m.and_(x, z))
        # xor definition
        assert m.xor(x, y) == m.or_(m.and_(x, m.not_(y)), m.and_(m.not_(x), y))
        # commutativity (canonicity makes it node equality)
        assert m.and_(x, y) == m.and_(y, x)

    def test_satisfy_one(self):
        m = BDD()
        x, y = m.var(0), m.var(1)
        f = m.and_(x, m.not_(y))
        assignment = m.satisfy_one(f)
        assert assignment == {0: 1, 1: 0}
        assert m.satisfy_one(0) is None
        assert m.satisfy_one(1) == {}

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            BDD().var(-1)


class TestCircuitToBdds:
    def test_every_gate_kind_has_semantics(self):
        """Each library cell's BDD agrees with simulation exhaustively."""
        from repro.netlist.circuit import GATE_ARITY

        for kind, arity in GATE_ARITY.items():
            if arity == 0:
                continue
            c = Circuit("t")
            ins = [c.add_input(f"i{j}") for j in range(arity)]
            c.set_output("y", c.add_gate(kind, ins))
            m = BDD()
            bdds = circuit_to_bdds(c, m)
            for combo in itertools.product((0, 1), repeat=arity):
                feed = {f"i{j}": v for j, v in enumerate(combo)}
                want = simulate(c, feed)["y"]
                # evaluate the BDD by restriction
                node = bdds["y"][0]
                order = interleaved_order(c)
                values = {order[net]: feed[c.net_name(net)]
                          for name, nets in c.input_buses.items()
                          for net in nets}
                got = _eval_bdd(m, node, values)
                assert got == want, (kind, combo)

    def test_constants(self):
        c = Circuit("t")
        c.add_input("a")
        c.set_output("zero", c.const0())
        c.set_output("one", c.const1())
        bdds = circuit_to_bdds(c, BDD())
        assert bdds["zero"] == [0]
        assert bdds["one"] == [1]


def _eval_bdd(manager, node, values):
    while node not in (0, 1):
        level, lo, hi = manager._nodes[node]
        node = hi if values.get(level, 0) else lo
    return node


class TestProveEquivalent:
    """Formal equivalence through ``check_equivalent``, whose proof stage
    runs on this engine (``sim_vectors=0`` goes straight to it)."""

    def test_all_conventional_adders_formally_equal(self):
        from repro.adders import ADDER_GENERATORS

        reference = ADDER_GENERATORS["ripple"](16)
        for name, gen in ADDER_GENERATORS.items():
            result = check_equivalent(reference, gen(16))
            assert result.equivalent, name

    def test_optimizer_soundness_formally(self):
        from repro.adders import build_kogge_stone_adder
        from repro.netlist.optimize import optimize

        raw = build_kogge_stone_adder(24)
        opt, _ = optimize(raw)
        assert check_equivalent(raw, opt, buses=[("sum", "sum")]).equivalent

    def test_speculative_adder_inequivalent_with_counterexample(self):
        from repro.adders import build_kogge_stone_adder
        from repro.core import build_scsa_adder

        scsa = build_scsa_adder(20, 5)
        ks = build_kogge_stone_adder(20)
        result = check_equivalent(scsa, ks, sim_vectors=0)
        assert not result.equivalent and result.method == "bdd"
        a = result.counterexample["a"]
        b = result.counterexample["b"]
        assert simulate(scsa, {"a": a, "b": b})["sum"] != a + b
        assert simulate(ks, {"a": a, "b": b})["sum"] == a + b

    def test_vlcsa_recovery_formally_exact(self):
        """The reliability guarantee as a theorem, not a sample."""
        from repro.adders import build_kogge_stone_adder
        from repro.core import build_vlcsa1, build_vlcsa2

        ks = build_kogge_stone_adder(24)
        for circuit in (build_vlcsa1(24, 6), build_vlcsa2(24, 6)):
            result = check_equivalent(circuit, ks, buses=[("sum_rec", "sum")])
            assert result.equivalent, circuit.name

    def test_verilog_roundtrip_formally_lossless(self):
        from repro.core import build_vlcsa1
        from repro.rtl import from_verilog, to_verilog

        c = build_vlcsa1(16, 4)
        c2 = from_verilog(to_verilog(c))
        assert check_equivalent(c, c2).equivalent

    def test_mismatched_interfaces_rejected(self):
        c1 = Circuit("x")
        a = c1.add_input_bus("a", 4)
        c1.set_output_bus("y", a)
        c2 = Circuit("z")
        b = c2.add_input_bus("a", 5)
        c2.set_output_bus("y", b)
        with pytest.raises(NetlistError, match="interfaces differ"):
            check_equivalent(c1, c2)

    def test_no_shared_buses_rejected(self):
        c1 = Circuit("x")
        a = c1.add_input_bus("a", 2)
        c1.set_output_bus("p", a)
        c2 = Circuit("z")
        b = c2.add_input_bus("a", 2)
        c2.set_output_bus("q", b)
        with pytest.raises(NetlistError, match="share no output"):
            check_equivalent(c1, c2)

    def test_mismatch_location_reported(self):
        c1 = Circuit("x")
        a = c1.add_input_bus("a", 3)
        c1.set_output_bus("y", a)
        c2 = Circuit("z")
        b = c2.add_input_bus("a", 3)
        flipped = [b[0], c2.not_(b[1]), b[2]]
        c2.set_output_bus("y", flipped)
        result = check_equivalent(c1, c2, sim_vectors=0)
        assert not result.equivalent and result.method == "bdd"
        assert result.mismatch == ("y", 1)


class TestScaling:
    def test_adder_output_bdds_stay_linear_under_interleaved_order(self):
        """The sum functions have linear-size BDDs under interleaving
        (intermediate prefix signals in the manager are bigger, which is
        why the count is taken from the output roots only)."""
        from repro.adders import build_kogge_stone_adder

        sizes = {}
        for width in (16, 32, 64):
            m = BDD()
            outputs = circuit_to_bdds(build_kogge_stone_adder(width), m)
            # the carry-out bit depends on all 2*width variables
            sizes[width] = m.count_nodes([outputs["sum"][-1]])
        # exactly 3 nodes per operand bit pair plus terminals
        for width, size in sizes.items():
            assert size == 3 * width + 1, sizes
        # (the union over all n+1 outputs is Theta(n^2): each bit is
        # linear in its own support; no blowup anywhere)
        m = BDD()
        outputs = circuit_to_bdds(build_kogge_stone_adder(32), m)
        assert m.count_nodes(outputs["sum"]) < 4 * 32 * 32
