"""Tests for the Ling and sparse Kogge-Stone adders."""


import pytest

from repro.adders.ling import build_ling_adder
from repro.adders.sparse import build_sparse_kogge_stone_adder
from repro.netlist.area import area
from repro.netlist.equiv import check_equivalent
from repro.netlist.simulate import simulate, simulate_batch
from repro.netlist.validate import check_circuit

from tests.conftest import random_pairs


class TestLing:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 6])
    def test_exhaustive_small(self, width):
        c = build_ling_adder(width)
        check_circuit(c)
        for a in range(1 << width):
            for b in range(1 << width):
                assert simulate(c, {"a": a, "b": b})["sum"] == a + b

    @pytest.mark.parametrize("width", [16, 33, 64])
    def test_random_large(self, width):
        c = build_ling_adder(width)
        pairs = random_pairs(width, 200, seed=width)
        out = simulate_batch(
            c, {"a": [x for x, _ in pairs], "b": [y for _, y in pairs]}
        )["sum"]
        for (x, y), s in zip(pairs, out):
            assert s == x + y

    def test_formally_equivalent_to_kogge_stone(self):
        from repro.adders import build_kogge_stone_adder

        result = check_equivalent(build_ling_adder(16), build_kogge_stone_adder(16))
        assert result.equivalent

    @pytest.mark.parametrize("network", ["brent_kung", "sklansky"])
    def test_alternative_prefix_topologies(self, network):
        c = build_ling_adder(20, network_name=network)
        for x, y in random_pairs(20, 120, seed=7):
            assert simulate(c, {"a": x, "b": y})["sum"] == x + y

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            build_ling_adder(0)


class TestSparseKoggeStone:
    @pytest.mark.parametrize("width,sparsity", [(8, 2), (8, 4), (12, 3), (16, 4), (17, 4), (20, 5)])
    def test_random(self, width, sparsity):
        c = build_sparse_kogge_stone_adder(width, sparsity)
        check_circuit(c)
        for x, y in random_pairs(width, 200, seed=sparsity):
            assert simulate(c, {"a": x, "b": y})["sum"] == x + y

    def test_sparsity_one_equals_dense(self):
        from repro.adders import build_kogge_stone_adder

        c = build_sparse_kogge_stone_adder(16, 1)
        result = check_equivalent(c, build_kogge_stone_adder(16))
        assert result.equivalent

    def test_formally_equivalent_to_kogge_stone(self):
        from repro.adders import build_kogge_stone_adder

        result = check_equivalent(
            build_sparse_kogge_stone_adder(16, 4), build_kogge_stone_adder(16)
        )
        assert result.equivalent

    def test_sparsity_cuts_area(self):
        from repro.adders import build_kogge_stone_adder

        dense = area(build_kogge_stone_adder(64))
        sparse = area(build_sparse_kogge_stone_adder(64, 4))
        assert sparse < 0.8 * dense

    def test_sparsity_costs_delay(self):
        from repro.adders import build_kogge_stone_adder
        from repro.netlist.timing import critical_delay

        assert critical_delay(
            build_sparse_kogge_stone_adder(64, 8)
        ) > critical_delay(build_kogge_stone_adder(64))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_sparse_kogge_stone_adder(0, 4)
        with pytest.raises(ValueError):
            build_sparse_kogge_stone_adder(16, 0)
