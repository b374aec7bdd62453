"""Differential tests for the compiled (vectorized) simulation backend.

The reference interpreter (:func:`simulate_batch_reference`) is the
specification; the vectorized backend must be bit-identical to it on
randomized circuits covering every gate kind, on every design of the
adder grid, and on small batch sizes around the 64-vector limb boundary
(with and without the C transpose library).
Fault simulation is checked the same way: the concurrent bit-plane
implementation against one interpreted resimulation per fault.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cache import ElaborationCache
from repro.engine.elab import LINTABLE_DESIGNS, build_design
from repro.netlist import _accel
from repro.netlist.circuit import GATE_ARITY, Circuit, NetlistError
from repro.netlist.compile import (
    CompiledSim,
    circuit_fingerprint,
    compile_circuit,
    levelize,
)
from repro.netlist.faults import fault_coverage, fault_coverage_reference
from repro.netlist.simulate import simulate_batch, simulate_batch_reference

ALL_KINDS = sorted(GATE_ARITY)


@st.composite
def circuits(draw, max_gates=40):
    """A random combinational circuit using every available gate kind."""
    c = Circuit("rand")
    nets = []
    for i in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 8))
        nets.extend(c.add_input_bus(f"in{i}", width))
    for _ in range(draw(st.integers(1, max_gates))):
        kind = draw(st.sampled_from(ALL_KINDS))
        picks = st.integers(0, len(nets) - 1)
        ins = [nets[draw(picks)] for _ in range(GATE_ARITY[kind])]
        nets.append(c.add_gate(kind, ins))
    for i in range(draw(st.integers(1, 2))):
        width = draw(st.integers(1, 6))
        picks = st.integers(0, len(nets) - 1)
        c.set_output_bus(f"out{i}", [nets[draw(picks)] for _ in range(width)])
    return c


def _random_batch(circuit, num_vectors, rng):
    return {
        name: [rng.getrandbits(len(nets)) for _ in range(num_vectors)]
        for name, nets in circuit.input_buses.items()
    }


@settings(max_examples=80, deadline=None)
@given(circuit=circuits(), num_vectors=st.integers(0, 70), seed=st.integers(0, 2**32))
def test_compiled_matches_reference_on_random_circuits(circuit, num_vectors, seed):
    """Property: compiled output == interpreted output, any circuit/batch."""
    batch = _random_batch(circuit, num_vectors, random.Random(seed))
    assert simulate_batch(circuit, batch) == \
        simulate_batch_reference(circuit, batch)


#: The benchmark's simulated designs; vlcsa2@256 has >64-bit buses.
BENCH_DESIGNS = (
    ("vlcsa1", 64, 8),
    ("vlcsa2", 256, 12),
    ("designware", 64, None),
    ("kogge_stone", 64, None),
)


@functools.lru_cache(maxsize=None)
def _bench_circuit(design):
    return build_design(*design)


@pytest.mark.parametrize("num_vectors", [0, 1, 2, 15, 16, 17, 63, 64, 65])
def test_batch_size_edges(num_vectors, monkeypatch):
    """Small batches around the 64-vector limb boundary, on every
    benchmark design, with the C transposes and without them (patching
    ``load`` sends up to 64 vectors to the numpy byte transpose and 65
    to the masked-swap rounds; the kernel keeps the runner it was built
    with)."""
    for design in BENCH_DESIGNS:
        circuit = _bench_circuit(design)
        batch = _random_batch(circuit, num_vectors, random.Random(7))
        want = simulate_batch_reference(circuit, batch)
        assert simulate_batch(circuit, batch) == want, design
        with monkeypatch.context() as patch:
            patch.setattr(_accel, "load", lambda: None)
            assert simulate_batch(circuit, batch) == want, design


@pytest.mark.parametrize("design", sorted(LINTABLE_DESIGNS) + ["vlsa"])
@pytest.mark.parametrize("width", [16, 32, 64])
def test_adder_grid_bit_identity(design, width):
    """Acceptance: vectorized backend bit-identical on the full adder grid."""
    circuit = build_design(design, width, None)
    batch = _random_batch(circuit, 64, random.Random(width * 1000 + 1))
    assert simulate_batch(circuit, batch) == \
        simulate_batch_reference(circuit, batch)


@settings(max_examples=25, deadline=None)
@given(circuit=circuits(max_gates=15), num_vectors=st.integers(1, 70),
       seed=st.integers(0, 2**32))
def test_fault_coverage_matches_reference_on_random_circuits(
    circuit, num_vectors, seed
):
    """Concurrent bit-plane fault sim == one interpreted pass per fault."""
    batch = _random_batch(circuit, num_vectors, random.Random(seed))
    fast = fault_coverage(circuit, batch)
    slow = fault_coverage_reference(circuit, batch)
    assert (fast.total, fast.detected) == (slow.total, slow.detected)
    assert fast.undetected == slow.undetected


@pytest.mark.parametrize("observe", [None, ["sum"], ["err"], ["sum_rec"]])
def test_fault_coverage_matches_reference_on_adder(observe):
    """Fault equivalence on a real design, per observation point."""
    circuit = build_design("vlcsa1", 16, 4)
    batch = _random_batch(circuit, 48, random.Random(3))
    fast = fault_coverage(circuit, batch, observe=observe)
    slow = fault_coverage_reference(circuit, batch, observe=observe)
    assert (fast.total, fast.detected) == (slow.total, slow.detected)
    assert fast.undetected == slow.undetected


def test_fault_coverage_chunked_vector_dropping():
    """Vector sets spanning several detection chunks stay bit-identical
    (faults detected early are dropped before the later, larger chunks)."""
    circuit = build_design("vlcsa1", 16, 4)
    batch = _random_batch(circuit, 300, random.Random(11))
    fast = fault_coverage(circuit, batch)
    slow = fault_coverage_reference(circuit, batch)
    assert (fast.total, fast.detected) == (slow.total, slow.detected)
    assert fast.undetected == slow.undetected


def test_levelize_orders_gates_after_their_inputs():
    circuit = build_design("vlcsa2", 24, 6)
    gate_level, net_level = levelize(circuit)
    for index, gate in enumerate(circuit.gates):
        for net in gate.inputs:
            assert net_level[net] < net_level[gate.output]
        assert gate_level[index] == net_level[gate.output]


def test_instance_memo_reuses_compilation():
    circuit = build_design("scsa1", 16, 4)
    assert compile_circuit(circuit) is compile_circuit(circuit)


def test_identical_circuits_share_one_kernel():
    """Rebuilt-but-identical designs hit the content-hash cache."""
    cache = ElaborationCache(capacity=8)
    c1 = build_design("vlcsa1", 16, 4)
    c2 = build_design("vlcsa1", 16, 4)
    assert circuit_fingerprint(c1) == circuit_fingerprint(c2)
    s1 = compile_circuit(c1, cache=cache)
    s2 = compile_circuit(c2, cache=cache)
    assert s1 is not s2
    assert s1.kernel is s2.kernel


def test_mutated_circuit_recompiles():
    """Appending structure invalidates the instance memo and the key."""
    circuit = build_design("designware", 16, None)
    before = compile_circuit(circuit)
    key = circuit_fingerprint(circuit)
    a0 = circuit.input_buses["a"][0]
    circuit.set_output("extra", circuit.not_(a0))
    assert circuit_fingerprint(circuit) != key
    after = compile_circuit(circuit)
    assert after is not before
    assert isinstance(after, CompiledSim)
    out = simulate_batch(circuit, _random_batch(circuit, 20, random.Random(1)))
    assert out == simulate_batch_reference(
        circuit, _random_batch(circuit, 20, random.Random(1))
    )
    assert "extra" in out


def test_unknown_backend_rejected():
    circuit = build_design("designware", 8, None)
    for backend in ("verilator", "compiled"):
        with pytest.raises(NetlistError, match="backend"):
            simulate_batch(circuit, _random_batch(circuit, 2, random.Random(0)),
                           backend=backend)


@pytest.mark.parametrize("container", ["list", "int64", "float"])
@pytest.mark.parametrize("size", [1, 16, 1024])
def test_compiled_input_validation_matches_reference(size, container):
    """The vectorized path keeps the interpreter's error contract at every
    batch size: negative and non-integer values are rejected with the
    reference's error, not wrapped or truncated."""
    circuit = _bench_circuit(("kogge_stone", 64, None))
    with pytest.raises(NetlistError, match="mismatch"):
        simulate_batch(circuit, {"a": [1] * size})
    with pytest.raises(NetlistError, match="equal length"):
        simulate_batch(circuit, {"a": [1] * (size + 1), "b": [3] * size})
    bad_values = {
        "list": [[-1] * size, [1 << 64] * size],
        "int64": [np.full(size, -1, dtype=np.int64)],
        "float": [[1.5] * size, np.full(size, 1.5)],
    }[container]
    for bad in bad_values:
        batch = {"a": [0] * size, "b": bad}
        with pytest.raises(NetlistError, match="does not fit") as want:
            simulate_batch_reference(circuit, batch)
        for backend in ("auto", "vectorized"):
            with pytest.raises(NetlistError, match="does not fit") as got:
                simulate_batch(circuit, batch, backend=backend)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("width", [65, 100, 128])
def test_two_word_values_join_exactly_across_the_loop_boundary(width):
    """Two-word buses (``n + 1`` sums) join per vector up to
    ``_TWO_WORD_LOOP_MAX`` vectors and by the object-dtype masked OR
    above it; both give the exact ``lo | hi << 64`` ints."""
    from repro.netlist.compile import _TWO_WORD_LOOP_MAX, _ints_from_words

    rng = np.random.default_rng(width)
    edge = _TWO_WORD_LOOP_MAX
    for num_vectors in (1, edge - 1, edge, edge + 1, 2 * edge + 3):
        words = rng.integers(0, 1 << 64, size=(num_vectors, 2), dtype=np.uint64)
        words[:, 1] &= np.uint64((1 << (width - 64)) - 1)
        words[::3, 1] = 0  # high word zero: the plain low word
        want = [int(lo) + (int(hi) << 64) for lo, hi in words]
        got = _ints_from_words(words, width)
        assert got == want, num_vectors
        assert all(type(value) is int for value in got)
