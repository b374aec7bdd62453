"""Differential and property tests for the vectorized limb backend.

Three cross-checked layers:

* **bit identity** — reference == vectorized over the full architecture
  grid and over the limb-boundary batch sizes (0/1/63/64/65/300/4096);
* **transpose-seam properties** — the pack/unpack limb transposes at
  their seams: bus widths 65 (the ``n+1`` sum bus) and 128-257 (values
  of three or more words, converted as byte records), one-limb batches,
  2**15 ± 1 vectors, and empty batches, checked against big-int masks
  built bit by bit;
* **C fast path** — the optional :mod:`repro.netlist._accel` library is
  cross-checked against the pure-numpy paths whenever it loads: its bus
  transposes against the SWAR rounds, against the numpy pack/unpack
  through slice and index-array row tables and against the reference
  interpreter, its plan evaluator against the generated numpy group
  schedule on a circuit with every gate kind, and every binding must
  refuse a wrong dtype, a strided array, a short buffer or a bad row
  table.  One ``run_batch`` makes three foreign calls: one pack call for
  every input bus, one plan evaluation and one unpack call for every
  output bus.  The one-limb byte transpose is checked against the same
  rounds, and ``REPRO_ACCEL=0`` must disable the library and leave the
  numpy runner in charge.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.elab import build_design, grid_designs
from repro.netlist import _accel
from repro.netlist.circuit import GATE_ARITY, Circuit, NetlistError
from repro.netlist.compile import (
    _VEC_KERNELS,
    _build_limb_runner,
    _bus_words,
    _gate_table,
    _pack_one_limb,
    _transpose64_blocks,
    _unpack_one_limb,
    compile_circuit,
    limb_count,
    limb_ones,
    pack_values_limbs,
    unpack_values_limbs,
)
from repro.netlist.simulate import (
    resolve_backend,
    simulate_batch,
    simulate_batch_reference,
)

_U64 = np.uint64

#: A batch size whose limb count (512) is far past one 64x64 block.
_BIG_BATCH = 1 << 15


def _random_batch(circuit, num_vectors, rng):
    return {
        name: [rng.getrandbits(len(nets)) for _ in range(num_vectors)]
        for name, nets in circuit.input_buses.items()
    }


def _circuit_of(design, width):
    built = build_design(design, width)
    return getattr(built, "circuit", built)


def _int_masks(values, width):
    """Big-int bit-plane masks, bit by bit: bit ``v`` of mask ``b`` is
    bit ``b`` of ``values[v]``."""
    masks = [0] * width
    for v, value in enumerate(values):
        for bit in range(width):
            if (value >> bit) & 1:
                masks[bit] |= 1 << v
    return masks


# ---------------------------------------------------------------------------
# Bit identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", grid_designs())
@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_three_way_identity_full_grid(design, width):
    """reference == vectorized == auto on every architecture/width."""
    circuit = _circuit_of(design, width)
    rng = random.Random(width * 1000003 + hash(design) % 1000)
    inputs = _random_batch(circuit, 65, rng)
    reference = simulate_batch_reference(circuit, inputs)
    assert simulate_batch(circuit, inputs, backend="vectorized") == reference
    assert simulate_batch(circuit, inputs) == reference


@pytest.mark.parametrize("num_vectors", [0, 1, 63, 64, 65, 300, 4096])
def test_three_way_identity_batch_edges(num_vectors):
    """Limb-boundary batch sizes on a speculative design."""
    circuit = _circuit_of("vlcsa1", 16)
    rng = random.Random(num_vectors)
    inputs = _random_batch(circuit, num_vectors, rng)
    vectorized = simulate_batch(circuit, inputs, backend="vectorized")
    assert simulate_batch_reference(circuit, inputs) == vectorized


def test_three_way_identity_large_batch_wide_design():
    """The benchmark point itself: designware n=64 at 4096 vectors."""
    circuit = _circuit_of("designware", 64)
    inputs = _random_batch(circuit, 4096, random.Random(3))
    vectorized = simulate_batch(circuit, inputs, backend="vectorized")
    assert simulate_batch_reference(circuit, inputs) == vectorized


def test_vectorized_does_not_mutate_inputs():
    circuit = _circuit_of("vlcsa1", 16)
    inputs = _random_batch(circuit, 130, random.Random(5))
    snapshot = {name: list(vals) for name, vals in inputs.items()}
    simulate_batch(circuit, inputs, backend="vectorized")
    assert inputs == snapshot


def test_auto_routes_by_batch_size():
    """Every batch size runs on the limb backend; the retired
    ``compiled`` name is rejected like any unknown one."""
    assert resolve_backend("auto") == "vectorized"
    assert resolve_backend("vectorized") == "vectorized"
    for name in ("compiled", "reference", "verilator"):
        with pytest.raises(NetlistError, match="backend"):
            resolve_backend(name)


# ---------------------------------------------------------------------------
# Transpose seams (property tests)
# ---------------------------------------------------------------------------


_SEAM_WIDTHS = [1, 63, 64, 65, 128, 129, 256, 257]


@settings(max_examples=40, deadline=None)
@given(
    width=st.sampled_from(_SEAM_WIDTHS),
    num_vectors=st.sampled_from([0, 1, 15, 16, 63, 64, 65, 130]),
    seed=st.integers(0, 2**32),
)
def test_limb_pack_unpack_roundtrip(width, num_vectors, seed):
    """pack_values_limbs o unpack_values_limbs is the identity.

    Width 65 exercises the two-word (n+1 sum bus) path and widths from
    128 on the record conversions; batches up to 64 vectors take the
    one-limb transposes.
    """
    rng = random.Random(seed)
    values = [rng.getrandbits(width) for _ in range(num_vectors)]
    rows = pack_values_limbs(values, width, "bus")
    assert rows.shape == (width, limb_count(num_vectors))
    assert unpack_values_limbs(rows, num_vectors) == values


@settings(max_examples=40, deadline=None)
@given(
    width=st.sampled_from(_SEAM_WIDTHS),
    num_vectors=st.sampled_from([1, 15, 16, 65]),
    seed=st.integers(0, 2**32),
)
def test_limb_and_int_paths_agree(width, num_vectors, seed):
    """The limb rows hold exactly the big-int masks, limb for limb."""
    rng = random.Random(seed)
    values = [rng.getrandbits(width) for _ in range(num_vectors)]
    rows = pack_values_limbs(values, width, "bus")
    masks = _int_masks(values, width)
    limbs = limb_count(num_vectors)
    for bit in range(width):
        packed = sum(int(rows[bit][k]) << (64 * k) for k in range(limbs))
        assert packed == masks[bit]


@pytest.mark.parametrize(
    "num_vectors", [_BIG_BATCH - 1, _BIG_BATCH, _BIG_BATCH + 1]
)
def test_block_boundary_roundtrip(num_vectors):
    """Hundreds of limbs, with and without a partial last limb, on a
    two-word bus and a five-word one."""
    rng = random.Random(num_vectors)
    for width in (65, 257):
        values = [rng.getrandbits(width) for _ in range(num_vectors)]
        rows = pack_values_limbs(values, width, "bus")
        assert unpack_values_limbs(rows, num_vectors) == values


def test_empty_batch_both_paths():
    assert pack_values_limbs([], 65, "bus").shape == (65, 0)
    assert pack_values_limbs([], 8, "bus").shape == (8, 0)
    assert unpack_values_limbs(np.empty((65, 0), dtype=_U64), 0) == []


def test_limb_pack_range_check_matches_int_path():
    """Out-of-range values raise the reference interpreter's error."""
    for values, width in (([3, 7, 9], 1), ([2**65], 65)):
        with pytest.raises(NetlistError, match=f"does not fit in {width}-bit"):
            pack_values_limbs(values, width, "bus")


def test_wide_bus_fast_path_range_check():
    """Oversized values on the >64-bit numpy fast path raise the same
    NetlistError as the scalar path (value and bus name included)."""
    from repro.netlist.circuit import NetlistError

    good = [1 << 64] * 40
    assert unpack_values_limbs(pack_values_limbs(good, 65, "wide"), 40) == good
    bad = list(good)
    bad[17] = 1 << 65
    with pytest.raises(NetlistError, match="wide"):
        pack_values_limbs(bad, 65, "wide")


# ---------------------------------------------------------------------------
# The vector plan
# ---------------------------------------------------------------------------


def test_plan_perm_and_undriven_invariants():
    circuit = _circuit_of("vlcsa1", 16)
    plan = compile_circuit(circuit).vector_plan()
    perm = plan.perm
    assert sorted(perm.tolist()) == list(range(circuit.num_nets))
    driven = {gate.output for gate in circuit.gates}
    for net in range(circuit.num_nets):
        if net in driven:
            assert perm[net] >= plan.num_undriven
        else:
            assert perm[net] < plan.num_undriven
    # Every driven row is written by exactly one group, the groups' rows
    # follow each other in schedule order, and each group's output rows
    # are one slice (the numpy runner writes them in place).
    written = []
    for group in plan.groups:
        out = group.out_idx.tolist()
        assert isinstance(group.out_sel, slice)
        assert out == list(range(group.out_sel.start, group.out_sel.stop))
        written.extend(out)
    assert written == list(range(plan.num_undriven, circuit.num_nets))


def test_groups_fuse_by_level_and_kind():
    circuit = _circuit_of("designware", 32)
    plan = compile_circuit(circuit).vector_plan()
    seen = set()
    for group in plan.groups:
        key = (group.level, group.kind)
        assert key not in seen  # one group per (level, kind)
        seen.add(key)
        for g in group.gates.tolist():
            gate = circuit.gates[g]
            assert gate.kind == group.kind
    assert len(seen) < circuit.num_gates  # fusion actually happened


def test_scratch_buffer_reused_across_batches():
    circuit = _circuit_of("vlcsa1", 16)
    sim = compile_circuit(circuit)
    rng = random.Random(1)
    a = _random_batch(circuit, 200, rng)
    b = _random_batch(circuit, 200, rng)
    V1, ones1, _ = sim.pack_inputs_limbs(a)
    first = V1.__array_interface__["data"][0]
    out_a = sim.run_batch(a, backend="vectorized")
    V2, ones2, _ = sim.pack_inputs_limbs(b)
    assert V2.__array_interface__["data"][0] == first  # same buffer
    out_b = sim.run_batch(b, backend="vectorized")
    assert out_a == simulate_batch_reference(circuit, a)
    assert out_b == simulate_batch_reference(circuit, b)


# ---------------------------------------------------------------------------
# The C fast path
# ---------------------------------------------------------------------------


def _accel_or_skip():
    lib = _accel.load()
    if lib is None:
        pytest.skip("no C compiler / accel disabled")
    return lib


def _identity(width):
    return _accel.RowTable([np.arange(width, dtype=np.int32)], width)


def test_accel_matches_numpy_transpose_when_available():
    """The C bus transposes of a 64-bit bus equal the numpy masked-swap
    rounds on the zero-padded, word-transposed blocks."""
    lib = _accel_or_skip()
    rng = np.random.default_rng(9)
    table = _identity(64)
    for nv in (1, 64, 100, 448, 1024):
        limbs = limb_count(nv)
        arr = rng.integers(0, 1 << 64, size=nv, dtype=np.uint64)
        padded = np.zeros(limbs * 64, dtype=np.uint64)
        padded[:nv] = arr
        expect = _transpose64_blocks(np.ascontiguousarray(padded.reshape(limbs, 64).T))
        got = np.empty((64, limbs), dtype=np.uint64)
        lib.pack_buses(arr, got, table, nv)
        assert np.array_equal(got, expect)
        planes = rng.integers(0, 1 << 64, size=(64, limbs), dtype=np.uint64)
        words = _transpose64_blocks(planes.copy()).T.reshape(-1)[:nv]
        out = np.empty(nv, dtype=np.uint64)
        assert lib.unpack_buses(planes, table, out, nv) is out
        assert np.array_equal(out, words)


def test_accel_pack_unpack_roundtrip_when_available():
    lib = _accel_or_skip()
    rng = np.random.default_rng(10)
    table = _identity(64)
    for nv in (1, 63, 64, 65, 200):
        arr = rng.integers(0, 1 << 63, size=nv, dtype=np.uint64)
        rows = np.empty((64, limb_count(nv)), dtype=np.uint64)
        lib.pack_buses(arr, rows, table, nv)
        # tail planes of the last limb must be zero-filled
        tail = ~limb_ones(nv)
        assert not np.any(rows & tail)
        out = np.zeros(nv, dtype=np.uint64)
        lib.unpack_buses(rows, table, out, nv)
        assert np.array_equal(out, arr)


_BUS_WIDTHS = [1, 63, 64, 65, 127, 128, 129, 257]
_BUS_VECTORS = [0, 1, 63, 64, 65, 1000]


def _bus_rows(width, num_nets, contiguous, rng):
    """The rows of a ``width``-bit bus in a ``num_nets``-row array: one
    ascending run (a slice selector) or scattered in random order."""
    if contiguous:
        rows = np.arange(3, 3 + width)
        return rows, slice(3, 3 + width)
    rows = rng.permutation(num_nets)[:width]
    return rows, rows


@pytest.mark.parametrize("contiguous", [True, False], ids=["slice", "index"])
@pytest.mark.parametrize("num_vectors", _BUS_VECTORS)
@pytest.mark.parametrize("width", _BUS_WIDTHS)
def test_bus_bindings_match_numpy_path(width, num_vectors, contiguous, monkeypatch):
    """``pack_buses``/``unpack_buses`` through a one-bus row table write
    and read exactly what the numpy path stores and gathers through the
    bus's selector; every other row of ``V`` is left alone."""
    lib = _accel_or_skip()
    rng = np.random.default_rng(width * 7919 + num_vectors)
    pyrng = random.Random(width * 7919 + num_vectors)
    values = [pyrng.getrandbits(width) for _ in range(num_vectors)]
    num_nets = width + 9
    rows, sel = _bus_rows(width, num_nets, contiguous, rng)
    table = _accel.RowTable([rows.astype(np.int32)], num_nets)
    limbs = limb_count(num_vectors)
    garbage = rng.integers(0, 1 << 64, size=(num_nets, limbs), dtype=np.uint64)
    V_c, V_np = garbage.copy(), garbage.copy()
    lib.pack_buses(_bus_words(values, width, "bus").reshape(-1), V_c, table, num_vectors)
    assert unpack_values_limbs(V_c, num_vectors, table) == [values]
    monkeypatch.setattr(_accel, "load", lambda: None)
    V_np[sel] = pack_values_limbs(values, width, "bus")
    assert np.array_equal(V_c, V_np)
    assert unpack_values_limbs(V_np[sel], num_vectors) == values
    assert unpack_values_limbs(V_np, num_vectors, table) == [values]


@pytest.mark.parametrize("num_vectors", [0, 1, 64, 65, 1000])
def test_multi_bus_table_matches_numpy_path(num_vectors, monkeypatch):
    """One ``pack_buses``/``unpack_buses`` call over buses of every word
    count, their rows interleaved in one limb array, writes and reads
    what the numpy path stores and gathers bus by bus."""
    lib = _accel_or_skip()
    widths = [257, 1, 65, 64, 129, 3]
    rng = np.random.default_rng(num_vectors)
    pyrng = random.Random(num_vectors)
    num_nets = sum(widths) + 5
    order = rng.permutation(num_nets)
    buses, start = [], 0
    for width in widths:
        buses.append(order[start : start + width].astype(np.int32))
        start += width
    table = _accel.RowTable(buses, num_nets)
    assert table.widths == tuple(widths) and table.words == 5 + 1 + 2 + 1 + 3 + 1
    values = [[pyrng.getrandbits(w) for _ in range(num_vectors)] for w in widths]
    limbs = limb_count(num_vectors)
    garbage = rng.integers(0, 1 << 64, size=(num_nets, limbs), dtype=np.uint64)
    V_c, V_np = garbage.copy(), garbage.copy()
    words = np.concatenate(
        [_bus_words(v, w, "bus") for v, w in zip(values, widths)], axis=None
    )
    lib.pack_buses(words, V_c, table, num_vectors)
    assert unpack_values_limbs(V_c, num_vectors, table) == values
    monkeypatch.setattr(_accel, "load", lambda: None)
    for bus, v, w in zip(table.buses(), values, widths):
        V_np[bus] = pack_values_limbs(v, w, "bus")
    assert np.array_equal(V_c, V_np)
    assert unpack_values_limbs(V_np, num_vectors, table) == values


def _bus_circuit(width):
    """One ``width``-bit input bus ``a``; output ``y`` buffers it bit for
    bit (rows in order, a slice) and ``r`` inverts it in reverse bit
    order (scattered rows, an index array)."""
    circuit = Circuit(f"bus{width}")
    a = circuit.add_input_bus("a", width)
    y = [circuit.buf(net) for net in a]
    r = [circuit.not_(net) for net in a]
    circuit.set_output_bus("y", y)
    circuit.set_output_bus("r", r[::-1])
    return circuit


@pytest.mark.parametrize("accel", [True, False], ids=["c", "numpy"])
@pytest.mark.parametrize("num_vectors", _BUS_VECTORS)
@pytest.mark.parametrize("width", _BUS_WIDTHS)
def test_bus_bindings_match_reference(width, num_vectors, accel, monkeypatch):
    """Whole batches through the bus transposes equal the reference
    interpreter, on both kinds of row table, with and without the
    library."""
    if accel:
        _accel_or_skip()
    else:
        monkeypatch.setattr(_accel, "load", lambda: None)
    circuit = _bus_circuit(width)
    sim = compile_circuit(circuit)
    assert isinstance(sim._out_sels["y"], slice)
    assert isinstance(sim._out_sels["r"], slice) == (width == 1)
    inputs = _random_batch(circuit, num_vectors, random.Random(width + num_vectors))
    assert sim.run_batch(inputs) == simulate_batch_reference(circuit, inputs)


@pytest.mark.parametrize("width", [1, 64, 65, 129, 257])
@pytest.mark.parametrize("accel", [True, False], ids=["c", "numpy"])
def test_bus_values_refused_like_reference(width, accel, monkeypatch):
    """Out-of-range, negative and float values raise the reference's
    ``NetlistError``, naming the first offending value in vector order,
    with and without the library."""
    if accel:
        _accel_or_skip()
    else:
        monkeypatch.setattr(_accel, "load", lambda: None)
    circuit = _bus_circuit(width)
    top = (1 << width) - 1
    for bad in ([top, 1 << width, -1], [0, -1, 1.5], [1, 1.5, 1 << width],
                [top, top, 1 << (width + 64)], [2.0, 0]):
        inputs = {"a": bad}
        with pytest.raises(NetlistError) as want:
            simulate_batch_reference(circuit, inputs)
        with pytest.raises(NetlistError) as got:
            simulate_batch(circuit, inputs)
        assert str(got.value) == str(want.value)


_BENCH_DESIGNS = [("vlcsa1", 64, 8), ("vlcsa2", 256, 12), ("designware", 64, None),
                  ("kogge_stone", 64, None)]


@pytest.mark.parametrize("width", [129, 257])
@pytest.mark.parametrize("accel", [True, False], ids=["c", "numpy"])
def test_wide_bus_integer_kinds_match_reference(width, accel, monkeypatch):
    """On a bus of three or more words, which ``int.to_bytes`` records
    pack, a numpy integer and ``True`` simulate as the reference does."""
    if accel:
        _accel_or_skip()
    else:
        monkeypatch.setattr(_accel, "load", lambda: None)
    circuit = _bus_circuit(width)
    for good in ([(1 << width) - 1, np.int64(5)], [True, 7], [np.uint64(1 << 63)]):
        inputs = {"a": good}
        assert simulate_batch(circuit, inputs) == simulate_batch_reference(circuit, inputs)


@pytest.mark.parametrize("num_vectors", [1, 16])
@pytest.mark.parametrize("design", _BENCH_DESIGNS, ids=lambda d: d[0])
def test_run_batch_makes_one_foreign_call_per_bus(design, num_vectors, monkeypatch):
    """With the library, one ``run_batch`` is three foreign calls: one
    pack call for every input bus, one plan evaluation and one unpack
    call for every output bus (the name predates the per-side calls)."""
    lib = _accel_or_skip()
    built = build_design(*design)
    circuit = getattr(built, "circuit", built)
    sim = compile_circuit(circuit)
    calls = []
    for attr in ("_pack_buses", "_eval", "_unpack_buses"):
        real = getattr(lib, attr)

        def counted(*args, _real=real, _attr=attr):
            calls.append(_attr)
            return _real(*args)

        monkeypatch.setattr(lib, attr, counted)
    inputs = _random_batch(circuit, num_vectors, random.Random(num_vectors))
    assert sim.run_batch(inputs) == simulate_batch_reference(circuit, inputs)
    assert calls == ["_pack_buses", "_eval", "_unpack_buses"]


def _every_kind_circuit(seed=11, gates=300):
    """A random netlist that uses every gate kind the limb backend runs,
    the constants included, over several logic levels."""
    rng = random.Random(seed)
    circuit = Circuit("every_kind")
    nets = circuit.add_input_bus("a", 6) + circuit.add_input_bus("b", 5)
    kinds = sorted(_VEC_KERNELS)
    for index in range(gates):
        kind = kinds[index % len(kinds)]
        inputs = [rng.choice(nets) for _ in range(GATE_ARITY[kind])]
        nets.append(circuit.add_gate(kind, inputs))
    circuit.set_output_bus("y", nets[-16:])
    return circuit


def test_plan_kinds_cover_the_numpy_kernels():
    assert sorted(_accel.PLAN_KINDS) == sorted(_VEC_KERNELS)
    assert len(set(_accel.PLAN_KINDS)) == len(_accel.PLAN_KINDS)


@pytest.mark.parametrize("num_vectors", [1, 2, 63, 64, 65, 1000])
def test_c_plan_runner_matches_numpy_runner(num_vectors):
    """The C evaluator writes the numpy schedule's limb array bit for
    bit, and leaves every row's bits past the batch zero."""
    _accel_or_skip()
    circuit = _every_kind_circuit()
    assert {g.kind for g in circuit.gates} == set(_VEC_KERNELS)
    sim = compile_circuit(circuit)
    assert sim.kernel.runner == "c"
    inputs = _random_batch(circuit, num_vectors, random.Random(num_vectors))
    V, ones, _ = sim.pack_inputs_limbs(inputs)
    expect = _build_limb_runner(sim.vector_plan())(V.copy(), ones)
    got = sim.eval_limbs(V, ones)
    assert got is V
    assert np.array_equal(got, expect)
    assert not np.any(got & ~ones)
    outputs = sim.unpack_outputs(V, num_vectors)
    assert outputs == simulate_batch_reference(circuit, inputs)


@pytest.mark.parametrize(
    "design", [("vlcsa1", 64, 8), ("vlcsa2", 256, 12), ("designware", 64, None),
               ("kogge_stone", 64, None)],
)
def test_c_plan_runner_on_benchmark_designs(design):
    """The four benchmark designs at 1, 16 and 1024 vectors against the
    reference interpreter, on whichever runner the kernel holds."""
    built = build_design(*design)
    circuit = getattr(built, "circuit", built)
    runner = "c" if _accel.load() is not None else "numpy"
    assert compile_circuit(circuit).kernel.runner == runner
    rng = random.Random(design[1])
    for num_vectors in (1, 16, 1024):
        inputs = _random_batch(circuit, num_vectors, rng)
        assert simulate_batch(circuit, inputs) == simulate_batch_reference(
            circuit, inputs
        ), (design, num_vectors)


def test_c_plan_runner_refuses_bad_arrays():
    """A wrong dtype, a strided, a short or a mis-shaped ``V`` or
    ``ones`` raises before the C call can read or write out of bounds."""
    lib = _accel_or_skip()
    circuit = _every_kind_circuit(gates=40)
    sim = compile_circuit(circuit)
    V, ones, _ = sim.pack_inputs_limbs(_random_batch(circuit, 130, random.Random(1)))
    run = sim.kernel.limb_runner
    with pytest.raises(TypeError):
        run(V.astype(np.int64), ones)
    with pytest.raises(TypeError):
        run(V, ones.astype(np.uint32))
    with pytest.raises(ValueError):
        run(V[:-1], ones)  # one net row short
    with pytest.raises(ValueError):
        run(V[:, :1], ones)  # strided, and one limb short
    with pytest.raises(ValueError):
        run(V, ones[:1])
    with pytest.raises(ValueError):
        run(V.reshape(-1), ones)
    frozen = V.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        run(frozen, ones)  # the C code would write through a read-only view
    ops, pins = _gate_table(sim.vector_plan(), circuit.num_gates)
    bad = pins.copy()
    bad[0, 1] = circuit.num_nets
    with pytest.raises(ValueError):
        lib.plan_runner(ops, bad, circuit.num_nets)
    with pytest.raises(TypeError):
        lib.plan_runner(ops.astype(np.int64), pins, circuit.num_nets)


_ALL = (1 << 64) - 1


def _force_runners(circuit):
    """The plan's numpy runner and, with the library, its C runner."""
    plan = compile_circuit(circuit).vector_plan()
    runners = {"numpy": _build_limb_runner(plan)}
    lib = _accel.load()
    if lib is not None:
        ops, pins = _gate_table(plan, circuit.num_gates)
        runners["c"] = lib.plan_runner(ops, pins, circuit.num_nets)
    return plan, runners


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gates=st.integers(1, 120),
       limbs=st.integers(1, 5), extra=st.integers(0, 12))
def test_forced_runners_agree(seed, gates, limbs, extra):
    """With a force table, the C and numpy runners write the same limb
    array bit for bit, and every forced row holds ``(row & keep) | set``
    bits: SA0 and SA1 lanes on one row, an output row, and the first and
    last table positions among the forced rows."""
    lib = _accel_or_skip()
    circuit = _every_kind_circuit(seed, gates)
    plan, runners = _force_runners(circuit)
    assert lib is not None and set(runners) == {"numpy", "c"}
    rng = np.random.default_rng(seed)
    first, last = plan.num_undriven, circuit.num_nets - 1
    output_row = int(plan.perm[circuit.gates[-1].output])
    picks = {first, last, output_row}
    picks.update(rng.integers(first, last + 1, size=extra).tolist())
    rows = np.array(sorted(picks), dtype=np.int64)
    keep = rng.integers(0, 1 << 64, size=rows.size, dtype=np.uint64)
    set_ = rng.integers(0, 1 << 64, size=rows.size, dtype=np.uint64)
    keep[0], set_[0] = _U64(_ALL ^ 1), _U64(2)  # lane 0 stuck at 0, lane 1 at 1
    V = rng.integers(0, 1 << 64, size=(circuit.num_nets, limbs), dtype=np.uint64)
    ones = np.full(limbs, _ALL, dtype=np.uint64)
    got = runners["c"](V.copy(), ones, (rows, keep, set_))
    want = runners["numpy"](V.copy(), ones, (rows, keep, set_))
    assert np.array_equal(got, want)
    assert not np.any(got[rows] & ~(keep | set_)[:, None])
    assert np.array_equal(got[rows] & set_[:, None], np.broadcast_to(set_[:, None], got[rows].shape))
    assert not np.any(got[rows[0]] & _U64(1)) and np.all(got[rows[0]] & _U64(2))
    # No force and an empty force are the plain forward pass.
    plain = runners["c"](V.copy(), ones)
    empty = (rows[:0], keep[:0], set_[:0])
    for runner in runners.values():
        assert np.array_equal(runner(V.copy(), ones, empty), plain)
        assert np.array_equal(runner(V.copy(), ones), plain)


def test_forced_runners_refuse_bad_rows():
    """An unsorted, duplicated, out-of-range or undriven force row, or
    masks of another dtype or length, raise before the runner writes:
    the limb array and the rows around it stay as they were."""
    circuit = _every_kind_circuit(gates=40)
    plan, runners = _force_runners(circuit)
    first, num_nets = plan.num_undriven, circuit.num_nets
    rng = np.random.default_rng(3)
    guarded = rng.integers(0, 1 << 64, size=(num_nets + 2, 3), dtype=np.uint64)
    V = guarded[1:-1]  # C-contiguous, with a guard row on either side
    ones = np.full(3, _ALL, dtype=np.uint64)

    def masks(count):
        return np.zeros(count, dtype=np.uint64), np.full(count, _ALL, dtype=np.uint64)

    bad_rows = {
        "unsorted": [first + 2, first + 1],
        "duplicated": [first + 1, first + 1],
        "out of range": [first, num_nets],
        "undriven": [first - 1, first],
        "negative": [-1],
    }
    for name, runner in runners.items():
        before = guarded.copy()
        for case, rows in bad_rows.items():
            with pytest.raises(ValueError):
                runner(V, ones, (np.array(rows), *masks(len(rows))))
            assert np.array_equal(guarded, before), (name, case)
        keep, set_ = masks(2)
        rows = np.array([first, num_nets - 1])
        with pytest.raises(TypeError):
            runner(V, ones, (rows.astype(float), keep, set_))
        with pytest.raises(TypeError):
            runner(V, ones, (rows, keep.astype(np.int64), set_))
        with pytest.raises(ValueError):
            runner(V, ones, (rows, keep, set_[:1]))
        assert np.array_equal(guarded, before), name
        # The last table position is in bounds: only the guards stay.
        runner(V, ones, (rows, keep, set_))
        assert np.array_equal(guarded[[0, -1]], before[[0, -1]]), name
        assert np.all(V[num_nets - 1] == _U64(_ALL))


def test_transpose_bindings_refuse_bad_arrays():
    """Both bus bindings raise on a wrong dtype, a strided array, a short
    buffer, a bad vector count or a bad row table instead of reading or
    writing past it."""
    lib = _accel_or_skip()
    table = _accel.RowTable([np.arange(64, dtype=np.int32)[::-1].copy()], 64)
    words = np.arange(100, dtype=np.uint64)
    V = np.zeros((64, 2), dtype=np.uint64)
    out = np.zeros(100, dtype=np.uint64)
    # pack_buses(words, V, table, num_vectors)
    with pytest.raises(TypeError):
        lib.pack_buses(words.astype(np.int64), V, table, 100)
    with pytest.raises(ValueError):
        lib.pack_buses(np.arange(200, dtype=np.uint64)[::2], V, table, 100)
    with pytest.raises(ValueError):
        lib.pack_buses(words, np.zeros((64, 4), dtype=np.uint64)[:, ::2], table, 100)
    with pytest.raises(ValueError):
        lib.pack_buses(words.reshape(100, 1), V, table, 100)  # 2-D words
    with pytest.raises(ValueError):
        lib.pack_buses(words, V, table, 99)  # more words than the vectors take
    with pytest.raises(ValueError):
        lib.pack_buses(words[:99], V, table, 100)  # short words
    with pytest.raises(ValueError):
        lib.pack_buses(words, np.zeros((64, 1), dtype=np.uint64), table, 100)  # short V
    with pytest.raises(ValueError):
        lib.pack_buses(words, np.zeros((63, 2), dtype=np.uint64), table, 100)  # few rows
    with pytest.raises(ValueError):
        lib.pack_buses(words, V, table, -1)
    frozen_V = V.copy()
    frozen_V.flags.writeable = False
    with pytest.raises(ValueError):
        lib.pack_buses(words, frozen_V, table, 100)  # read-only output
    with pytest.raises(TypeError):
        lib.pack_buses(words, V, np.arange(64, dtype=np.int32), 100)  # not a RowTable
    # unpack_buses(V, table, out, num_vectors)
    with pytest.raises(TypeError):
        lib.unpack_buses(V, table, out.astype(np.float64), 100)
    with pytest.raises(ValueError):
        lib.unpack_buses(np.zeros((64, 4), dtype=np.uint64)[:, ::2], table, out, 100)
    with pytest.raises(ValueError):
        lib.unpack_buses(V, table, np.zeros(200, dtype=np.uint64)[::2], 100)
    with pytest.raises(ValueError):
        lib.unpack_buses(V, table, np.zeros(101, dtype=np.uint64), 100)  # out too long
    with pytest.raises(ValueError):
        lib.unpack_buses(V[:, :1].copy(), table, out, 100)  # short planes
    with pytest.raises(ValueError):
        lib.unpack_buses(V[:63].copy(), table, out, 100)  # few rows
    frozen = out.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        lib.unpack_buses(V, table, frozen, 100)  # read-only output
    # Row tables: out of range, negative, wrong dtype or shape, not a list.
    with pytest.raises(ValueError):
        _accel.RowTable([np.array([0, 64], dtype=np.int32)], 64)
    with pytest.raises(ValueError):
        _accel.RowTable([np.arange(3, dtype=np.int32), np.array([-1], dtype=np.int32)], 64)
    with pytest.raises(TypeError):
        _accel.RowTable([np.arange(64)], 64)
    with pytest.raises(ValueError):
        _accel.RowTable([np.zeros((8, 8), dtype=np.int32)], 64)
    with pytest.raises(TypeError):
        _accel.RowTable(np.arange(64, dtype=np.int32), 64)  # one bus, not in a list
    wide = _accel.RowTable([np.arange(100, dtype=np.int32)], 128)
    with pytest.raises(ValueError):
        lib.pack_buses(words, np.zeros((128, 2), dtype=np.uint64), wide, 100)  # 1 word, needs 2
    with pytest.raises(ValueError):
        lib.unpack_buses(np.zeros((128, 2), dtype=np.uint64), wide, out, 100)
    with pytest.raises(ValueError):
        lib.pack_buses(words, np.zeros((65, 2), dtype=np.uint64), table, 100)  # other net count
    # A table is a private copy, and read-only.
    source = np.arange(64, dtype=np.int32)
    kept = _accel.RowTable([source], 64)
    source[0] = 10**6
    assert kept.rows[0] == 0 and kept.buses()[0][0] == 0
    with pytest.raises(ValueError):
        kept.rows[0] = 10**6
    # The well-formed calls still work, read-only input included.
    words.flags.writeable = False
    lib.pack_buses(words, V, table, 100)
    lib.unpack_buses(V, table, out, 100)
    assert np.array_equal(out, words)


@pytest.mark.parametrize("num_vectors", [1, 2, 15, 16, 17, 63, 64])
def test_one_limb_byte_transpose_matches_swap_rounds(num_vectors):
    """The numpy fallback's one-limb pack/unpack equal the masked-swap
    rounds on the zero-padded block, and invert each other."""
    rng = np.random.default_rng(num_vectors)
    arr = rng.integers(0, 1 << 64, size=num_vectors, dtype=np.uint64)
    block = np.zeros((64, 1), dtype=np.uint64)
    block[:num_vectors, 0] = arr
    expect = _transpose64_blocks(block)
    planes = _pack_one_limb(arr, num_vectors)
    assert planes.shape == (64, 1)
    assert np.array_equal(planes, expect)
    assert np.array_equal(_unpack_one_limb(planes, num_vectors), arr)
    # A partial plane stack (a sub-64-bit bus) unpacks to the low bits.
    low = _unpack_one_limb(planes[:40], num_vectors)
    assert np.array_equal(low, arr & np.uint64((1 << 40) - 1))


def test_accel_env_gate_disables_fast_path():
    """REPRO_ACCEL=0 must force load() to None in a fresh process."""
    code = (
        "from repro.netlist import _accel; "
        "import sys; sys.exit(0 if _accel.load() is None else 1)"
    )
    env = dict(os.environ, REPRO_ACCEL="0")
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_load_waits_for_a_build_in_progress(monkeypatch, tmp_path):
    """Threads racing the first ``load()`` all get the library: none may
    read ``None`` mid-build, or a kernel compiled then would keep the
    numpy runner for the life of the process."""
    import threading
    import time

    _accel_or_skip()
    real_build = _accel._build

    def slow_build(source, out_path):
        time.sleep(0.2)
        return real_build(source, out_path)

    monkeypatch.setattr(_accel, "_build", slow_build)
    monkeypatch.setattr(_accel, "_LIB", None)
    monkeypatch.setattr(_accel, "_TRIED", False)
    monkeypatch.setenv("REPRO_ACCEL_CACHE", str(tmp_path))
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(_accel.load()))
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    assert results[0] is not None
    assert all(lib is results[0] for lib in results)


def test_vectorized_identity_without_accel():
    """The pure-numpy fallback is bit-identical too (fresh process with
    the accel gated off runs a vectorized-vs-reference cross-check)."""
    code = """
import random
from repro.engine.elab import build_design
from repro.netlist.simulate import simulate_batch, simulate_batch_reference
built = build_design("vlcsa1", 16)
c = getattr(built, "circuit", built)
rng = random.Random(2)
for count in (1, 16, 130):
    inputs = {n: [rng.getrandbits(len(b)) for _ in range(count)]
              for n, b in c.input_buses.items()}
    a = simulate_batch_reference(c, inputs)
    b = simulate_batch(c, inputs, backend="vectorized")
    assert a == b
from repro.netlist import _accel
from repro.netlist.compile import compile_circuit
assert _accel.load() is None
kernel = compile_circuit(c).kernel
assert kernel.runner == "numpy"
assert kernel.limb_runner.__name__ == "_run"  # the generated numpy schedule
"""
    env = dict(os.environ, REPRO_ACCEL="0")
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()


# ---------------------------------------------------------------------------
# Downstream consumers
# ---------------------------------------------------------------------------


def test_fault_coverage_backend_parity(monkeypatch):
    """Fault verdicts are identical on the C runner and on the numpy
    runner, and equal the per-fault reference.  The numpy side compiles
    a fresh circuit into a private cache while the library is patched
    away, so its kernel really holds the numpy runner."""
    from repro.engine.cache import ElaborationCache
    from repro.netlist.faults import fault_coverage, fault_coverage_reference

    circuit = _circuit_of("vlcsa1", 16)
    inputs = _random_batch(circuit, 90, random.Random(8))
    with_accel = fault_coverage(circuit, inputs)
    monkeypatch.setattr(_accel, "load", lambda: None)
    fresh = _circuit_of("vlcsa1", 16)
    assert compile_circuit(fresh, cache=ElaborationCache(capacity=1)).kernel.runner == "numpy"
    without = fault_coverage(fresh, inputs)
    reference = fault_coverage_reference(circuit, inputs)
    for report in (with_accel, without):
        assert report.total == reference.total
        assert report.detected == reference.detected
        assert report.undetected == reference.undetected


def test_fault_coverage_is_one_plan_call_per_group_and_chunk(monkeypatch):
    """With the library, fault simulation is the C plan evaluator alone:
    after the golden pass, one ``_eval`` call per (fault group, vector
    chunk), counted from the reference verdicts on each chunk's vector
    prefix, and no gate evaluated through ``GATE_EVAL``."""
    from repro.netlist import faults

    lib = _accel_or_skip()
    circuit = _circuit_of("vlcsa1", 16)
    assert compile_circuit(circuit).kernel.runner == "c"
    num_vectors = 200
    inputs = _random_batch(circuit, num_vectors, random.Random(12))
    ones = (1 << num_vectors) - 1
    masks = {}
    for name, nets in circuit.input_buses.items():
        masks.update(zip(nets, _int_masks(inputs[name], len(nets))))
    golden = faults.values_with_fault(circuit, masks, ones, None)
    live = [
        f for f in faults.enumerate_faults(circuit)
        if golden[f.net] != (ones if f.stuck_at else 0)
    ]
    groups, lo, chunk = 0, 0, faults._CHUNK_VECTORS
    left = live
    while lo < num_vectors and left:
        groups += -(-len(left) // 64)
        lo, chunk = min(lo + chunk, num_vectors), chunk * 2
        prefix = {name: values[:lo] for name, values in inputs.items()}
        left = faults.fault_coverage_reference(circuit, prefix, faults=live).undetected
    want = faults.fault_coverage_reference(circuit, inputs)
    calls = []
    real = lib._eval

    def counted(*args):
        calls.append(args[-1])  # the number of forced rows
        return real(*args)

    monkeypatch.setattr(lib, "_eval", counted)
    monkeypatch.setattr(faults, "GATE_EVAL", {})  # any lookup raises
    report = faults.fault_coverage(circuit, inputs)
    assert (report.total, report.detected, report.undetected) == (
        want.total, want.detected, want.undetected
    )
    assert groups > 1 and len(calls) == 1 + groups
    assert calls[0] == 0 and all(forced > 0 for forced in calls[1:])


def test_power_backend_parity():
    """Limb-path toggle counts equal the reference interpreter's per-net
    transitions, net for net."""
    from repro.netlist.faults import values_with_fault
    from repro.netlist.power import estimate_power

    circuit = _circuit_of("vlcsa2", 16)
    inputs = _random_batch(circuit, 200, random.Random(9))
    masks = {}
    for name, nets in circuit.input_buses.items():
        masks.update(zip(nets, _int_masks(inputs[name], len(nets))))
    ones = (1 << 200) - 1
    values = values_with_fault(circuit, masks, ones, None)
    want = [((v ^ (v >> 1)) & (ones >> 1)).bit_count() for v in values]
    assert estimate_power(circuit, inputs).toggles == want


def test_simulate_design_digest_identity():
    from repro.engine.elab import simulate_design

    digests = {
        backend: simulate_design(
            "vlcsa1", 16, vectors=150, seed=4, backend=backend
        )["digest"]
        for backend in ("auto", "vectorized", "reference")
    }
    assert len(set(digests.values())) == 1
