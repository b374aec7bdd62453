"""Level-vectorized gate-level simulation backend.

The interpreted simulator (:func:`repro.netlist.simulate.simulate_batch_reference`)
pays, per gate per batch, a list construction, a function call, and a
dict dispatch — all of which are loop-invariant — plus big-int
arithmetic that grows with the batch.  This module moves the invariant
work to *compile time* and runs the batch on uint64 bit-planes:

* **levelization** (:func:`levelize`) — one pass over the topologically
  ordered gate list assigns every gate its logic level;
* **level-vectorized execution** — gates are grouped by ``(logic level,
  kind)`` into a :class:`VectorPlan`; net values live in a ``(num_nets,
  limbs)`` uint64 bit-plane array (64 vectors per limb).  Within a level
  no gate reads a same-level output (a level is ``1 + max(input
  levels)``), so plan order is a valid evaluation order.  When the
  optional C library (:mod:`repro.netlist._accel`) loads, the plan is
  flattened once into a per-gate table (:func:`_gate_table`) and one C
  call evaluates the whole batch; otherwise each group evaluates as one
  fancy-index gather and a couple of fused numpy bitwise ops written in
  place, in one generated straight-line function
  (:func:`_build_limb_runner`), the only fallback.  Either runner can
  force rows to stuck values as their gates write them, which is how
  the concurrent fault simulator (:mod:`repro.netlist.faults`) injects
  64 faults per pass;
* **bit-plane transposes** — batches enter and leave as per-vector bus
  values, converted to and from ``(vectors, chunks)`` 64-bit words
  (:func:`_bus_words`, :func:`_ints_from_words`).  When the library
  loads, all input buses are one C call into the limb array and all
  output buses one C call out of it, through the sim's multi-bus row
  tables (:meth:`CompiledSim.pack_inputs_limbs`,
  :func:`unpack_values_limbs`); without it, :func:`pack_values_limbs`
  and :func:`unpack_values_limbs` transpose each 64-plane chunk with a
  byte-level ``unpackbits``/``packbits`` transpose for one-limb batches
  (at most 64 vectors) and masked-swap 64x64 block transposes above
  that;
* **compile caching** — kernels are cached in an
  :class:`repro.engine.cache.ElaborationCache` (memory LRU) keyed by a
  content hash of the netlist (:func:`circuit_fingerprint`), plus an
  instance-level memo, so machine stepping, clocked simulation, lint
  self-tests, and repeated Monte Carlo batches pay plan building once.

Every net is evaluated (not only output cones), so power estimation and
fault simulation read intermediate rows for free.  Backend names are
validated by :func:`repro.netlist.simulate.resolve_backend`.
"""

from __future__ import annotations

import array
import functools
import hashlib
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.netlist import _accel
from repro.netlist.circuit import GATE_ARITY, Circuit, NetlistError

if TYPE_CHECKING:  # deferred at runtime: netlist sits below engine
    from repro.engine.cache import ElaborationCache

#: Bump when the kernel layout changes; cached kernels then miss.
_CODEGEN_VERSION = 5

_U64 = np.uint64
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Byte-wise popcount table, the fallback when numpy lacks
#: ``bitwise_count`` (added in numpy 2.0; the CI floor is 1.24).
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

@functools.lru_cache(maxsize=None)
def _transpose_steps(
    num_blocks: int,
) -> Tuple[Tuple[np.uint64, np.uint64, np.ndarray, np.ndarray], ...]:
    """Masked-swap schedule for ``num_blocks`` stacked 64x64 bit blocks.

    At step ``(j, mask, lo, hi)`` rows ``lo`` pair with rows
    ``hi = lo + j`` (within each 64-row block) and exchange their
    off-diagonal ``j x j`` bit sub-blocks; ``mask`` keeps the bit
    positions ``b`` with ``b & j == 0`` of every ``2j`` group.  Index
    arrays span all blocks so one set of numpy ops per step transposes
    every stacked block at once.
    """
    return tuple(
        (
            _U64(j),
            _U64(sum(1 << b for b in range(64) if not b & j)),
            np.array(
                [
                    g * 64 + i
                    for g in range(num_blocks)
                    for i in range(64)
                    if not i & j
                ],
                dtype=np.int64,
            ),
            np.array(
                [
                    g * 64 + i + j
                    for g in range(num_blocks)
                    for i in range(64)
                    if not i & j
                ],
                dtype=np.int64,
            ),
        )
        for j in (32, 16, 8, 4, 2, 1)
    )


def _transpose64_blocks(x: np.ndarray) -> np.ndarray:
    """Transpose every 64x64 bit block of ``x`` in place.

    ``x`` is ``(k * 64, blocks)`` uint64 — ``k`` independent stacks of
    64-row blocks (stacking lets one call transpose several buses, which
    halves the per-op numpy dispatch cost) — where element ``[i, l]``
    holds row ``i`` of block ``l`` and bit ``b`` is column ``b``; after
    the call ``x[b, l]`` holds column ``b`` of block ``l`` within each
    stack.  Six masked-swap rounds (Hacker's Delight's ``transpose32``
    widened to 64) exchange the off-diagonal ``j x j`` sub-blocks for
    ``j = 32 .. 1``, vectorized over all stacks, blocks, and row pairs
    of a round at once — this is what makes the limb pack/unpack
    transposes a handful of full-array numpy ops instead of per-bit
    shifts.  Rows-first layout keeps every swap operand a contiguous row
    gather; ``np.take(..., out=)`` into three scratch rows keeps each
    round allocation-free.  ``x`` must own its buffer (it is mutated and
    must not alias caller data).

    The numpy fallback for batches above one limb; with the optional C
    library (:mod:`repro.netlist._accel`) loaded, ``pack_buses`` and
    ``unpack_buses`` run the same rounds in C, and the tests cross-check
    them against this function.
    """
    half = x.shape[0] // 2
    a = np.empty((half, x.shape[1]), dtype=_U64)
    b = np.empty_like(a)
    t = np.empty_like(a)
    for j, mask, lo, hi in _transpose_steps(x.shape[0] // 64):
        np.take(x, lo, axis=0, out=a, mode="clip")
        np.take(x, hi, axis=0, out=b, mode="clip")
        np.right_shift(a, j, out=t)
        np.bitwise_xor(t, b, out=t)
        np.bitwise_and(t, mask, out=t)
        np.bitwise_xor(b, t, out=b)
        x[hi] = b
        np.left_shift(t, j, out=t)
        np.bitwise_xor(a, t, out=a)
        x[lo] = a
    return x


def limb_count(num_vectors: int) -> int:
    """uint64 limbs needed for ``num_vectors`` bit-planes (64 per limb)."""
    return (num_vectors + 63) // 64


def limb_ones(num_vectors: int) -> np.ndarray:
    """The all-ones row of a ``num_vectors``-wide limb batch.

    Shape ``(limbs,)``; only the low ``num_vectors`` bits are set, so
    every inverting gate masks its result and net rows keep zero tail
    bits — the invariant limb-array consumers (power, fault coverage)
    rely on when comparing rows whole-limb at a time.
    """
    row = np.full(limb_count(num_vectors), _ALL_ONES, dtype=_U64)
    rem = num_vectors & 63
    if rem:
        row[-1] = _U64((1 << rem) - 1)
    return row


def popcount_rows(rows: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D uint64 limb array (int64 result)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
    as_bytes = np.ascontiguousarray(rows).view(np.uint8)
    return _POPCOUNT8[as_bytes].sum(axis=1, dtype=np.int64)


def levelize(circuit: Circuit) -> Tuple[List[int], List[int]]:
    """Logic levels of a circuit, in one pass.

    Returns ``(gate_level, net_level)``: per-gate level (1 + the maximum
    level of its input nets; primary inputs and constants sit at level 0
    and 1 respectively) and per-net level.  Construction order is
    topological, so a single forward pass suffices.
    """
    net_level = [0] * circuit.num_nets
    gate_level: List[int] = []
    for gate in circuit.gates:
        level = 1 + max((net_level[n] for n in gate.inputs), default=0)
        gate_level.append(level)
        net_level[gate.output] = level
    return gate_level, net_level


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content hash of a circuit's gate-level structure.

    Two circuits with identical gate lists and net counts hash equally
    regardless of identity, names, or bus labels (buses are bound at
    simulation time), so rebuilt-but-identical designs share one compiled
    kernel.

    The digest is memoized on the circuit instance: circuits are
    append-only, so a matching ``(num_nets, num_gates)`` pair proves the
    gate list is unchanged and the memo valid.  Lint and fuzz fan-outs
    hit this on every batch, where re-hashing the full gate list was
    measurable.
    """
    memo = circuit.__dict__.get("_fingerprint")
    if memo is not None:
        nets, gates, digest = memo
        if nets == circuit.num_nets and gates == circuit.num_gates:
            return digest
    h = hashlib.sha256()
    h.update(repr((_CODEGEN_VERSION, circuit.num_nets, circuit.num_gates)).encode())
    for gate in circuit.gates:
        h.update(f"{gate.kind}{gate.inputs}>{gate.output};".encode())
    digest = h.hexdigest()
    circuit.__dict__["_fingerprint"] = (
        circuit.num_nets,
        circuit.num_gates,
        digest,
    )
    return digest


@dataclass(frozen=True)
class PlanGroup:
    """One fused ``(level, kind)`` gate group of a :class:`VectorPlan`.

    ``in_idx`` has shape ``(arity, gates)`` and ``out_idx`` shape
    ``(gates,)``; evaluating the group is one gather ``V[in_idx]``, the
    kind's bitwise expression, and one scatter ``V[out_idx] = result``.
    ``gates`` lists the member gate indices in ascending order.

    ``in_sels`` are the same input indices with contiguous ascending
    runs precomputed as basic slices, which the numpy runner
    (:func:`_build_limb_runner`) uses to turn gathers into views wherever
    net numbering allows; ``out_sel`` is the group's output rows, always
    one slice (:class:`VectorPlan` numbers them consecutively), so
    results are written in place.
    """

    level: int
    kind: str
    gates: np.ndarray
    in_idx: np.ndarray
    out_idx: np.ndarray
    in_sels: Tuple[Union[slice, np.ndarray], ...]
    out_sel: slice


@dataclass(frozen=True)
class VectorPlan:
    """The level-vectorized execution schedule of one circuit.

    Groups are ordered by ``(level, kind)``; executing them in order is a
    valid schedule because a gate's level strictly exceeds its inputs'
    levels, so no group reads a net written by itself or any same-level
    group.

    The plan works in a renumbered net space: ``perm`` maps an original
    net id to its row in the limb array, ordered undriven nets (primary
    inputs, dangling nets) first and then every group's outputs
    consecutively in schedule order.  That makes each group's output
    rows a basic slice by construction — results land in the limb array
    without a scatter — and operand gathers collapse to views wherever
    producers and consumers line up.  All ``in_idx``/``out_idx`` arrays
    are in the renumbered space; map circuit net ids through ``perm``
    before indexing the limb array.  Rows ``[0, num_undriven)`` are the
    undriven nets (primary inputs, dangling nets); every row at or above
    ``num_undriven`` is written by exactly one group's kernel, and in
    the flattened gate table (:func:`_gate_table`) row ``num_undriven +
    p`` is written by the gate at position ``p``.
    """

    groups: Tuple[PlanGroup, ...]
    num_levels: int
    perm: np.ndarray
    num_undriven: int

    @property
    def num_groups(self) -> int:
        return len(self.groups)


def _index_selector(idx: np.ndarray) -> Union[slice, np.ndarray]:
    """A basic slice when ``idx`` is a contiguous ascending run, else ``idx``.

    Slices let :meth:`CompiledSim.eval_limbs` gather operands as views
    and write results in place instead of fancy-index copies.
    """
    if idx.size and bool((np.diff(idx) == 1).all()):
        start = int(idx[0])
        return slice(start, start + idx.size)
    return idx


def build_vector_plan(circuit: Circuit, gate_level: Sequence[int]) -> VectorPlan:
    """Group a circuit's gates by ``(logic level, kind)`` for fused eval.

    Deterministic: buckets sort by ``(level, kind)`` and gates keep their
    (topological) index order inside each bucket.
    """
    buckets: Dict[Tuple[int, str], List[int]] = {}
    for index, gate in enumerate(circuit.gates):
        buckets.setdefault((gate_level[index], gate.kind), []).append(index)
    schedule = sorted(buckets)
    # Renumber nets into plan order: undriven nets (primary inputs and
    # dangling nets) keep their relative order up front, then every
    # group's outputs in schedule order.  Group outputs are therefore
    # consecutive rows by construction.
    perm = np.full(circuit.num_nets, -1, dtype=np.int64)
    driven = np.zeros(circuit.num_nets, dtype=bool)
    for indices in buckets.values():
        for index in indices:
            driven[circuit.gates[index].output] = True
    next_row = 0
    for net in range(circuit.num_nets):
        if not driven[net]:
            perm[net] = next_row
            next_row += 1
    num_undriven = next_row
    groups: List[PlanGroup] = []
    raw: List[Tuple[int, str, List[int], np.ndarray, np.ndarray]] = []
    for level, kind in schedule:
        indices = buckets[(level, kind)]
        arity = GATE_ARITY[kind]
        in_idx = np.empty((arity, len(indices)), dtype=np.int64)
        out_idx = np.empty(len(indices), dtype=np.int64)
        for pos, index in enumerate(indices):
            gate = circuit.gates[index]
            for pin in range(arity):
                in_idx[pin, pos] = gate.inputs[pin]
            out_idx[pos] = gate.output
        perm[out_idx] = np.arange(next_row, next_row + len(indices))
        next_row += len(indices)
        raw.append((level, kind, indices, in_idx, out_idx))
    start = num_undriven
    for level, kind, indices, in_idx, out_idx in raw:
        in_idx = perm[in_idx]
        out_idx = perm[out_idx]
        stop = start + len(indices)
        groups.append(
            PlanGroup(
                level=level,
                kind=kind,
                gates=np.asarray(indices, dtype=np.int64),
                in_idx=in_idx,
                out_idx=out_idx,
                in_sels=tuple(
                    _index_selector(in_idx[pin])
                    for pin in range(in_idx.shape[0])
                ),
                out_sel=slice(start, stop),
            )
        )
        start = stop
    num_levels = max(gate_level, default=0)
    return VectorPlan(
        groups=tuple(groups),
        num_levels=num_levels,
        perm=perm,
        num_undriven=num_undriven,
    )


def _build_vec_kernels() -> Dict[str, Callable[..., None]]:
    """Out-parameter numpy kernels, one per gate kind.

    Each kernel computes the same bitwise expression as
    :data:`repro.netlist.simulate.GATE_EVAL` but writes through ``out=``
    so group evaluation allocates no temporaries beyond at most one
    (``AOI22``/``OAI22``); with a slice ``out`` the result lands
    directly in the limb array.  Safe because a group's output rows are
    always disjoint from its operand rows (a gate's level strictly
    exceeds its inputs' levels).
    """

    def and2(ins, out, ones):
        np.bitwise_and(ins[0], ins[1], out=out)

    def or2(ins, out, ones):
        np.bitwise_or(ins[0], ins[1], out=out)

    def xor2(ins, out, ones):
        np.bitwise_xor(ins[0], ins[1], out=out)

    def inv(ins, out, ones):
        np.bitwise_xor(ins[0], ones, out=out)

    def nand2(ins, out, ones):
        np.bitwise_and(ins[0], ins[1], out=out)
        np.bitwise_xor(out, ones, out=out)

    def nor2(ins, out, ones):
        np.bitwise_or(ins[0], ins[1], out=out)
        np.bitwise_xor(out, ones, out=out)

    def xnor2(ins, out, ones):
        np.bitwise_xor(ins[0], ins[1], out=out)
        np.bitwise_xor(out, ones, out=out)

    def mux2(ins, out, ones):
        np.bitwise_xor(ins[1], ins[2], out=out)
        np.bitwise_and(out, ins[0], out=out)
        np.bitwise_xor(out, ins[1], out=out)

    def buf(ins, out, ones):
        np.copyto(out, ins[0])

    def aoi21(ins, out, ones):
        np.bitwise_and(ins[0], ins[1], out=out)
        np.bitwise_or(out, ins[2], out=out)
        np.bitwise_xor(out, ones, out=out)

    def oai21(ins, out, ones):
        np.bitwise_or(ins[0], ins[1], out=out)
        np.bitwise_and(out, ins[2], out=out)
        np.bitwise_xor(out, ones, out=out)

    def aoi22(ins, out, ones):
        np.bitwise_and(ins[0], ins[1], out=out)
        np.bitwise_or(out, ins[2] & ins[3], out=out)
        np.bitwise_xor(out, ones, out=out)

    def oai22(ins, out, ones):
        np.bitwise_or(ins[0], ins[1], out=out)
        np.bitwise_and(out, ins[2] | ins[3], out=out)
        np.bitwise_xor(out, ones, out=out)

    def const0(ins, out, ones):
        out[...] = 0

    def const1(ins, out, ones):
        out[...] = ones

    return {
        "AND2": and2,
        "OR2": or2,
        "XOR2": xor2,
        "INV": inv,
        "NAND2": nand2,
        "NOR2": nor2,
        "XNOR2": xnor2,
        "MUX2": mux2,
        "BUF": buf,
        "AOI21": aoi21,
        "OAI21": oai21,
        "AOI22": aoi22,
        "OAI22": oai22,
        "CONST0": const0,
        "CONST1": const1,
    }


#: ``kind -> kernel(ins, out, ones)`` out-parameter evaluation table of
#: the vectorized backend; same algebra as :data:`GATE_EVAL`.
_VEC_KERNELS = _build_vec_kernels()


def _build_limb_runner(plan: VectorPlan) -> Callable[..., np.ndarray]:
    """Codegen the straight-line numpy group schedule of the limb backend.

    The kernel's runner when the C library does not load (the C plan
    evaluator replaces it otherwise), with the C runner's signature
    ``runner(V, ones, force=None)``.  Emits one line per
    :class:`PlanGroup` — kernel call on gathered operand rows, output
    slice written in place — and ``exec``-compiles it.  This removes the
    per-group interpreter overhead (loop, genexprs, dict lookups) from
    :meth:`CompiledSim.eval_limbs`; numpy dispatch per group remains.
    A call with ``force`` (:func:`repro.netlist._accel.force_table`)
    loops over the same groups instead, forcing each forced row right
    after its group writes it.
    """
    steps = [(_VEC_KERNELS[g.kind], g.in_sels, g.out_sel) for g in plan.groups]
    sels: List[Union[slice, np.ndarray]] = []
    lines: List[str] = [
        "def _run(V, ones, force=None):",
        "    if force is not None:",
        "        return _forced(V, ones, force)",
    ]
    for gi, (_, in_sels, out_sel) in enumerate(steps):
        base = len(sels)
        sels.extend(in_sels)
        oi = len(sels)
        sels.append(out_sel)
        ins = ", ".join(f"V[S{base + pin}]" for pin in range(len(in_sels)))
        if len(in_sels) == 1:
            ins += ","
        lines.append(f"    K{gi}(({ins}), V[S{oi}], ones)")
    lines.append("    return V")
    first, num_nets = plan.num_undriven, plan.perm.size

    def forced(V: np.ndarray, ones: np.ndarray, force: tuple) -> np.ndarray:
        at, keep, set_ = _accel.force_table(force, first, num_nets)
        rows = (at + first).tolist()
        f = 0
        for kernel, in_sels, out_sel in steps:
            kernel(tuple(V[sel] for sel in in_sels), V[out_sel], ones)
            while f < len(rows) and rows[f] < out_sel.stop:
                row = V[rows[f]]
                np.bitwise_and(row, keep[f], out=row)
                np.bitwise_or(row, set_[f], out=row)
                f += 1
        return V

    namespace: Dict[str, object] = {"_forced": forced}
    namespace.update({f"S{i}": sel for i, sel in enumerate(sels)})
    namespace.update({f"K{i}": step[0] for i, step in enumerate(steps)})
    exec(compile("\n".join(lines), "<limb plan>", "exec"), namespace)
    return namespace["_run"]  # type: ignore[return-value]


def _gate_table(plan: VectorPlan, num_gates: int) -> Tuple[np.ndarray, np.ndarray]:
    """The plan flattened to the C evaluator's per-gate table.

    Returns ``(ops, pins)``: an int32 :data:`repro.netlist._accel.PLAN_KINDS`
    code per gate and int32 ``(out, in0..in3)`` rows (unused inputs 0)
    in the renumbered net space, both in plan order, so every gate's
    inputs are written before it runs.  Built group by group from
    ``out_idx``/``in_idx``.
    """
    ops = np.empty(num_gates, dtype=np.int32)
    pins = np.zeros((num_gates, 5), dtype=np.int32)
    start = 0
    for group in plan.groups:
        stop = start + group.out_idx.size
        ops[start:stop] = _accel.PLAN_KINDS.index(group.kind)
        pins[start:stop, 0] = group.out_idx
        pins[start:stop, 1 : 1 + group.in_idx.shape[0]] = group.in_idx.T
        start = stop
    return ops, pins


@dataclass
class CompiledKernel:
    """Reusable compilation artifacts, keyed by circuit content hash.

    Holds everything derived purely from the gate-level structure: the
    gate levels, the :class:`VectorPlan` and the runner that evaluates it
    (``limb_runner``, named by ``runner``).
    The runner is the C plan evaluator of :mod:`repro.netlist._accel`
    over the plan's gate table (:func:`_gate_table`, ``runner == "c"``)
    whenever the library loads, else the generated numpy group schedule
    (:func:`_build_limb_runner`, ``runner == "numpy"``); both are
    bit-identical.  Bus binding (names to nets) stays with the
    :class:`CompiledSim` wrapper so one kernel serves any identically
    structured circuit.
    """

    key: str
    num_nets: int
    num_gates: int
    gate_level: List[int]
    plan: VectorPlan
    limb_runner: Callable[..., np.ndarray]
    runner: str


def _build_kernel(circuit: Circuit, key: str) -> CompiledKernel:
    """Levelize, plan, and package the kernel for one circuit."""
    from repro.obs import spans as _obs

    with _obs.span(
        "compile.codegen", circuit=circuit.name, gates=circuit.num_gates
    ):
        return _build_kernel_inner(circuit, key)


def _build_kernel_inner(circuit: Circuit, key: str) -> CompiledKernel:
    for gate in circuit.gates:
        if gate.kind not in _VEC_KERNELS:
            raise NetlistError(f"cannot simulate gate kind {gate.kind!r}")
    gate_level, _ = levelize(circuit)
    plan = build_vector_plan(circuit, gate_level)
    lib = _accel.load()
    if lib is None:
        runner, name = _build_limb_runner(plan), "numpy"
    else:
        ops, pins = _gate_table(plan, circuit.num_gates)
        runner, name = lib.plan_runner(ops, pins, circuit.num_nets), "c"
    return CompiledKernel(
        key=key,
        num_nets=circuit.num_nets,
        num_gates=circuit.num_gates,
        gate_level=gate_level,
        plan=plan,
        limb_runner=runner,
        runner=name,
    )


def _does_not_fit(value: object, width: int, name: str) -> NetlistError:
    """The reference interpreter's error for a value a bus cannot hold."""
    return NetlistError(f"value {value} does not fit in {width}-bit bus {name!r}")


def _fast_words(values: Sequence[int], chunks: int) -> Optional[np.ndarray]:
    """``(len(values), chunks)`` uint64 words, or ``None`` when unsure.

    Takes the C-level conversions: integer numpy arrays by dtype,
    ``array('Q')`` for one-word buses (it rejects negative, too-wide
    and non-integer values, where ``np.fromiter`` would truncate
    ``1.5`` to ``1``), and for wider ones one fixed-width
    ``int.to_bytes`` record per value, joined in one buffer (it
    rejects negative, non-``int`` and too-wide values alike).  ``None``
    sends the batch to :func:`_checked_words`, which names the first
    offending value or converts what these paths do not take.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "biu":
            return None
        if values.dtype.kind == "i" and values.size and values.min() < 0:
            return None
        words = np.zeros((values.size, chunks), dtype=_U64)
        words[:, 0] = values
        return words
    try:
        if chunks == 1:
            return np.frombuffer(array.array("Q", values), dtype=_U64).reshape(-1, 1)
        # A bytearray, not bytes: the words stay writeable, whose
        # address the C transposes take without a copy.
        buf = bytearray().join(
            map(int.to_bytes, values, repeat(8 * chunks), repeat("little"))
        )
    except (OverflowError, TypeError):
        return None
    return np.frombuffer(buf, dtype="<u8").astype(_U64, copy=False).reshape(-1, chunks)


def _checked_words(
    values: Sequence[int], width: int, name: str, chunks: int
) -> np.ndarray:
    """Per-value validation in vector order, then the word conversion
    of the now plain, in-range Python ints."""
    limit = 1 << width
    ints = []
    for value in values:
        if not (isinstance(value, numbers.Integral) and 0 <= int(value) < limit):
            raise _does_not_fit(value, width, name)
        ints.append(int(value))
    words = _fast_words(ints, chunks)
    assert words is not None
    return words


def _bus_words(values: Sequence[int], width: int, name: str) -> np.ndarray:
    """Validate one bus's batch; return it as ``(len(values), chunks)`` words.

    Column ``k`` holds bits ``64k .. 64k + 63`` of every value.  A value
    must be a non-negative integer below ``2**width``; anything else
    raises the reference interpreter's :class:`NetlistError`, naming the
    first offending value in vector order.
    """
    chunks = max(1, (width + 63) // 64)
    words = _fast_words(values, chunks)
    if words is None:
        return _checked_words(values, width, name, chunks)
    top = width - 64 * (chunks - 1)
    if top < 64 and words.size:
        over = words[:, -1] >> _U64(top)
        if over.any():
            raise _does_not_fit(values[int(np.argmax(over != 0))], width, name)
    return words


def pack_values_limbs(
    values: Sequence[int], width: int, name: str = "bus"
) -> np.ndarray:
    """Transpose per-vector bus values into uint64 bit-plane limb rows.

    Returns a ``(width, limbs)`` uint64 array where bit ``v`` of row
    ``b`` (64 vectors per limb, little-endian across limbs) is bit ``b``
    of ``values[v]``.  Tail bits beyond ``len(values)`` in the last limb
    are zero.  Validation and error messages match the reference
    interpreter (:func:`_bus_words`).  The numpy transposes: with the C
    library loaded, :meth:`CompiledSim.pack_inputs_limbs` packs all its
    buses with one ``pack_buses`` call instead.
    """
    words = _bus_words(values, width, name)
    num_vectors = len(words)
    if num_vectors == 0:
        return np.zeros((width, 0), dtype=_U64)
    if words.shape[1] == 1:
        return _pack_u64_limbs(words[:, 0], width, num_vectors)
    rows = np.empty((width, limb_count(num_vectors)), dtype=_U64)
    for k in range(words.shape[1]):
        lo = 64 * k
        rows[lo : lo + 64] = _pack_u64_limbs(
            np.ascontiguousarray(words[:, k]), min(64, width - lo), num_vectors
        )
    return rows


def _pack_u64_limbs(
    arr: np.ndarray, width: int, num_vectors: int
) -> np.ndarray:
    """Transpose a uint64 value array into its low ``width`` limb rows.

    The numpy path of :func:`pack_values_limbs`.  A one-limb batch takes
    the byte transpose (:func:`_pack_one_limb`), and larger ones pad to
    whole 64-vector blocks (tail bits stay zero, per the
    :func:`limb_ones` invariant) and bit-transpose every block with
    :func:`_transpose64_blocks`.  The word-transpose copy into the owned
    ``(64, limbs)`` buffer both feeds the rows-first swap layout and
    guarantees the in-place rounds never touch ``arr``'s buffer.
    """
    limbs = limb_count(num_vectors)
    if limbs == 1:
        return _pack_one_limb(arr, num_vectors)[:width]
    blocks = np.empty((64, limbs), dtype=_U64)
    if limbs * 64 == num_vectors:
        blocks[:, :] = arr.reshape(limbs, 64).T
    else:
        padded = np.zeros(limbs * 64, dtype=_U64)
        padded[:num_vectors] = arr
        blocks[:, :] = padded.reshape(limbs, 64).T
    return _transpose64_blocks(blocks)[:width]


def _pack_one_limb(arr: np.ndarray, num_vectors: int) -> np.ndarray:
    """``(64, 1)`` bit-plane rows of at most 64 values, via byte bits.

    ``unpackbits`` spreads every value into its 64 bits, a transpose
    makes them plane-major, and ``packbits`` folds each plane back into
    one word: a handful of numpy calls where the masked-swap rounds take
    ~70.
    """
    bits = np.zeros((64, 64), dtype=np.uint8)
    le = arr.astype("<u8", copy=False).view(np.uint8).reshape(num_vectors, 8)
    bits[:, :num_vectors] = np.unpackbits(le, axis=1, bitorder="little").T
    planes = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    return planes.astype(_U64, copy=False)


def unpack_values_limbs(
    rows: np.ndarray,
    num_vectors: int,
    table: Optional[_accel.RowTable] = None,
) -> Union[List[int], List[List[int]]]:
    """Transpose uint64 bit-plane limb rows back to per-vector values.

    Inverse of :func:`pack_values_limbs` for a ``(width, limbs)`` row
    array; tail bits beyond ``num_vectors`` are ignored.  With
    ``table``, ``rows`` is a whole limb array and the result is one
    value list per bus of the table, in table order: with the C library
    loaded, one ``unpack_buses`` call reads every bus into its
    ``(num_vectors, chunks)`` block of one words buffer, and
    :func:`_ints_from_words` turns block after block into ints.
    Otherwise each bus's rows take the numpy transposes of
    :func:`_values_from_limbs`.
    """
    if table is None:
        if num_vectors == 0:
            return []
        return _values_from_limbs(np.asarray(rows, dtype=_U64), num_vectors)
    if num_vectors == 0:
        return [[] for _ in table.widths]
    lib = _accel.load()
    if lib is None:
        rows = np.asarray(rows, dtype=_U64)
        return [_values_from_limbs(rows[bus], num_vectors) for bus in table.buses()]
    words = np.empty(num_vectors * table.words, dtype=_U64)
    lib.unpack_buses(rows, table, words, num_vectors)
    values, start = [], 0
    for width, chunks in zip(table.widths, table.chunks):
        stop = start + num_vectors * chunks
        values.append(_ints_from_words(words[start:stop].reshape(-1, chunks), width))
        start = stop
    return values


def _unpack_one_limb(sub: np.ndarray, num_vectors: int) -> np.ndarray:
    """Inverse of :func:`_pack_one_limb` for ``(planes <= 64, 1)`` rows."""
    bits = np.zeros((num_vectors, 64), dtype=np.uint8)
    le = np.ascontiguousarray(sub, dtype="<u8").view(np.uint8)
    bits[:, : sub.shape[0]] = np.unpackbits(
        le, axis=1, count=num_vectors, bitorder="little"
    ).T
    values = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    return values.astype(_U64, copy=False).reshape(-1)


def _values_from_limbs(rows: np.ndarray, num_vectors: int) -> List[int]:
    """Per-vector values from ``(width, limbs)`` uint64 bit-plane rows.

    The numpy path of :func:`unpack_values_limbs`: each 64-plane chunk
    becomes one word per vector (:func:`_chunk_words`), then
    :func:`_ints_from_words`.  Bits at or beyond ``num_vectors`` are
    ignored.
    """
    chunks = [
        _chunk_words(rows[lo : lo + 64], num_vectors)
        for lo in range(0, rows.shape[0], 64)
    ]
    if len(chunks) == 1:
        return chunks[0].tolist()
    return _ints_from_words(np.stack(chunks, axis=1), rows.shape[0])


#: Largest two-word batch :func:`_ints_from_words` joins per vector.  The
#: comprehension costs ~0.7 us at 1 vector against ~5 us for the
#: object-dtype masked OR, whose fixed cost it beats up to ~40 vectors
#: (65-bit bus, 2-vCPU x86 VM); from ~48 vectors on the masked OR wins.
_TWO_WORD_LOOP_MAX = 32


#: Records per ``tolist`` of :func:`_ints_from_words`.  A block's
#: ``bytes`` objects live only while it converts, and stay in cache: one
#: ``tolist`` of 16 384 records took twice as long and ~1.3 MB more
#: memory.
_RECORD_BLOCK = 1024


def _ints_from_words(words: np.ndarray, width: int) -> List[int]:
    """Python ints from a ``width``-bit bus's ``(num_vectors, chunks)`` words.

    Chunks combine as Python ints, so widths like ``n + 1 = 65`` are
    exact.  One word per value is one ``tolist``.  A two-word bus (the
    ``n + 1`` sum bus) of at most :data:`_TWO_WORD_LOOP_MAX` vectors joins
    each ``(lo, hi)`` pair in a comprehension; a larger one pays a
    big-int op only where its high word is nonzero.  Wider buses view
    each vector's words as one little-endian ``V{8 * chunks}`` record
    and map ``int.from_bytes`` over the ``tolist`` of each block of
    :data:`_RECORD_BLOCK` records, so no Python bytecode runs per vector
    (1.4 ms against 6.9 ms for slicing one ``bytes`` value by value, at
    16 384 vectors of a 257-bit bus on a 2-vCPU x86 VM).
    """
    chunks = words.shape[1]
    if chunks == 1:
        return words[:, 0].tolist()
    if chunks == 2 and words.shape[0] <= _TWO_WORD_LOOP_MAX:
        return [lo | hi << 64 for lo, hi in words.tolist()]
    if chunks == 2:
        values = words[:, 0].astype(object)
        high = words[:, 1]
        nz = high != 0
        # An object-dtype masked |= runs the big-int ors in one C loop;
        # a one-plane high word (the carry-out) ORs one constant.
        values[nz] |= 1 << 64 if width == 65 else high[nz].astype(object) << 64
        return values.tolist()
    records = np.ascontiguousarray(words, dtype="<u8").view(f"V{8 * chunks}").reshape(-1)
    ints: List[int] = []
    for start in range(0, records.size, _RECORD_BLOCK):
        block = records[start : start + _RECORD_BLOCK].tolist()
        ints.extend(map(int.from_bytes, block, repeat("little")))
    return ints


def _chunk_words(sub: np.ndarray, num_vectors: int) -> np.ndarray:
    """The ``num_vectors`` words of a ``(planes <= 64, limbs)`` chunk.

    The numpy path's per-chunk transpose: one byte transpose for a
    one-limb batch (:func:`_unpack_one_limb`) or one block bit-transpose
    (:func:`_transpose64_blocks`); a single plane (the carry-out of an
    ``n + 1`` sum bus, a 1-bit flag) is one ``unpackbits``, left as 0/1
    bytes.
    """
    planes, limbs = sub.shape
    if planes == 1:
        return np.unpackbits(
            np.ascontiguousarray(sub).view(np.uint8),
            count=num_vectors,
            bitorder="little",
        )
    if limbs == 1:
        return _unpack_one_limb(sub, num_vectors)
    blocks = np.zeros((64, limbs), dtype=_U64)
    blocks[:planes] = sub
    _transpose64_blocks(blocks)
    out = np.empty((limbs, 64), dtype=_U64)
    out[:, :] = blocks.T
    return out.reshape(-1)[:num_vectors]


class CompiledSim:
    """A circuit bound to its compiled kernel; reusable across batches.

    Obtain one via :func:`compile_circuit`.  ``run_batch`` replaces the
    interpreted :func:`repro.netlist.simulate.simulate_batch_reference`
    bit-for-bit; ``pack_inputs_limbs``/``eval_limbs`` expose the uint64
    limb bit-plane layer for callers that consume per-net values
    directly (power estimation, fault simulation, fuzz coverage).

    The input buses share one row table
    (:class:`repro.netlist._accel.RowTable`) of their nets' rows in the
    limb array, and the output buses another, built and range-checked
    here once.  With the C library loaded, packing and unpacking are
    one foreign call per side through them, straight into and out of
    the limb array, so a ``run_batch`` is three foreign calls; the
    numpy path moves each bus through its selector (a slice where the
    rows are contiguous, else the index array) instead.
    """

    def __init__(self, circuit: Circuit, kernel: CompiledKernel):
        self.circuit = circuit
        self.kernel = kernel
        self._in_buses = circuit.input_buses
        self._out_buses = circuit.output_buses
        # Bus nets mapped into the plan's renumbered limb rows.
        perm = kernel.plan.perm

        def rows_of(nets: Sequence[int]) -> np.ndarray:
            return perm[np.asarray(nets, dtype=np.int64)]

        def table(buses: Mapping[str, Sequence[int]]) -> _accel.RowTable:
            rows = [rows_of(nets).astype(np.int32) for nets in buses.values()]
            return _accel.RowTable(rows, kernel.num_nets)

        self._in_table = table(self._in_buses)
        self._out_table = table(self._out_buses)
        self._in_sels = {
            name: _index_selector(rows_of(nets)) for name, nets in self._in_buses.items()
        }
        self._out_sels = {
            name: _index_selector(rows_of(nets)) for name, nets in self._out_buses.items()
        }
        self._scratch_V: Optional[np.ndarray] = None
        self._ones: Tuple[int, np.ndarray] = (0, limb_ones(0))
        self._signature = (
            circuit.num_gates,
            circuit.num_nets,
            len(self._in_buses),
            len(self._out_buses),
        )

    def matches(self, circuit: Circuit) -> bool:
        """True when this compilation is still valid for ``circuit``.

        Circuits are append-only, so equal gate/net/bus counts imply an
        unchanged structure.
        """
        return circuit is self.circuit and self._signature == (
            circuit.num_gates,
            circuit.num_nets,
            len(circuit.input_buses),
            len(circuit.output_buses),
        )

    def vector_plan(self) -> VectorPlan:
        """The circuit's :class:`VectorPlan` (cached on the kernel so
        structurally identical circuits share it)."""
        return self.kernel.plan

    def pack_inputs_limbs(
        self, inputs: Mapping[str, Sequence[int]]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Validate and transpose a batch into the limb bit-plane array.

        Returns ``(V, ones, num_vectors)``: ``V`` is the
        ``(num_nets, limbs)`` uint64 array with input-bit rows filled in
        and ``ones`` the masked all-ones row (:func:`limb_ones`).

        ``V`` is a per-sim scratch buffer reused across calls of the
        same limb count (every driven row is fully rewritten by
        :meth:`eval_limbs` and the undriven prefix is re-zeroed here, so
        only page faults are saved, not correctness) — callers that need
        the previous batch's array after starting a new one must copy
        it.  ``ones`` is likewise kept for the next batch of the same
        size; treat it as read-only.  Like kernel execution itself, this
        is not thread-safe.

        Every input value is validated here (:func:`_bus_words`, bus by
        bus in bus order), so a caller need not run
        ``check_batch_inputs`` first.  With the C library loaded the
        buses' words go end to end into one buffer, and one
        ``pack_buses`` call through the input row table transposes them
        all; without it, :func:`pack_values_limbs` plus a store through
        each bus's selector.
        """
        from repro.netlist.simulate import check_batch_inputs

        num_vectors = check_batch_inputs(self.circuit, inputs)
        limbs = limb_count(num_vectors)
        V = self._scratch_V
        if V is None or V.shape[1] != limbs:
            V = np.empty((self.kernel.num_nets, limbs), dtype=_U64)
            self._scratch_V = V
        # Rows below num_undriven are primary inputs plus dangling nets
        # (constant 0); everything above is written by its gate's group
        # before any reader runs, so only the prefix needs clearing.
        V[: self.kernel.plan.num_undriven] = 0
        lib = _accel.load()
        if lib is None:
            for name, nets in self._in_buses.items():
                V[self._in_sels[name]] = pack_values_limbs(inputs[name], len(nets), name)
        else:
            table = self._in_table
            words = np.concatenate(
                [
                    _bus_words(inputs[name], width, name)
                    for name, width in zip(self._in_buses, table.widths)
                ],
                axis=None,
            )
            lib.pack_buses(words, V, table, num_vectors)
        kept, ones = self._ones
        if kept != num_vectors:
            ones = limb_ones(num_vectors)
            self._ones = (num_vectors, ones)
        return V, ones, num_vectors

    def eval_limbs(
        self, V: np.ndarray, ones: np.ndarray, force: Optional[tuple] = None
    ) -> np.ndarray:
        """One forward pass of the plan over the limb array, in place.

        Runs the kernel's ``limb_runner``: with the C library loaded, one
        foreign call walks the plan's gate table (:func:`_gate_table`)
        gate by gate, after checking ``V`` is a C-contiguous uint64
        ``(num_nets, limbs)`` array and ``ones`` a ``(limbs,)`` one
        (a mismatch raises); without it, each :class:`PlanGroup` runs its
        :data:`_VEC_KERNELS` kernel over the gathered operand rows in the
        generated schedule of :func:`_build_limb_runner`.  Both are
        bit-identical.  ``ones`` must be the masked row of the batch so
        inverting gates leave the tail bits of the last limb zero.

        ``force = (rows, keep, set)`` forces plan rows as their gates
        write them (:func:`repro.netlist._accel.force_table`): the
        stuck-at injection of :func:`repro.netlist.faults.fault_coverage`.
        """
        return self.kernel.limb_runner(V, ones, force)

    def unpack_outputs(
        self, V: np.ndarray, num_vectors: int
    ) -> Dict[str, List[int]]:
        """Transpose every output bus out of the limb array.

        With the C library loaded, all buses are read in one call through
        the output row table; without it, each is gathered through its
        selector first.
        """
        if _accel.load() is None:
            return {
                name: unpack_values_limbs(V[sel], num_vectors)
                for name, sel in self._out_sels.items()
            }
        return dict(
            zip(self._out_buses, unpack_values_limbs(V, num_vectors, self._out_table))
        )

    def run_batch(
        self, inputs: Mapping[str, Sequence[int]], backend: str = "auto"
    ) -> Dict[str, List[int]]:
        """Simulate a batch; same contract as
        :func:`repro.netlist.simulate.simulate_batch`.

        ``backend`` is ``"auto"`` or ``"vectorized"`` (both the limb
        backend); anything else raises
        (:func:`repro.netlist.simulate.resolve_backend`).
        """
        from repro.obs import spans as _obs
        from repro.netlist.simulate import resolve_backend

        chosen = resolve_backend(backend)
        if not _obs.is_enabled():
            # pack_inputs_limbs validates the batch, once.
            V, ones, num_vectors = self.pack_inputs_limbs(inputs)
            if num_vectors == 0:
                return {name: [] for name in self._out_buses}
            self.eval_limbs(V, ones)
            return self.unpack_outputs(V, num_vectors)
        # Traced path: per-stage spans plus the batch-size histogram.  Kept
        # separate so the default path pays one branch, nothing more.
        with _obs.span(
            "sim.batch", circuit=self.circuit.name, backend=chosen
        ) as batch_span:
            with _obs.span("sim.pack"):
                V, ones, num_vectors = self.pack_inputs_limbs(inputs)
            batch_span.set(vectors=num_vectors)
            _obs.record("sim.batch_vectors", num_vectors)
            if num_vectors == 0:
                return {name: [] for name in self._out_buses}
            with _obs.span(
                "sim.exec", gates=self.kernel.num_gates, runner=self.kernel.runner
            ):
                self.eval_limbs(V, ones)
            with _obs.span("sim.unpack"):
                return self.unpack_outputs(V, num_vectors)


# The benchmark harness (perfbench/layers.py) wraps these three former
# names by getattr in its traced pass; it is their only reader.
CompiledSim.pack_inputs = CompiledSim.pack_inputs_limbs  # type: ignore[attr-defined]
CompiledSim.eval_masks = CompiledSim.eval_limbs  # type: ignore[attr-defined]
unpack_values = unpack_values_limbs


def mux_select_points(circuit: Circuit) -> Tuple[Tuple[int, int, int], ...]:
    """Structural coverage points: every MUX2 select, with its logic level.

    Returns ``(gate_index, select_net, level)`` per MUX2 gate, ordered by
    gate index.  The level comes from the compiled kernel's
    :func:`levelize` pass (compiling if needed — the kernel is cached), so
    coverage consumers get depth information for free: a select that only
    ever toggles at level 3 while the deep recovery muxes at level 20 stay
    constant is a very different test set than one that exercises both.

    This is the netlist half of the fuzzer's coverage signal
    (:mod:`repro.fuzz.coverage`): a select mask equal to ``0`` under every
    vector of every batch means the ``d1`` input cone was never observed
    through that mux, i.e. the test set cannot distinguish faults in it.
    """
    sim = compile_circuit(circuit)
    levels = sim.kernel.gate_level
    return tuple(
        (index, gate.inputs[0], levels[index])
        for index, gate in enumerate(circuit.gates)
        if gate.kind == "MUX2"
    )


#: Process-wide kernel cache (memory LRU keyed by netlist content hash).
#: Built lazily — importing :mod:`repro.engine` at module scope would close
#: an import cycle (engine elaborates designs that import netlist).
_KERNEL_CACHE: Optional["ElaborationCache"] = None


def kernel_cache() -> "ElaborationCache":
    """The process-wide compiled-kernel cache (for metrics snapshots)."""
    global _KERNEL_CACHE
    if _KERNEL_CACHE is None:
        from repro.engine.cache import ElaborationCache

        _KERNEL_CACHE = ElaborationCache(capacity=128)
    return _KERNEL_CACHE


def compile_circuit(
    circuit: Circuit, cache: Optional["ElaborationCache"] = None
) -> CompiledSim:
    """Compile (or fetch the cached compilation of) a circuit.

    Two cache levels: an instance memo on the circuit object (valid while
    the circuit is structurally unchanged — circuits are append-only, so
    a count comparison suffices) and a process-wide
    :class:`~repro.engine.cache.ElaborationCache` keyed by
    :func:`circuit_fingerprint`, which lets rebuilt-but-identical designs
    (machine stepping, lint fan-outs, repeated benchmark elaborations)
    share one code-generation pass.  Pass ``cache`` to use a private
    store instead of the process-wide one.
    """
    memo = circuit.__dict__.get("_compiled_sim")
    if isinstance(memo, CompiledSim) and memo.matches(circuit):
        return memo
    store = cache if cache is not None else kernel_cache()
    key = circuit_fingerprint(circuit)
    found, kernel = store.get(key)
    if not found or kernel.num_nets != circuit.num_nets:
        kernel = _build_kernel(circuit, key)
        store.put(key, kernel)
    sim = CompiledSim(circuit, kernel)
    circuit.__dict__["_compiled_sim"] = sim
    return sim
