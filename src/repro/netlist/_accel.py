"""Optional C fast path for the limb backend: plan evaluation and transposes.

The vectorized simulation backend (:mod:`repro.netlist.compile`) has two
dispatch-bound stages at small batch sizes.  Evaluating a
:class:`~repro.netlist.compile.VectorPlan` in numpy costs a few ops per
``(level, kind)`` group, 27-69 groups on the 64-bit designs, whatever
the batch; and the 64x64 bit-matrix transposes that move bus values
between vector-major and net-major bit-plane layouts are a few dozen
full-array ops per 64-bit chunk of a bus.  In C the plan is one call
and each bus one call, straight into or out of the limb array.

This module embeds that C source, compiles it once with the system C
compiler into a content-addressed shared library under a per-user cache
directory, and loads it through :mod:`ctypes`.  Everything is optional:
if no compiler is present, the build fails, or ``REPRO_ACCEL=0`` is set
in the environment, :func:`load` returns ``None`` and callers keep the
pure-numpy path.  Both paths are bit-identical by construction (the
transposes run the numpy masked-swap rounds' schedule, the plan
evaluator applies the same per-kind algebra as
``compile._VEC_KERNELS``) and the test suite cross-checks them whenever
the library is available.

Exposed operations.  Every array argument is checked on each call (type,
dtype, dimensions, C-contiguity, and the shape the C code indexes) and a
failed check raises instead of reading or writing out of bounds.  Index
tables are checked once, when they are built:

* ``pack_bus(words, V, table)`` — one bus's ``(nv, chunks)`` value words
  (word ``k`` holds bits ``64k .. 64k + 63``) transposed into the rows
  of the ``(num_nets, limbs)`` limb array ``V`` that its
  :class:`RowTable` names (tail bits zero-filled);
* ``unpack_bus(V, table, out)`` — those rows of ``V`` back into
  ``(nv, chunks)`` words;
* ``plan_runner(ops, pins, num_nets)`` — a ``runner(V, ones)`` closure
  that evaluates a flattened gate table (one :data:`PLAN_KINDS` code and
  one ``(out, in0..in3)`` row per gate, in plan order) over a
  ``(num_nets, limbs)`` limb array in place.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Callable, Optional, Tuple

import numpy as np

#: Environment variable gating the fast path: set to ``0`` (or anything
#: other than empty/``1``) to force the pure-numpy implementation.
ACCEL_ENV = "REPRO_ACCEL"

_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>

/* One masked-swap round of a 64x64 bit-matrix transpose: rows i and
 * i + J exchange their off-diagonal J x J sub-blocks; MASK keeps the bit
 * positions b with (b & J) == 0.  J is a constant, so the loops have no
 * branches and vectorize. */
#define SWAP_ROUND(J, MASK)                                  \
    for (int i0 = 0; i0 < 64; i0 += 2 * (J))                 \
        for (int i = i0; i < i0 + (J); i++) {                \
            const uint64_t a = m[i], b = m[i + (J)];         \
            const uint64_t t = ((a >> (J)) ^ b) & (MASK);    \
            m[i + (J)] = b ^ t;                              \
            m[i] = a ^ (t << (J));                           \
        }

/* Transpose m in place: afterwards bit i of m[b] is bit b of the old
 * m[i].  Same schedule as the numpy rounds in compile.py. */
static void transpose64(uint64_t *m) {
    SWAP_ROUND(32, 0x00000000FFFFFFFFULL)
    SWAP_ROUND(16, 0x0000FFFF0000FFFFULL)
    SWAP_ROUND(8, 0x00FF00FF00FF00FFULL)
    SWAP_ROUND(4, 0x0F0F0F0F0F0F0F0FULL)
    SWAP_ROUND(2, 0x3333333333333333ULL)
    SWAP_ROUND(1, 0x5555555555555555ULL)
}

/* Bus transposes.  A bus is width rows of the (num_nets, limbs) limb
 * array V: rows[b] is the V row of bus bit b.  Its values are (nv, chunks)
 * row-major words: word k of vector v holds bits 64k .. 64k + 63.  Each
 * 64-bit chunk of the bus and 64-vector limb is one 64x64 transpose. */
void repro_pack_bus(const uint64_t *words, ptrdiff_t nv, ptrdiff_t chunks,
                    const int32_t *rows, ptrdiff_t width, uint64_t *V,
                    ptrdiff_t limbs) {
    uint64_t m[64];
    for (ptrdiff_t k = 0; k < chunks; k++) {
        const ptrdiff_t lo = 64 * k;
        const int planes = width - lo < 64 ? (int)(width - lo) : 64;
        for (ptrdiff_t l = 0; l < limbs; l++) {
            for (int i = 0; i < 64; i++) {
                const ptrdiff_t v = 64 * l + i;
                m[i] = v < nv ? words[(size_t)v * (size_t)chunks + (size_t)k] : 0;
            }
            transpose64(m);
            for (int b = 0; b < planes; b++)
                V[(size_t)rows[lo + b] * (size_t)limbs + (size_t)l] = m[b];
        }
    }
}

void repro_unpack_bus(const uint64_t *V, ptrdiff_t limbs, const int32_t *rows,
                      ptrdiff_t width, uint64_t *words, ptrdiff_t nv,
                      ptrdiff_t chunks) {
    uint64_t m[64];
    for (ptrdiff_t k = 0; k < chunks; k++) {
        const ptrdiff_t lo = 64 * k;
        const int planes = width - lo < 64 ? (int)(width - lo) : 64;
        for (ptrdiff_t l = 0; 64 * l < nv; l++) {
            for (int b = 0; b < 64; b++)
                m[b] = b < planes
                    ? V[(size_t)rows[lo + b] * (size_t)limbs + (size_t)l] : 0;
            transpose64(m);
            const ptrdiff_t base = 64 * l;
            const int n = nv - base < 64 ? (int)(nv - base) : 64;
            for (int i = 0; i < n; i++)
                words[(size_t)(base + i) * (size_t)chunks + (size_t)k] = m[i];
        }
    }
}

/* Gate kind codes of repro_eval_plan, in PLAN_KINDS order. */
enum {
    K_AND2, K_OR2, K_XOR2, K_INV, K_NAND2, K_NOR2, K_XNOR2, K_MUX2,
    K_BUF, K_AOI21, K_OAI21, K_AOI22, K_OAI22, K_CONST0, K_CONST1
};

#define EACH(expr)                                   \
    for (ptrdiff_t l = 0; l < limbs; l++) o[l] = (expr); \
    break

/* Evaluate ngates gates in table order over the (num_nets, limbs) limb
 * array V, in place.  Gate g has kind ops[g] and pins[5g .. 5g+4] =
 * (out, in0, in1, in2, in3) rows of V; unused inputs are 0.  A gate's
 * output row is never one of its input rows (its level exceeds theirs),
 * hence restrict.  Inverting gates XOR against ones, the masked
 * all-ones row, so tail bits past the batch stay zero. */
void repro_eval_plan(uint64_t *V, ptrdiff_t limbs, const uint64_t *ones,
                     const int32_t *ops, const int32_t *pins,
                     ptrdiff_t ngates) {
    for (ptrdiff_t g = 0; g < ngates; g++) {
        const int32_t *p = pins + 5 * g;
        uint64_t *restrict o = V + (size_t)p[0] * (size_t)limbs;
        const uint64_t *a = V + (size_t)p[1] * (size_t)limbs;
        const uint64_t *b = V + (size_t)p[2] * (size_t)limbs;
        const uint64_t *c = V + (size_t)p[3] * (size_t)limbs;
        const uint64_t *d = V + (size_t)p[4] * (size_t)limbs;
        switch (ops[g]) {
        case K_AND2: EACH(a[l] & b[l]);
        case K_OR2: EACH(a[l] | b[l]);
        case K_XOR2: EACH(a[l] ^ b[l]);
        case K_INV: EACH(a[l] ^ ones[l]);
        case K_NAND2: EACH((a[l] & b[l]) ^ ones[l]);
        case K_NOR2: EACH((a[l] | b[l]) ^ ones[l]);
        case K_XNOR2: EACH((a[l] ^ b[l]) ^ ones[l]);
        case K_MUX2: EACH(((b[l] ^ c[l]) & a[l]) ^ b[l]);
        case K_BUF: EACH(a[l]);
        case K_AOI21: EACH(((a[l] & b[l]) | c[l]) ^ ones[l]);
        case K_OAI21: EACH(((a[l] | b[l]) & c[l]) ^ ones[l]);
        case K_AOI22: EACH(((a[l] & b[l]) | (c[l] & d[l])) ^ ones[l]);
        case K_OAI22: EACH(((a[l] | b[l]) & (c[l] | d[l])) ^ ones[l]);
        case K_CONST0: EACH(0);
        case K_CONST1: EACH(ones[l]);
        }
    }
}
"""

#: Gate kinds of the plan evaluator; a kind's code in the ``ops`` table
#: is its index here (the C ``enum`` lists them in the same order).
PLAN_KINDS: Tuple[str, ...] = (
    "AND2", "OR2", "XOR2", "INV", "NAND2", "NOR2", "XNOR2", "MUX2",
    "BUF", "AOI21", "OAI21", "AOI22", "OAI22", "CONST0", "CONST1",
)

#: Zero-length ctypes array type: ``from_buffer`` on it is the cheapest
#: way to an ndarray's data address (``ndarray.ctypes.data`` and an
#: ``ndpointer`` argument type each cost several times more per call).
_ANCHOR = ctypes.c_char * 0


def _address(arr: np.ndarray, ndim: int, name: str, written: bool = False) -> int:
    """Data address of ``arr`` after checking the layout the C code assumes.

    ``arr`` must be an ndarray of native uint64 with ``ndim`` dimensions,
    C-contiguous, and writeable when the C code writes it (``written``).
    A wrong type or dtype raises :class:`TypeError`, any other mismatch
    :class:`ValueError`; callers check the extents they index.
    """
    if not isinstance(arr, np.ndarray) or arr.dtype != np.uint64:
        got = getattr(arr, "dtype", type(arr).__name__)
        raise TypeError(f"{name}: expected a uint64 ndarray, got {got}")
    if arr.ndim != ndim or not arr.flags.c_contiguous:
        raise ValueError(
            f"{name}: expected a C-contiguous {ndim}-D array, got shape "
            f"{arr.shape} with strides {arr.strides}"
        )
    if arr.flags.writeable:
        return ctypes.addressof(_ANCHOR.from_buffer(arr))
    if written:
        raise ValueError(f"{name}: the C code writes this array, but it is read-only")
    return arr.ctypes.data


def _bind(cdll: ctypes.CDLL, name: str, argtypes: list) -> Callable[..., None]:
    fn = getattr(cdll, name)
    fn.argtypes = argtypes
    fn.restype = None
    return fn


_P = ctypes.c_void_p
_N = ctypes.c_ssize_t


class RowTable:
    """The rows of one bus in a ``(num_nets, limbs)`` limb array.

    ``rows[b]`` is the limb-array row of bus bit ``b``.  The table is
    validated once, here: an int32 copy, every row checked against
    ``num_nets``, read-only after.  So :meth:`AccelLib.pack_bus` and
    :meth:`AccelLib.unpack_bus` need only check that their array has
    ``num_nets`` rows.  ``chunks`` is the bus's 64-bit words per value.
    A table works without the library; the numpy path gathers
    ``V[table.rows]``.
    """

    __slots__ = ("rows", "num_nets", "width", "chunks", "at")

    def __init__(self, rows: np.ndarray, num_nets: int):
        if not isinstance(rows, np.ndarray) or rows.dtype != np.int32:
            got = getattr(rows, "dtype", type(rows).__name__)
            raise TypeError(f"row table: expected an int32 ndarray, got {got}")
        if rows.ndim != 1:
            raise ValueError(f"row table: expected 1-D rows, got shape {rows.shape}")
        if rows.size and not (0 <= rows.min() and rows.max() < num_nets):
            raise ValueError(
                f"row table: rows {rows.min()}..{rows.max()} outside [0, {num_nets})"
            )
        self.rows = rows.copy()
        self.rows.flags.writeable = False
        self.num_nets = num_nets
        self.width = rows.shape[0]
        self.chunks = max(1, (self.width + 63) // 64)
        self.at = self.rows.ctypes.data


class AccelLib:
    """ctypes bindings of the compiled library.

    Thin wrappers over the three exported C functions; ctypes releases
    the GIL for the duration of each call.  Arrays go in as raw
    ``c_void_p`` addresses after explicit checks (:func:`_address` plus
    each wrapper's extent checks), which is cheaper per argument than
    ``ndpointer`` and checks more.
    """

    def __init__(self, cdll: ctypes.CDLL):
        self._pack_bus = _bind(cdll, "repro_pack_bus", [_P, _N, _N, _P, _N, _P, _N])
        self._unpack_bus = _bind(cdll, "repro_unpack_bus", [_P, _N, _P, _N, _P, _N, _N])
        self._eval = _bind(cdll, "repro_eval_plan", [_P, _N, _P, _P, _P, _N])

    def pack_bus(self, words: np.ndarray, V: np.ndarray, table: RowTable) -> None:
        """Transpose one bus's values into its rows of ``V``.

        ``words`` is ``(num_vectors, table.chunks)``: word ``k`` of a
        vector holds its bits ``64k .. 64k + 63``.  ``V`` is a writeable
        ``(table.num_nets, limbs)`` limb array with room for the
        vectors.  Every limb of the bus's rows is written; bits past
        ``num_vectors`` are zero, the tail invariant of ``limb_ones``.
        """
        src = _address(words, 2, "words")
        dst = _address(V, 2, "V", written=True)
        _check_bus(V, table, words, "words")
        self._pack_bus(
            src, words.shape[0], table.chunks, table.at, table.width, dst, V.shape[1]
        )

    def unpack_bus(self, V: np.ndarray, table: RowTable, out: np.ndarray) -> np.ndarray:
        """Read one bus's rows of ``V`` back into per-vector words.

        Fills and returns ``out``, a writeable ``(num_vectors,
        table.chunks)`` array laid out like :meth:`pack_bus`'s
        ``words``; ``V`` is a ``(table.num_nets, limbs)`` limb array
        holding at least ``num_vectors`` vectors.
        """
        src = _address(V, 2, "V")
        dst = _address(out, 2, "out", written=True)
        _check_bus(V, table, out, "out")
        self._unpack_bus(
            src, V.shape[1], table.at, table.width, dst, out.shape[0], table.chunks
        )
        return out

    def plan_runner(
        self, ops: np.ndarray, pins: np.ndarray, num_nets: int
    ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """A ``runner(V, ones)`` evaluating a gate table over ``V`` in place.

        ``ops`` is an int32 :data:`PLAN_KINDS` code per gate and ``pins``
        an int32 ``(gates, 5)`` array of ``(out, in0..in3)`` rows, unused
        inputs 0, in an order where every gate's inputs are written
        before it runs.  Both are validated here once, including every
        pin against ``num_nets``, and kept alive on the closure, which
        reuses their addresses.  Each call checks ``V`` is a writeable
        C-contiguous uint64 ``(num_nets, limbs)`` array and ``ones`` a
        ``(limbs,)`` one, then makes one C call and returns ``V``.
        """
        if ops.dtype != np.int32 or pins.dtype != np.int32:
            raise TypeError(f"gate table: expected int32, got {ops.dtype} and {pins.dtype}")
        ops, pins = np.ascontiguousarray(ops), np.ascontiguousarray(pins)
        gates = ops.shape[0] if ops.ndim == 1 else -1
        if pins.shape != (gates, 5):
            raise ValueError(f"gate table: shapes {ops.shape} and {pins.shape} do not match")
        if gates and not (
            0 <= ops.min() and ops.max() < len(PLAN_KINDS)
            and 0 <= pins.min() and pins.max() < num_nets
        ):
            raise ValueError("gate table holds an unknown kind or an out-of-range net")
        ops_at, pins_at = ops.ctypes.data, pins.ctypes.data

        def runner(V: np.ndarray, ones: np.ndarray) -> np.ndarray:
            ones_at = _address(ones, 1, "ones")
            limbs = ones.shape[0]
            V_at = _address(V, 2, "V", written=True)
            if V.shape != (num_nets, limbs):
                raise ValueError(f"V: expected shape {(num_nets, limbs)}, got {V.shape}")
            self._eval(V_at, limbs, ones_at, ops_at, pins_at, gates)
            return V

        # The closure holds only the addresses; this keeps the arrays alive.
        runner.table = (ops, pins)  # type: ignore[attr-defined]
        return runner


def _check_bus(V: np.ndarray, table: RowTable, words: np.ndarray, name: str) -> None:
    """``V`` must be ``table``'s limb array and ``words`` its bus's words."""
    if not isinstance(table, RowTable):
        raise TypeError(f"table: expected a RowTable, got {type(table).__name__}")
    if V.shape[0] != table.num_nets:
        raise ValueError(f"V: {V.shape[0]} rows, the row table is for {table.num_nets}")
    if words.shape[1] != table.chunks:
        raise ValueError(
            f"{name}: {words.shape[1]} words per vector, a {table.width}-bit "
            f"bus has {table.chunks}"
        )
    if words.shape[0] > 64 * V.shape[1]:
        raise ValueError(
            f"V: room for {64 * V.shape[1]} vectors, {name} has {words.shape[0]}"
        )


def _cache_dir() -> str:
    """Directory for the compiled library, override via ``REPRO_ACCEL_CACHE``."""
    override = os.environ.get("REPRO_ACCEL_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-accel")


def _build(source: str, out_path: str) -> bool:
    """Compile ``source`` into ``out_path``; False on any failure.

    Writes through a temp file + atomic rename so concurrent builders
    (e.g. serve shards warming in parallel) race benignly.
    """
    directory = os.path.dirname(out_path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, src_path = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        tmp_so = src_path[:-2] + ".so"
        for compiler in ("cc", "gcc", "clang"):
            try:
                result = subprocess.run(
                    [
                        compiler,
                        "-O2",
                        "-shared",
                        "-fPIC",
                        "-o",
                        tmp_so,
                        src_path,
                    ],
                    capture_output=True,
                    timeout=60,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if result.returncode == 0:
                os.replace(tmp_so, out_path)
                os.unlink(src_path)
                return True
        os.unlink(src_path)
    except OSError:
        pass
    return False


_LIB: Optional[AccelLib] = None
_TRIED = False
_LOAD_LOCK = threading.Lock()


def load() -> Optional[AccelLib]:
    """The compiled fast path, or ``None`` when unavailable.

    Memoized: the first call compiles (or reuses the content-addressed
    cached build of) the embedded C source; later calls are a read of
    the module global.  Returns ``None`` — permanently for this process
    — when ``REPRO_ACCEL=0``, no C compiler works, or loading fails.

    Thread-safe: a caller that arrives while another thread builds the
    library waits for it rather than reading ``None``, because a kernel
    compiled in that window would keep the numpy runner for good.
    """
    global _LIB, _TRIED
    if _TRIED:
        return _LIB
    with _LOAD_LOCK:
        if not _TRIED:
            _LIB = _open()
            _TRIED = True
    return _LIB


def _open() -> Optional[AccelLib]:
    """Build (unless cached) and load the library; ``None`` on any failure."""
    gate = os.environ.get(ACCEL_ENV, "1")
    if gate not in ("", "1"):
        return None
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    so_path = os.path.join(_cache_dir(), f"bitplanes-{digest}.so")
    if not os.path.exists(so_path) and not _build(_SOURCE, so_path):
        return None
    try:
        return AccelLib(ctypes.CDLL(so_path))
    except OSError:
        return None
