"""Optional C fast path: plan evaluation, transposes and error counting.

The vectorized simulation backend (:mod:`repro.netlist.compile`) has two
dispatch-bound stages at small batch sizes.  Evaluating a
:class:`~repro.netlist.compile.VectorPlan` in numpy costs a few ops per
``(level, kind)`` group, 27-69 groups on the 64-bit designs, whatever
the batch; and the 64x64 bit-matrix transposes that move bus values
between vector-major and net-major bit-plane layouts are a few dozen
full-array ops per 64-bit chunk of a bus.  In C the plan is one call
and each bus one call, straight into or out of the limb array.

The Monte Carlo engine's SWAR counter kernel
(:mod:`repro.engine.kernels`) is ~140 numpy passes per block of rows; in
C it is one fused pass over the operands.  That one function is built
for AVX2 and for the baseline ISA (GCC on x86-64 glibc only, picked at
load time); the rest of the library, and every other toolchain, stays
at ``-O2``.  The library exports which build the counter kernel got
(``AccelLib.tuned_counters``): the engine serves counts from it only
when tuned, since the ``-O2`` build was measured slower than numpy at
n=64.

This module embeds that C source, compiles it once with the system C
compiler into a content-addressed shared library under a per-user cache
directory, and loads it through :mod:`ctypes`.  Everything is optional:
if no compiler is present, the build fails, or ``REPRO_ACCEL=0`` is set
in the environment, :func:`load` returns ``None`` and callers keep the
pure-numpy path.  Both paths are bit-identical by construction (the
transposes run the numpy masked-swap rounds' schedule, the plan
evaluator applies the same per-kind algebra as
``compile._VEC_KERNELS``, the counter kernel the same terms as the
numpy SWAR kernel) and the test suite cross-checks them whenever the
library is available.

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
  ``(num_nets, limbs)`` limb array in place;
* ``counter_counts(a, b, tables, needs)`` — Monte Carlo error counts of
  packed ``(rows, limbs)`` operands, read in place: per row the
  ``spec``/``s1``/``err1`` terms (:data:`COUNTER_TERM_BITS`) of one or
  two window plans, each described by a :class:`PlanTable`, and per
  ``needs`` mask the number of rows holding all its terms;
  ``tuned_counters`` says whether this build of it carries the AVX2
  clone.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Callable, List, Optional, Sequence, Tuple

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

/* The Monte Carlo counter kernel is the one hot loop that gains from
 * 256-bit vectors: GCC on x86-64 glibc builds it twice (AVX2 and
 * baseline) and picks one at load time.  Everything else, and every
 * other compiler, builds it at the library's -O2, where it was not
 * measured faster than numpy at small widths; repro_counters_tuned
 * tells the binding which build it got.  GCC inlines no helper into a
 * function built with other options unless told to. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) \
    && defined(__linux__) && defined(__GLIBC__)
#define REPRO_HOT __attribute__((target_clones("avx2", "default"), optimize("O3")))
const int repro_counters_tuned = 1;
#else
#define REPRO_HOT
const int repro_counters_tuned = 0;
#endif
#if defined(__GNUC__)
#define REPRO_INLINE static inline __attribute__((always_inline))
#else
#define REPRO_INLINE static inline
#endif

/* Rows per block of repro_counter_counts: the block's per-row state
 * (15 words a row with two plans) stays in L1. */
#define CC_ROWS 128

/* Per-row state of one window plan over a block (engine/kernels.py
 * names the terms): the all-ones test carry into the next limb, the
 * OR of P & cout (spec), of P & ~cout (s1) and of P_i & ~P_{i+1}
 * (err1), the previous limb's markers, and the marker bit below the
 * top window of a plan whose top window is irregular. */
typedef struct {
    uint64_t tc[CC_ROWS], spec[CC_ROWS], s1[CC_ROWS], err1[CC_ROWS];
    uint64_t pm[CC_ROWS], below[CC_ROWS];
} plan_rows;

/* One limb of one plan for n rows: p and c are the rows' propagate and
 * true-carry words of the limb, body/low/top the plan's masks. */
REPRO_INLINE void plan_limb(plan_rows *s, const uint64_t *p, const uint64_t *c,
                            int n, uint64_t body, uint64_t low, uint64_t top,
                            int k) {
    for (int r = 0; r < n; r++) {
        const uint64_t x = p[r] & body;
        const uint64_t y = x + low + s->tc[r];
        const uint64_t pm = y & p[r] & top;  /* P_i at each marker */
        const uint64_t hit = pm & c[r];
        const uint64_t stop = pm ^ top;      /* ~P_i at each marker */
        s->tc[r] = ((x & low) | ((x | low) & ~y)) >> 63;
        s->spec[r] |= hit;
        s->s1[r] |= hit ^ pm;
        /* pm & (stop >> k) over the whole adder, one limb at a time: the
         * part of this limb's stop that lands in the previous limb. */
        s->err1[r] |= (pm & (stop >> k)) | (s->pm[r] & (stop << (64 - k)));
        s->pm[r] = pm;
    }
}

/* Count the rows whose term flags cover each needs[i].  a and b are
 * (rows, limbs) row-major operands.  Plan q (q < nplans) has masks
 * masks[q] = (body, low, top) x limbs, row-major, and an irregular top
 * pair pair[2q] (top marker bit) / pair[2q+1] (marker below it), or
 * -1 / -1.  Row flag bit 3q is plan q's spec term, 3q+1 its s1 term and
 * 3q+2 its err1 term. */
REPRO_HOT
void repro_counter_counts(const uint64_t *a, const uint64_t *b, ptrdiff_t rows,
                          ptrdiff_t limbs, int k, int nplans,
                          const uint64_t *masks0, const uint64_t *masks1,
                          const int64_t *pair, const uint32_t *needs,
                          ptrdiff_t ncounters, int64_t *counts) {
    const uint64_t *masks[2] = {masks0, masks1};
    plan_rows plan[2];
    uint64_t cy[CC_ROWS], P[CC_ROWS], C[CC_ROWS];
    uint32_t F[CC_ROWS];
    for (ptrdiff_t i = 0; i < ncounters; i++)
        counts[i] = 0;
    for (ptrdiff_t r0 = 0; r0 < rows; r0 += CC_ROWS) {
        const int n = rows - r0 < CC_ROWS ? (int)(rows - r0) : CC_ROWS;
        const uint64_t *ab = a + (size_t)r0 * (size_t)limbs;
        const uint64_t *bb = b + (size_t)r0 * (size_t)limbs;
        for (int r = 0; r < n; r++)
            cy[r] = 0;
        for (int q = 0; q < nplans; q++)
            for (int r = 0; r < n; r++)
                plan[q].tc[r] = plan[q].spec[r] = plan[q].s1[r] =
                    plan[q].err1[r] = plan[q].pm[r] = plan[q].below[r] = 0;
        for (ptrdiff_t j = 0; j < limbs; j++) {
            for (int r = 0; r < n; r++) {
                const uint64_t x = ab[(size_t)r * (size_t)limbs + (size_t)j];
                const uint64_t y = bb[(size_t)r * (size_t)limbs + (size_t)j];
                const uint64_t p = x ^ y;
                const uint64_t c = p ^ (x + y + cy[r]);  /* true carry into each bit */
                cy[r] = ((x & y) | (p & c)) >> 63;
                P[r] = p;
                C[r] = c;
            }
            for (int q = 0; q < nplans; q++) {
                const uint64_t *m = masks[q];
                plan_rows *s = &plan[q];
                plan_limb(s, P, C, n, m[j], m[limbs + j], m[2 * limbs + j], k);
                const int64_t top = pair[2 * q], below = pair[2 * q + 1];
                if (top < 0)
                    continue;
                if (below / 64 == j)
                    for (int r = 0; r < n; r++)
                        s->below[r] = s->pm[r] >> (below % 64);
                if (top / 64 == j)
                    for (int r = 0; r < n; r++)
                        s->err1[r] |= s->below[r] & ~(s->pm[r] >> (top % 64)) & 1;
            }
        }
        for (int r = 0; r < n; r++)
            F[r] = 0;
        for (int q = 0; q < nplans; q++)
            for (int r = 0; r < n; r++)
                F[r] |= (uint32_t)(plan[q].spec[r] != 0) << (3 * q)
                      | (uint32_t)(plan[q].s1[r] != 0) << (3 * q + 1)
                      | (uint32_t)(plan[q].err1[r] != 0) << (3 * q + 2);
        for (ptrdiff_t i = 0; i < ncounters; i++) {
            const uint32_t need = needs[i];
            int64_t hits = 0;
            for (int r = 0; r < n; r++)
                hits += (F[r] & need) == need;
            counts[i] += hits;
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


#: Term bits of a counter's ``need`` mask in :meth:`AccelLib.counter_counts`:
#: plan ``q``'s term ``t`` is bit ``3 * q + COUNTER_TERM_BITS.index(t)``.
COUNTER_TERM_BITS: Tuple[str, ...] = ("spec", "s1", "err1")

#: Largest window the counter kernel takes (its marker shifts stay
#: within one limb step), as in :mod:`repro.engine.kernels`.
_MAX_COUNTER_WINDOW = 63


class PlanTable:
    """The masks of one window plan of a ``width``-bit adder.

    ``masks`` is a ``(3, limbs)`` uint64 array: per 64-bit limb the
    plan's ``body`` (every window bit but its top), ``low`` (each
    window's low bit) and ``top`` (each window's top bit) words.
    ``pair`` is ``(top marker bit, marker bit below it)`` when the top
    window is not ``window`` bits wide, else ``None``.  Validated once,
    here: shape, dtype, no bit at or above ``width``, ``window`` within
    1..63 and the pair inside the adder; read-only after.  So
    :meth:`AccelLib.counter_counts` need only check that its operands
    have ``limbs`` limbs and its tables agree with each other.
    """

    __slots__ = ("masks", "width", "window", "limbs", "pair", "at")

    def __init__(
        self, masks: np.ndarray, width: int, window: int, pair: Optional[Tuple[int, int]]
    ):
        if not isinstance(masks, np.ndarray) or masks.dtype != np.uint64:
            got = getattr(masks, "dtype", type(masks).__name__)
            raise TypeError(f"plan table: expected a uint64 ndarray, got {got}")
        if width < 1 or masks.shape != (3, (width + 63) // 64):
            raise ValueError(
                f"plan table: shape {masks.shape} does not fit a {width}-bit adder"
            )
        if not 1 <= window <= _MAX_COUNTER_WINDOW:
            raise ValueError(
                f"plan table: window {window} outside 1..{_MAX_COUNTER_WINDOW}"
            )
        if width % 64 and (masks[:, -1] >> np.uint64(width % 64)).any():
            raise ValueError(f"plan table: mask bits at or above bit {width}")
        if pair is not None and not 0 <= pair[1] < pair[0] < width:
            raise ValueError(f"plan table: pair {pair} outside a {width}-bit adder")
        self.masks = np.array(masks, dtype=np.uint64, order="C")
        self.masks.flags.writeable = False
        self.width = width
        self.window = window
        self.limbs = masks.shape[1]
        self.pair = (-1, -1) if pair is None else (int(pair[0]), int(pair[1]))
        self.at = self.masks.ctypes.data


class AccelLib:
    """ctypes bindings of the compiled library.

    Thin wrappers over the four exported C functions; ctypes releases
    the GIL for the duration of each call.  Arrays go in as raw
    ``c_void_p`` addresses after explicit checks (:func:`_address` plus
    each wrapper's extent checks), which is cheaper per argument than
    ``ndpointer`` and checks more.  ``tuned_counters`` is true when the
    build gave :meth:`counter_counts` its AVX2/``-O3`` clones (GCC on
    x86-64 glibc), the only build measured faster than the numpy kernel
    at every thesis point.
    """

    def __init__(self, cdll: ctypes.CDLL):
        self.tuned_counters = bool(ctypes.c_int.in_dll(cdll, "repro_counters_tuned").value)
        self._pack_bus = _bind(cdll, "repro_pack_bus", [_P, _N, _N, _P, _N, _P, _N])
        self._unpack_bus = _bind(cdll, "repro_unpack_bus", [_P, _N, _P, _N, _P, _N, _N])
        self._eval = _bind(cdll, "repro_eval_plan", [_P, _N, _P, _P, _P, _N])
        self._counts = _bind(
            cdll,
            "repro_counter_counts",
            [_P, _P, _N, _N, ctypes.c_int, ctypes.c_int, _P, _P, _P, _P, _N, _P],
        )

    def counter_counts(
        self,
        a: np.ndarray,
        b: np.ndarray,
        tables: Sequence[PlanTable],
        needs: Sequence[int],
    ) -> List[int]:
        """Rows whose term flags include each ``needs[i]``, counted in one pass.

        ``a`` and ``b`` are packed ``(rows, limbs)`` uint64 operands, read
        in place.  ``tables`` holds one or two :class:`PlanTable` of the
        same adder and window.  ``needs[i]`` is a mask of
        :data:`COUNTER_TERM_BITS` terms (bit ``3q + t`` is term ``t`` of
        ``tables[q]``); row ``r`` counts toward it when every term in the
        mask holds for the row.
        """
        if not 1 <= len(tables) <= 2:
            raise ValueError(f"tables: expected one or two plan tables, got {len(tables)}")
        for table in tables:
            if not isinstance(table, PlanTable):
                raise TypeError(f"tables: expected PlanTable, got {type(table).__name__}")
        first = tables[0]
        if any((t.width, t.window) != (first.width, first.window) for t in tables):
            raise ValueError("tables: plan tables of different adders or windows")
        a_at = _address(a, 2, "a")
        b_at = _address(b, 2, "b")
        if a.shape != b.shape or a.shape[1] != first.limbs:
            raise ValueError(
                f"operands: expected two equal (rows, {first.limbs}) arrays, got "
                f"{a.shape} and {b.shape}"
            )
        limit = 1 << (3 * len(tables))
        if not all(isinstance(m, int) and 0 < m < limit for m in needs):
            raise ValueError(f"needs: term masks must lie in 1..{limit - 1}, got {list(needs)}")
        need = np.array(needs, dtype=np.uint32)
        pair = np.array([t.pair for t in tables], dtype=np.int64)
        counts = np.zeros(len(needs), dtype=np.int64)
        self._counts(
            a_at, b_at, a.shape[0], first.limbs, first.window, len(tables),
            first.at, tables[-1].at, pair.ctypes.data, need.ctypes.data,
            len(needs), counts.ctypes.data,
        )
        return counts.tolist()

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
