"""Optional C fast path: plan evaluation, transposes and error counting.

The vectorized simulation backend (:mod:`repro.netlist.compile`) has two
dispatch-bound stages at small batch sizes.  Evaluating a
:class:`~repro.netlist.compile.VectorPlan` in numpy costs a few ops per
``(level, kind)`` group, 27-69 groups on the 64-bit designs, whatever
the batch; and the 64x64 bit-matrix transposes that move bus values
between vector-major and net-major bit-plane layouts are a few dozen
full-array ops per 64-bit chunk of a bus.  In C the plan is one call,
and so is each side's transposes: every input bus in one call straight
into the limb array, every output bus in one call out of it.

The Monte Carlo engine's SWAR counter kernel
(:mod:`repro.engine.kernels`) is ~140 numpy passes per block of rows; in
C it is one fused pass per 128-row block, over two limb-major block
buffers that stay in L1.  The kernel fills them from packed operand
arrays, or draws the operands into them itself so that no operand array
exists: uniform ones as numpy's PCG64 stream (a C PCG64 started from the
generator's state, four lanes per block moved on by a precomputed LCG
jump-ahead), Gaussian ones by encoding numpy's ``normal`` draws as
:func:`repro.inputs.generators.gaussian_operands` does.  Both draws give
the generators' words exactly, so counts do not depend on which path
ran.

Those normal draws are made here too, when numpy ships its static
``numpy/random/lib/libnpyrandom.a``: the library links it (and libm)
and runs numpy's ziggurat fast path inline over the same C PCG64,
handing every word it does not take back to the archive's own
``random_standard_normal``, the only code that calls ``exp`` or
``log1p``.  The fast path's tables are file-local in the archive, so
they are probed out of that function at load (``repro_normals_probe``),
and a few thousand draws of a fixed seed must then equal
``Generator.standard_normal``'s bit for bit and leave the generator in
the same state (``AccelLib.normals``); otherwise, or with no archive,
the engine draws through numpy.  The archive's bytes are part of the
build's cache key, so a numpy upgrade rebuilds.

The counter kernel's block counter and Gaussian encoder are built for
AVX2 and for the baseline ISA (GCC on x86-64 glibc only, picked at load
time); the rest of the library, the standard normals included, and
every other toolchain, stays at ``-O2``.  The library exports which
build the counter kernel got
(``AccelLib.tuned_counters``): the engine serves counts from it only
when tuned, since the ``-O2`` build was measured slower than numpy at
n=64.  The kernel needs the compiler's 128-bit integers
(``AccelLib.counters``); every GCC or clang on a 64-bit target has them.

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

* ``pack_buses(words, V, table, nv)`` — the values of every bus a
  :class:`RowTable` lists, one ``(nv, chunks)`` block of words per bus
  (word ``k`` holds bits ``64k .. 64k + 63``) laid end to end in table
  order, transposed into the rows of the ``(num_nets, limbs)`` limb
  array ``V`` that the table names (tail bits zero-filled);
* ``unpack_buses(V, table, out, nv)`` — those rows of ``V`` back into
  the same block layout;
* ``plan_runner(ops, pins, num_nets)`` — a ``runner(V, ones, force=None)``
  closure that evaluates a flattened gate table (one :data:`PLAN_KINDS`
  code and one ``(out, in0..in3)`` row per gate, in plan order) over a
  ``(num_nets, limbs)`` limb array in place, optionally forcing rows to
  stuck values as they are written (:func:`force_table`);
* ``counter_counts(a, b, tables, needs)`` — Monte Carlo error counts of
  packed ``(rows, limbs)`` operands: per row the
  ``spec``/``s1``/``err1`` terms (:data:`COUNTER_TERM_BITS`) of one or
  two window plans, each described by a :class:`PlanTable`, and per
  ``needs`` mask the number of rows holding all its terms;
  ``tuned_counters`` says whether this build of it carries the AVX2
  clone;
* ``counter_counts_drawn(kind, rows, tables, needs, bits=, normals=)`` —
  the same counts of operands the kernel draws (:data:`DRAW_KINDS`);
* ``pcg64_advance(state, inc, delta)`` — the jump-ahead the drawing
  kernel starts and moves its lanes with, exposed to test it against
  numpy's ``PCG64.advance``;
* ``standard_normals(bits, out, scale)`` — ``scale`` times the standard
  normals ``Generator(bits).standard_normal`` draws, into ``out``,
  moving the ``PCG64`` ``bits`` on past them (only when ``normals``).
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import subprocess
import tempfile
import threading
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

_T = TypeVar("_T")

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

/* Bus transposes.  A row table of nbus buses: bus j is widths[j] rows
 * of the (num_nets, limbs) limb array V, the next widths[j] entries of
 * rows (the V row of each bus bit), and its values are the next
 * (nv, chunks) row-major block of words, chunks = max(1, ceil(widths[j]
 * / 64)): word k of vector v holds bits 64k .. 64k + 63.  Each 64-bit
 * chunk of a bus and 64-vector limb is one 64x64 transpose. */
void repro_pack_buses(const uint64_t *words, ptrdiff_t nv, const int32_t *rows,
                      const int32_t *widths, ptrdiff_t nbus, uint64_t *V,
                      ptrdiff_t limbs) {
    uint64_t m[64];
    for (ptrdiff_t j = 0; j < nbus; rows += widths[j++]) {
        const ptrdiff_t width = widths[j], chunks = width > 64 ? (width + 63) / 64 : 1;
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
        words += nv * chunks;
    }
}

void repro_unpack_buses(const uint64_t *V, ptrdiff_t limbs, const int32_t *rows,
                        const int32_t *widths, ptrdiff_t nbus, uint64_t *words,
                        ptrdiff_t nv) {
    uint64_t m[64];
    for (ptrdiff_t j = 0; j < nbus; rows += widths[j++]) {
        const ptrdiff_t width = widths[j], chunks = width > 64 ? (width + 63) / 64 : 1;
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
        words += nv * chunks;
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

/* Evaluate gates [g0, g1) of the table in order over the (num_nets,
 * limbs) limb array V, in place.  Gate g has kind ops[g] and
 * pins[5g .. 5g+4] = (out, in0, in1, in2, in3) rows of V; unused inputs
 * are 0.  A gate's output row is never one of its input rows (its level
 * exceeds theirs), hence restrict.  Inverting gates XOR against ones,
 * the masked all-ones row, so tail bits past the batch stay zero. */
static void eval_gates(uint64_t *V, ptrdiff_t limbs, const uint64_t *ones,
                       const int32_t *ops, const int32_t *pins,
                       ptrdiff_t g0, ptrdiff_t g1) {
    for (ptrdiff_t g = g0; g < g1; g++) {
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

/* Evaluate all ngates gates.  Right after gate at[f] (ascending), its
 * output row is forced, row = (row & keep[f]) | set[f] in every limb,
 * before any reader runs: the stuck-at faults of the fault simulator.
 * nforce = 0 is the plain forward pass, one range. */
void repro_eval_plan(uint64_t *V, ptrdiff_t limbs, const uint64_t *ones,
                     const int32_t *ops, const int32_t *pins, ptrdiff_t ngates,
                     const int32_t *at, const uint64_t *keep,
                     const uint64_t *set, ptrdiff_t nforce) {
    ptrdiff_t g = 0;
    for (ptrdiff_t f = 0; f < nforce; f++) {
        eval_gates(V, limbs, ones, ops, pins, g, at[f] + 1);
        g = at[f] + 1;
        uint64_t *o = V + (size_t)pins[5 * at[f]] * (size_t)limbs;
        for (ptrdiff_t l = 0; l < limbs; l++) o[l] = (o[l] & keep[f]) | set[f];
    }
    eval_gates(V, limbs, ones, ops, pins, g, ngates);
}

/* The Monte Carlo counter kernel's block counter and Gaussian encoder
 * are the hot loops that gain from 256-bit vectors: GCC on x86-64 glibc
 * builds them twice (AVX2 and baseline) and picks one at load time.
 * Everything else, and every other compiler, builds them at the
 * library's -O2, where the counter was not measured faster than numpy
 * at small widths; repro_counters_tuned tells the binding which build
 * it got.  GCC inlines no helper into a function built with other
 * options unless told to.  (Inlining the hot loops into the driver with
 * its 128-bit LCG code instead made cc1 peak at 67 MiB, not 49.) */
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

/* Rows per block of the counter kernel: the block's per-row state
 * (15 words a row with two plans) and, when the kernel draws its own
 * operands, their limb-major block buffers stay in L1. */
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

/* The window plans and counters of one counting call.  Plan q (q <
 * nplans) has masks[q] = (body, low, top) x limbs, row-major, and an
 * irregular top pair pair[2q] (top marker bit) / pair[2q+1] (marker
 * below it), or -1 / -1.  Row flag bit 3q is plan q's spec term, 3q+1
 * its s1 term and 3q+2 its err1 term; counts[i] gains the rows whose
 * flags cover needs[i]. */
typedef struct {
    ptrdiff_t limbs;
    int k, nplans;
    const uint64_t *masks[2];
    const int64_t *pair;
    const uint32_t *needs;
    ptrdiff_t ncounters;
    int64_t *counts;
} count_spec;

/* Count one block of n <= CC_ROWS rows.  Word j of row r of an operand
 * is a[r * rs + j * ls]: rs = limbs, ls = 1 in packed (rows, limbs)
 * arrays, rs = 1, ls = CC_ROWS in the drawn operands' block buffers. */
REPRO_HOT
static void count_block(const count_spec *cs, const uint64_t *a,
                        const uint64_t *b, ptrdiff_t rs, ptrdiff_t ls, int n) {
    plan_rows plan[2];
    uint64_t cy[CC_ROWS], P[CC_ROWS], C[CC_ROWS];
    uint32_t F[CC_ROWS];
    const ptrdiff_t limbs = cs->limbs;
    for (int r = 0; r < n; r++)
        cy[r] = 0;
    for (int q = 0; q < cs->nplans; q++)
        for (int r = 0; r < n; r++)
            plan[q].tc[r] = plan[q].spec[r] = plan[q].s1[r] =
                plan[q].err1[r] = plan[q].pm[r] = plan[q].below[r] = 0;
    for (ptrdiff_t j = 0; j < limbs; j++) {
        for (int r = 0; r < n; r++) {
            const uint64_t x = a[r * rs + j * ls];
            const uint64_t y = b[r * rs + j * ls];
            const uint64_t p = x ^ y;
            const uint64_t c = p ^ (x + y + cy[r]);  /* true carry into each bit */
            cy[r] = ((x & y) | (p & c)) >> 63;
            P[r] = p;
            C[r] = c;
        }
        for (int q = 0; q < cs->nplans; q++) {
            const uint64_t *m = cs->masks[q];
            plan_rows *s = &plan[q];
            plan_limb(s, P, C, n, m[j], m[limbs + j], m[2 * limbs + j], cs->k);
            const int64_t top = cs->pair[2 * q], below = cs->pair[2 * q + 1];
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
    for (int q = 0; q < cs->nplans; q++)
        for (int r = 0; r < n; r++)
            F[r] |= (uint32_t)(plan[q].spec[r] != 0) << (3 * q)
                  | (uint32_t)(plan[q].s1[r] != 0) << (3 * q + 1)
                  | (uint32_t)(plan[q].err1[r] != 0) << (3 * q + 2);
    for (ptrdiff_t i = 0; i < cs->ncounters; i++) {
        const uint32_t need = cs->needs[i];
        int64_t hits = 0;
        for (int r = 0; r < n; r++)
            hits += (F[r] & need) == need;
        cs->counts[i] += hits;
    }
}

/* Operand sources of repro_counter_counts: the kernel draws the first
 * three (DRAW_KINDS order), and reads D_PACKED from arrays. */
enum { D_UNIFORM, D_GAUSSIAN, D_GAUSSIAN_UNSIGNED, D_PACKED };

/* n Gaussian draws x as operands, the steps of inputs/generators.py:
 * rint, clip to +-2^62, int64, then 2's complement (sign-extended,
 * range-checked below 64 bits) or the magnitude.  Returns 1 when a
 * signed value leaves the width's range. */
REPRO_HOT
static int fill_gaussian(uint64_t *A, const double *x, int n, int kind, int width,
                         ptrdiff_t limbs) {
    /* Below 2^51 in magnitude, adding 1.5 * 2^52 rounds to an integer,
     * half to even, and leaves it in the low mantissa bits: rint and the
     * cast in one vector add.  Larger draws take the scalar steps. */
    int64_t *v = (int64_t *)A;
    int large = 0;
    for (int r = 0; r < n; r++) {
        const double t = x[r] + 0x1.8p52;
        int64_t bits;
        __builtin_memcpy(&bits, &t, sizeof bits);
        v[r] = (int64_t)((uint64_t)bits - 0x4338000000000000ULL);
        large |= !(__builtin_fabs(x[r]) < 0x1p51);
    }
    for (int r = 0; large && r < n; r++)
        if (!(__builtin_fabs(x[r]) < 0x1p51)) {
            const double y = x[r];  /* integral from 2^52 on */
            const double t = __builtin_copysign(0x1p52, y);
            const double z = __builtin_fabs(y) < 0x1p52 ? (y + t) - t : y;
            v[r] = (int64_t)(z > 0x1p62 ? 0x1p62 : z < -0x1p62 ? -0x1p62 : z);
        }
    /* Branch-free from here: the signs are coin flips. */
    if (kind == D_GAUSSIAN_UNSIGNED) {
        for (int r = 0; r < n; r++)
            A[r] = (uint64_t)(v[r] < 0 ? -v[r] : v[r]);
        for (ptrdiff_t j = 1; j < limbs; j++)
            for (int r = 0; r < n; r++)
                A[j * CC_ROWS + r] = 0;
        return 0;
    }
    for (ptrdiff_t j = 1; j < limbs; j++)
        for (int r = 0; r < n; r++)
            A[j * CC_ROWS + r] = (uint64_t)-(int64_t)(v[r] < 0);
    if (width >= 64)
        return 0;
    const uint64_t half = (uint64_t)1 << (width - 1);  /* v in [-half, half) */
    int bad = 0;
    for (int r = 0; r < n; r++)
        bad |= A[r] + half >= 2 * half;
    return bad;
}

#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 u128;

/* numpy's PCG64: a 128-bit LCG whose step precedes each output, and the
 * XSL-RR output function (xor the state's halves, rotate right by its
 * top six bits). */
#define PCG_MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

REPRO_INLINE uint64_t pcg_next(u128 *s, u128 inc) {
    *s = *s * PCG_MULT + inc;
    const uint64_t x = (uint64_t)(*s >> 64) ^ (uint64_t)*s;
    const unsigned rot = (unsigned)(*s >> 122);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* The affine map state -> mult * state + plus that moves a state delta
 * steps on (Brown's jump-ahead, as in numpy's PCG64.advance). */
REPRO_INLINE void pcg_jump(u128 delta, u128 inc, u128 *mult, u128 *plus) {
    u128 am = 1, ap = 0, cm = PCG_MULT, cp = inc;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            am *= cm;
            ap = ap * cm + cp;
        }
        cp = (cm + 1) * cp;
        cm *= cm;
    }
    *mult = am;
    *plus = ap;
}

#define U128(words) ((u128)(words)[1] << 64 | (words)[0])

/* st = (state, inc) as (lo, hi) word pairs; moves state delta steps on. */
void repro_pcg64_advance(uint64_t *st, const uint64_t *delta) {
    u128 mult, plus;
    pcg_jump(U128(delta), U128(st + 2), &mult, &plus);
    const u128 s = mult * U128(st) + plus;
    st[0] = (uint64_t)s;
    st[1] = (uint64_t)(s >> 64);
}

#if defined(REPRO_NPYRANDOM)
/* numpy's standard normals over PCG64, the library linked against the
 * libnpyrandom.a that ships inside numpy.  Its random_standard_normal is
 * a ziggurat: per draw one word w, idx = w & 0xff, a sign bit and a
 * 52-bit rabs; x = rabs * wi[idx] is the draw whenever rabs < ki[idx]
 * (>99% of draws).  That fast path runs here, inlined over pcg_next;
 * every other word goes back to numpy's own function, the only place
 * exp and log1p run, so no libm result can differ from numpy's. */

/* numpy's bitgen_t (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;
double random_standard_normal(bitgen_t *);

/* The words random_standard_normal is handed: first, then the PCG64
 * stream (s, inc).  calls counts the words it took. */
typedef struct {
    u128 s, inc;
    uint64_t first;
    int pending, calls;
} zig_source;

static uint64_t zig_next64(void *p) {
    zig_source *z = p;
    z->calls++;
    if (z->pending) {
        z->pending = 0;
        return z->first;
    }
    return pcg_next(&z->s, z->inc);
}
static uint32_t zig_next32(void *p) { return (uint32_t)(zig_next64(p) >> 32); }
static double zig_next_double(void *p) {  /* numpy's PCG64 next_double */
    return (double)(zig_next64(p) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's call on z: the next draw of its stream. */
static double zig_slow(zig_source *z) {
    bitgen_t g = {z, zig_next64, zig_next32, zig_next_double, zig_next64};
    return random_standard_normal(&g);
}

/* numpy's ziggurat tables are file-local to the archive, so they are
 * probed out of random_standard_normal: ki[i] is the smallest rabs that
 * takes more than its first word, wi[i] the draw at rabs = 1 (wherever
 * rabs = 1 is fast; elsewhere only rabs = 0 is, and x = +-0 for any
 * wi).  The words after the first are a PCG64 stream, so the slow path
 * ends as surely as it does on real draws. */
static double zig_wi[256];
static uint64_t zig_ki[256];

static int zig_takes_more(unsigned idx, uint64_t rabs, double *x) {
    zig_source z = {0, 1, rabs << 9 | idx, 1, 0};
    *x = zig_slow(&z);
    return z.calls != 1;
}

void repro_normals_probe(void) {
    for (unsigned i = 0; i < 256; i++) {
        uint64_t lo = 0, hi = (uint64_t)1 << 52;  /* hi: never slow */
        double x;
        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;
            if (zig_takes_more(i, mid, &x))
                hi = mid;
            else
                lo = mid + 1;
        }
        zig_ki[i] = lo;
        zig_wi[i] = lo > 1 && !zig_takes_more(i, 1, &x) ? x : 0.0;
    }
}

/* n draws of Generator.standard_normal times scale into out, from and
 * back into st = (state, inc) as (lo, hi) word pairs.  The sign is an
 * XOR into bit 63, not numpy's branch: the same bits, and a coin-flip
 * branch mispredicts half the time. */
void repro_standard_normals(uint64_t *st, double *out, ptrdiff_t n, double scale) {
    u128 s = U128(st);
    const u128 inc = U128(st + 2);
    for (ptrdiff_t i = 0; i < n; i++) {
        const uint64_t w = pcg_next(&s, inc);
        const unsigned idx = w & 0xff;
        const uint64_t r = w >> 8;
        const uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
        double x = (double)rabs * zig_wi[idx];
        uint64_t bits;
        __builtin_memcpy(&bits, &x, sizeof bits);
        bits ^= r << 63;
        __builtin_memcpy(&x, &bits, sizeof x);
        if (__builtin_expect(rabs >= zig_ki[idx], 0)) {
            zig_source z = {s, inc, w, 1, 0};
            x = zig_slow(&z);
            s = z.s;
        }
        out[i] = x * scale;
    }
    st[0] = (uint64_t)s;
    st[1] = (uint64_t)(s >> 64);
}
#endif

/* Lanes of the uniform draw: lane l fills rows l * LANE_ROWS .. of a
 * block, so four LCG chains run side by side. */
#define LANES 4
#define LANE_ROWS (CC_ROWS / LANES)

/* A full block of one uniform operand into its buffer: lane l draws
 * stream words (r0 + l * LANE_ROWS) * limbs onwards, row-major, then
 * jumps by (mult, plus) to its rows of the next block. */
REPRO_INLINE void fill_lanes(uint64_t *A, u128 *s, u128 inc, ptrdiff_t limbs,
                             u128 mult, u128 plus) {
    u128 s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
    for (int r = 0; r < LANE_ROWS; r++)
        for (ptrdiff_t j = 0; j < limbs; j++) {
            uint64_t *w = A + j * CC_ROWS + r;
            w[0] = pcg_next(&s0, inc);
            w[LANE_ROWS] = pcg_next(&s1, inc);
            w[2 * LANE_ROWS] = pcg_next(&s2, inc);
            w[3 * LANE_ROWS] = pcg_next(&s3, inc);
        }
    s[0] = mult * s0 + plus;
    s[1] = mult * s1 + plus;
    s[2] = mult * s2 + plus;
    s[3] = mult * s3 + plus;
}

/* The n < CC_ROWS rows of a last block, from lane 0 alone. */
REPRO_INLINE void fill_serial(uint64_t *A, u128 *s, u128 inc, ptrdiff_t limbs,
                              int n) {
    for (int r = 0; r < n; r++)
        for (ptrdiff_t j = 0; j < limbs; j++)
            A[j * CC_ROWS + r] = pcg_next(s, inc);
}

/* Count the rows whose term flags cover each needs[i] (see count_spec)
 * of rows operand pairs, block by block:
 *   D_PACKED: a and b are (rows, limbs) row-major uint64 operands, read
 *     in place;
 *   D_UNIFORM: numpy's PCG64 stream from st = (state, inc): a is words
 *     0 .. rows * limbs - 1 and b the next rows * limbs, row-major, as
 *     Generator.integers(0, 2**64, dtype=uint64) takes them;
 *   D_GAUSSIAN, D_GAUSSIAN_UNSIGNED: a and b are rows double draws each.
 * The drawn kinds go block by block into buf (2 * CC_ROWS * limbs
 * words), so no other copy of the operands need exist.  Bits at or
 * above the width stay as drawn (the generators mask them): no plan
 * mask holds such a bit, so no count reads them.  Returns 1, with
 * counts partial, when a signed Gaussian value does not fit the width;
 * else 0. */
int repro_counter_counts(int kind, const void *a, const void *b,
                         const uint64_t *st, ptrdiff_t rows, int width,
                         uint64_t *buf, ptrdiff_t limbs, int k, int nplans,
                         const uint64_t *masks0, const uint64_t *masks1,
                         const int64_t *pair, const uint32_t *needs,
                         ptrdiff_t ncounters, int64_t *counts) {
    const count_spec cs = {limbs, k, nplans, {masks0, masks1}, pair, needs,
                           ncounters, counts};
    uint64_t *A = buf, *B = buf + CC_ROWS * limbs;
    u128 sa[LANES], sb[LANES], inc = 0, mult = 0, plus = 0;
    for (ptrdiff_t i = 0; i < ncounters; i++)
        counts[i] = 0;
    if (kind == D_UNIFORM) {
        inc = U128(st + 2);
        for (int l = 0; l < LANES; l++) {
            pcg_jump((u128)l * LANE_ROWS * limbs, inc, &mult, &plus);
            sa[l] = mult * U128(st) + plus;
            pcg_jump((u128)rows * limbs + (u128)l * LANE_ROWS * limbs, inc, &mult, &plus);
            sb[l] = mult * U128(st) + plus;
        }
        pcg_jump((u128)(CC_ROWS - LANE_ROWS) * limbs, inc, &mult, &plus);
    }
    for (ptrdiff_t r0 = 0; r0 < rows; r0 += CC_ROWS) {
        const int n = rows - r0 < CC_ROWS ? (int)(rows - r0) : CC_ROWS;
        if (kind == D_PACKED) {
            count_block(&cs, (const uint64_t *)a + r0 * limbs,
                        (const uint64_t *)b + r0 * limbs, limbs, 1, n);
            continue;
        }
        if (kind == D_UNIFORM && n == CC_ROWS) {
            fill_lanes(A, sa, inc, limbs, mult, plus);
            fill_lanes(B, sb, inc, limbs, mult, plus);
        } else if (kind == D_UNIFORM) {
            fill_serial(A, sa, inc, limbs, n);
            fill_serial(B, sb, inc, limbs, n);
        } else if (fill_gaussian(A, (const double *)a + r0, n, kind, width, limbs)
                   | fill_gaussian(B, (const double *)b + r0, n, kind, width, limbs)) {
            return 1;
        }
        count_block(&cs, A, B, 1, CC_ROWS, n);
    }
    return 0;
}
#endif
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


def _address(
    arr: np.ndarray, ndim: int, name: str, written: bool = False, dtype=np.uint64
) -> int:
    """Data address of ``arr`` after checking the layout the C code assumes.

    ``arr`` must be an ndarray of native ``dtype`` (uint64 unless told
    otherwise) with ``ndim`` dimensions, C-contiguous, and writeable when
    the C code writes it (``written``).  A wrong type or dtype raises
    :class:`TypeError`, any other mismatch :class:`ValueError`; callers
    check the extents they index.
    """
    if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
        got = getattr(arr, "dtype", type(arr).__name__)
        raise TypeError(f"{name}: expected a {np.dtype(dtype)} ndarray, got {got}")
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
    """The rows of one or more buses in a ``(num_nets, limbs)`` limb array.

    ``buses[j][b]`` is the limb-array row of bit ``b`` of bus ``j``; each
    is a 1-D int32 array.  The table is validated once, here: the rows
    copied into one int32 array, every row checked against
    ``num_nets``, read-only after.  So :meth:`AccelLib.pack_buses` and
    :meth:`AccelLib.unpack_buses` need only check that their limb array
    has ``num_nets`` rows and their words buffer the table's size.
    ``widths[j]`` is bus ``j``'s bits, ``chunks[j]`` its 64-bit words
    per value, and ``words`` their sum: the words of one vector over
    every bus.  A table works without the library; the numpy path
    gathers ``V[rows]`` of each bus of :meth:`buses`.
    """

    __slots__ = ("rows", "num_nets", "widths", "chunks", "words", "_widths", "at")

    def __init__(self, buses: Sequence[np.ndarray], num_nets: int):
        for rows in buses:
            if not isinstance(rows, np.ndarray) or rows.dtype != np.int32:
                got = getattr(rows, "dtype", type(rows).__name__)
                raise TypeError(f"row table: expected int32 ndarrays, got {got}")
            if rows.ndim != 1:
                raise ValueError(f"row table: expected 1-D rows, got shape {rows.shape}")
        flat = np.concatenate([np.empty(0, dtype=np.int32), *buses])
        if flat.size and not (0 <= flat.min() and flat.max() < num_nets):
            raise ValueError(
                f"row table: rows {flat.min()}..{flat.max()} outside [0, {num_nets})"
            )
        self.rows = flat
        self.rows.flags.writeable = False
        self.num_nets = num_nets
        self.widths = tuple(rows.shape[0] for rows in buses)
        self.chunks = tuple(max(1, (width + 63) // 64) for width in self.widths)
        self.words = sum(self.chunks)
        self._widths = np.array(self.widths, dtype=np.int32)
        self._widths.flags.writeable = False
        self.at = (self.rows.ctypes.data, self._widths.ctypes.data, len(self.widths))

    def buses(self) -> List[np.ndarray]:
        """Each bus's rows, in table order (read-only views of ``rows``)."""
        starts = itertools.accumulate(self.widths, initial=0)
        return [self.rows[start : start + width] for start, width in zip(starts, self.widths)]


#: Term bits of a counter's ``need`` mask in :meth:`AccelLib.counter_counts`:
#: plan ``q``'s term ``t`` is bit ``3 * q + COUNTER_TERM_BITS.index(t)``.
COUNTER_TERM_BITS: Tuple[str, ...] = ("spec", "s1", "err1")

#: Operand kinds of :meth:`AccelLib.counter_counts_drawn`, in the order
#: of the C ``enum`` of draw kinds.
DRAW_KINDS: Tuple[str, ...] = ("uniform", "gaussian", "gaussian-unsigned")

#: Rows per block of the C counter kernel (``CC_ROWS``): the drawn kernel's
#: buffer holds one block of each operand.
_CC_ROWS = 128

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

    Thin wrappers over the exported C functions; ctypes releases
    the GIL for the duration of each call.  Arrays go in as raw
    ``c_void_p`` addresses after explicit checks (:func:`_address` plus
    each wrapper's extent checks), which is cheaper per argument than
    ``ndpointer`` and checks more.  ``counters`` is true when the build
    has the counter kernel (the compiler has 128-bit integers), and
    ``tuned_counters`` when it also gave the kernel its AVX2/``-O3``
    clones (GCC on x86-64 glibc), the only build measured faster than
    the numpy kernel at every thesis point.  ``normals`` is true when
    the build links numpy's ``libnpyrandom.a`` and its standard normals
    passed the load-time check (:func:`_normals_agree`).
    """

    def __init__(self, cdll: ctypes.CDLL):
        # The counter kernel needs the compiler's 128-bit integers.
        self.counters = hasattr(cdll, "repro_counter_counts")
        self.tuned_counters = self.counters and bool(
            ctypes.c_int.in_dll(cdll, "repro_counters_tuned").value
        )
        self._pack_buses = _bind(cdll, "repro_pack_buses", [_P, _N, _P, _P, _N, _P, _N])
        self._unpack_buses = _bind(
            cdll, "repro_unpack_buses", [_P, _N, _P, _P, _N, _P, _N]
        )
        self._eval = _bind(
            cdll, "repro_eval_plan", [_P, _N, _P, _P, _P, _N, _P, _P, _P, _N]
        )
        if self.counters:
            _I = ctypes.c_int
            self._counts = _bind(
                cdll,
                "repro_counter_counts",
                [_I, _P, _P, _P, _N, _I, _P, _N, _I, _I, _P, _P, _P, _P, _N, _P],
            )
            self._counts.restype = _I
            self._advance = _bind(cdll, "repro_pcg64_advance", [_P, _P])
        # Linked against numpy's libnpyrandom.a, and its draws checked.
        self.normals = hasattr(cdll, "repro_standard_normals")
        if self.normals:
            self._normals = _bind(
                cdll, "repro_standard_normals", [_P, _P, _N, ctypes.c_double]
            )
            _bind(cdll, "repro_normals_probe", [])()
            self.normals = _normals_agree(self.standard_normals)

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
        first, plans, _arrays = _check_plans(tables, needs)
        a_at = _address(a, 2, "a")
        b_at = _address(b, 2, "b")
        if a.shape != b.shape or a.shape[1] != first.limbs:
            raise ValueError(
                f"operands: expected two equal (rows, {first.limbs}) arrays, got "
                f"{a.shape} and {b.shape}"
            )
        return self._run_counts(len(DRAW_KINDS), a_at, b_at, None, a.shape[0], first, plans)

    def counter_counts_drawn(
        self,
        kind: str,
        rows: int,
        tables: Sequence[PlanTable],
        needs: Sequence[int],
        bits: Optional[np.random.PCG64] = None,
        normals: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Optional[List[int]]:
        """:meth:`counter_counts` of ``rows`` operand pairs the kernel draws.

        ``kind`` is one of :data:`DRAW_KINDS`.  ``"uniform"`` draws from
        the PCG64 ``bits``: ``a`` is the stream's next ``rows * limbs``
        words and ``b`` the ones after, row-major, and ``bits`` moves on
        past both, as ``Generator(bits).integers(0, 2**64, dtype=uint64)``
        would leave it.  The
        Gaussian kinds take ``normals = (a draws, b draws)``, two
        float64 ``(rows,)`` arrays, and encode them as
        :func:`repro.inputs.generators.gaussian_operands` does.  Returns
        ``None`` when a signed Gaussian value does not fit the width.
        """
        first, plans, _arrays = _check_plans(tables, needs)
        if kind not in DRAW_KINDS:
            raise ValueError(f"kind: expected one of {DRAW_KINDS}, got {kind!r}")
        if not isinstance(rows, int) or rows < 0:
            raise ValueError(f"rows: expected a non-negative int, got {rows!r}")
        if kind == "uniform":
            if not isinstance(bits, np.random.PCG64):
                raise TypeError(f"bits: expected a PCG64, got {type(bits).__name__}")
            step = np.array(_words128(2 * rows * first.limbs), dtype=np.uint64)

            def draw(st: np.ndarray) -> Optional[List[int]]:
                counts = self._run_counts(0, None, None, st.ctypes.data, rows, first, plans)
                self._advance(st.ctypes.data, step.ctypes.data)
                return counts

            return _on_pcg64(bits, draw)
        if first.width < 2:
            raise ValueError("Gaussian operands need width >= 2")
        ga, gb = normals if normals is not None else (None, None)
        at = []
        for name, x in (("normals[0]", ga), ("normals[1]", gb)):
            at.append(_address(x, 1, name, dtype=np.float64))
            if x.shape[0] != rows:
                raise ValueError(f"{name}: expected {rows} draws, got {x.shape[0]}")
        return self._run_counts(DRAW_KINDS.index(kind), *at, None, rows, first, plans)

    def _run_counts(
        self, kind: int, a_at, b_at, st_at, rows: int, first: PlanTable, plans: tuple
    ) -> Optional[List[int]]:
        """One ``repro_counter_counts`` call; ``None`` when it reports a
        signed Gaussian value out of range."""
        buf = np.empty(2 * _CC_ROWS * first.limbs, dtype=np.uint64)
        counts = np.zeros(plans[-1], dtype=np.int64)
        bad = self._counts(
            kind, a_at, b_at, st_at, rows, first.width, buf.ctypes.data, *plans,
            counts.ctypes.data,
        )
        return None if bad else counts.tolist()

    def pcg64_advance(self, state: int, inc: int, delta: int) -> int:
        """The PCG64 ``state`` moved ``delta`` steps on (mod 2**128), by the
        jump-ahead the drawn counter kernel starts its lanes with."""
        st = np.array(
            _words128(state % (1 << 128)) + _words128(inc % (1 << 128)), dtype=np.uint64
        )
        step = np.array(_words128(delta % (1 << 128)), dtype=np.uint64)
        self._advance(st.ctypes.data, step.ctypes.data)
        return int(st[0]) | int(st[1]) << 64

    def standard_normals(
        self, bits: np.random.PCG64, out: np.ndarray, scale: float = 1.0
    ) -> np.ndarray:
        """Fill and return ``out`` with ``scale`` times the standard normals
        ``Generator(bits).standard_normal`` would draw, and move ``bits``
        past the words they took, as that call would.

        ``out`` is a writeable 1-D float64 array.  Only for libraries
        whose draws passed the load-time check (``normals``).
        """
        at = _address(out, 1, "out", written=True, dtype=np.float64)
        _on_pcg64(bits, lambda st: self._normals(st.ctypes.data, at, out.shape[0], scale))
        return out

    def pack_buses(
        self, words: np.ndarray, V: np.ndarray, table: RowTable, num_vectors: int
    ) -> None:
        """Transpose every bus's values into its rows of ``V``, in one call.

        ``words`` is 1-D, ``num_vectors * table.words`` long: bus ``j``'s
        ``(num_vectors, table.chunks[j])`` row-major block follows those
        of the buses before it, and word ``k`` of a vector holds its bits
        ``64k .. 64k + 63``.  ``V`` is a writeable ``(table.num_nets,
        limbs)`` limb array with room for the vectors.  Every limb of the
        buses' rows is written; bits past ``num_vectors`` are zero, the
        tail invariant of ``limb_ones``.
        """
        src = _address(words, 1, "words")
        dst = _address(V, 2, "V", written=True)
        _check_buses(V, table, words, "words", num_vectors)
        self._pack_buses(src, num_vectors, *table.at, dst, V.shape[1])

    def unpack_buses(
        self, V: np.ndarray, table: RowTable, out: np.ndarray, num_vectors: int
    ) -> np.ndarray:
        """Read every bus's rows of ``V`` back into per-vector words.

        Fills and returns ``out``, a writeable 1-D array laid out like
        :meth:`pack_buses`'s ``words``; ``V`` is a ``(table.num_nets,
        limbs)`` limb array holding at least ``num_vectors`` vectors.
        """
        src = _address(V, 2, "V")
        dst = _address(out, 1, "out", written=True)
        _check_buses(V, table, out, "out", num_vectors)
        self._unpack_buses(src, V.shape[1], *table.at, dst, num_vectors)
        return out

    def plan_runner(
        self, ops: np.ndarray, pins: np.ndarray, num_nets: int
    ) -> Callable[..., np.ndarray]:
        """A ``runner(V, ones, force=None)`` evaluating a gate table over
        ``V`` in place.

        ``ops`` is an int32 :data:`PLAN_KINDS` code per gate and ``pins``
        an int32 ``(gates, 5)`` array of ``(out, in0..in3)`` rows, unused
        inputs 0, in an order where every gate's inputs are written
        before it runs.  Both are validated here once, including every
        pin against ``num_nets``, and kept alive on the closure, which
        reuses their addresses.  Each call checks ``V`` is a writeable
        C-contiguous uint64 ``(num_nets, limbs)`` array and ``ones`` a
        ``(limbs,)`` one, then makes one C call and returns ``V``.

        ``force`` forces rows (:func:`force_table`, ``first = num_nets -
        gates``); a forced row must be written by the gate at table
        position ``row - first``, as in a plan's gate table.
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
        first = num_nets - gates

        def runner(
            V: np.ndarray, ones: np.ndarray, force: Optional[tuple] = None
        ) -> np.ndarray:
            ones_at = _address(ones, 1, "ones")
            limbs = ones.shape[0]
            V_at = _address(V, 2, "V", written=True)
            if V.shape != (num_nets, limbs):
                raise ValueError(f"V: expected shape {(num_nets, limbs)}, got {V.shape}")
            if force is None:
                self._eval(V_at, limbs, ones_at, ops_at, pins_at, gates, None, None, None, 0)
                return V
            at, keep, set_ = force_table(force, first, num_nets)
            if not np.array_equal(pins[at, 0], at + first):
                raise ValueError("force: a forced row is not written by its table position")
            self._eval(
                V_at, limbs, ones_at, ops_at, pins_at, gates,
                _address(at, 1, "at", dtype=np.int32), _address(keep, 1, "keep"),
                _address(set_, 1, "set"), at.shape[0],
            )
            return V

        # The closure holds only the addresses; this keeps the arrays alive.
        runner.table = (ops, pins)  # type: ignore[attr-defined]
        return runner


def force_table(
    force: Tuple[np.ndarray, np.ndarray, np.ndarray], first: int, num_nets: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a runner's ``force = (rows, keep, set)``; return ``(at, keep,
    set)``, ``at`` the int32 table positions ``rows - first``.

    Right after the gate writing a forced row runs, the row becomes
    ``(row & keep) | set`` in every limb.  ``rows`` must ascend strictly
    within the driven rows ``[first, num_nets)``, and ``keep``/``set``
    be uint64 arrays of one word per row; anything else raises.
    """
    rows, keep, set_ = force
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise TypeError(f"force: rows must be a 1-D integer array, got {rows.dtype}")
    rows = rows.astype(np.int64)
    if rows.size and not (first <= rows[0] and rows[-1] < num_nets) or (np.diff(rows) <= 0).any():
        raise ValueError(f"force: rows must ascend strictly within [{first}, {num_nets})")
    for masks in (keep, set_):
        if not isinstance(masks, np.ndarray) or masks.dtype != np.uint64:
            raise TypeError("force: keep and set must be uint64 ndarrays")
        if masks.shape != rows.shape:
            raise ValueError(f"force: {masks.shape} masks for {rows.shape} rows")
    return (rows - first).astype(np.int32), keep, set_


def _check_plans(
    tables: Sequence[PlanTable], needs: Sequence[int]
) -> Tuple[PlanTable, tuple, tuple]:
    """The first table, the counter kernels' plan arguments, and the
    arrays those arguments point into (the caller holds them for the
    call), after checking one or two tables of one adder and window and
    term masks in range."""
    if not 1 <= len(tables) <= 2:
        raise ValueError(f"tables: expected one or two plan tables, got {len(tables)}")
    for table in tables:
        if not isinstance(table, PlanTable):
            raise TypeError(f"tables: expected PlanTable, got {type(table).__name__}")
    first = tables[0]
    if any((t.width, t.window) != (first.width, first.window) for t in tables):
        raise ValueError("tables: plan tables of different adders or windows")
    limit = 1 << (3 * len(tables))
    if not all(isinstance(m, int) and 0 < m < limit for m in needs):
        raise ValueError(f"needs: term masks must lie in 1..{limit - 1}, got {list(needs)}")
    need = np.array(needs, dtype=np.uint32)
    pair = np.array([t.pair for t in tables], dtype=np.int64)
    plans = (
        first.limbs, first.window, len(tables), first.at, tables[-1].at,
        pair.ctypes.data, need.ctypes.data, len(needs),
    )
    return first, plans, (need, pair)


def _on_pcg64(bits: np.random.PCG64, fn: Callable[[np.ndarray], _T]) -> _T:
    """``fn(st)`` under ``bits``' lock, ``st`` its ``(state, inc)`` as the
    C code's (lo, hi) word pairs; the state ``fn`` leaves in ``st``
    becomes ``bits``' state.  A buffered half word stays, as numpy's own
    64-bit draws leave it."""
    with bits.lock:
        state = bits.state
        pcg = state["state"]
        st = np.array(_words128(pcg["state"]) + _words128(pcg["inc"]), dtype=np.uint64)
        result = fn(st)
        pcg["state"] = int(st[0]) | int(st[1]) << 64
        bits.state = state
    return result


#: Seed and size of the load-time check of the C standard normals.
_NORMALS_CHECK = (2012, 4096)


def _normals_agree(fill: Callable[[np.random.PCG64, np.ndarray], np.ndarray]) -> bool:
    """Whether ``fill(bits, out)`` draws ``Generator(bits).standard_normal``
    bit for bit and leaves ``bits`` where that call does, on
    :data:`_NORMALS_CHECK`."""
    seed, draws = _NORMALS_CHECK
    bits = np.random.PCG64(seed)
    got = fill(bits, np.empty(draws))
    numpy = np.random.Generator(np.random.PCG64(seed))
    want = numpy.standard_normal(draws)
    return (
        np.array_equal(got.view(np.uint64), want.view(np.uint64))
        and bits.state == numpy.bit_generator.state
    )


def _words128(value: int) -> List[int]:
    return [value & 0xFFFFFFFFFFFFFFFF, value >> 64]


def _check_buses(
    V: np.ndarray, table: RowTable, words: np.ndarray, name: str, num_vectors: int
) -> None:
    """``V`` must be ``table``'s limb array, with room for ``num_vectors``
    vectors, and ``words`` their words over every bus of the table."""
    if not isinstance(table, RowTable):
        raise TypeError(f"table: expected a RowTable, got {type(table).__name__}")
    if V.shape[0] != table.num_nets:
        raise ValueError(f"V: {V.shape[0]} rows, the row table is for {table.num_nets}")
    if not isinstance(num_vectors, int) or not 0 <= num_vectors <= 64 * V.shape[1]:
        raise ValueError(
            f"V: room for {64 * V.shape[1]} vectors, got num_vectors={num_vectors!r}"
        )
    if words.shape[0] != num_vectors * table.words:
        raise ValueError(
            f"{name}: {words.shape[0]} words, {num_vectors} vectors of the row "
            f"table's buses take {num_vectors * table.words}"
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


def _npyrandom_archive() -> Optional[str]:
    """numpy's static ``libnpyrandom.a``, which exports
    ``random_standard_normal``, or ``None`` when this numpy ships none."""
    path = os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")
    return path if os.path.isfile(path) else None


def _build(source: str, out_path: str) -> bool:
    """Compile ``source`` into ``out_path``; False on any failure.

    Links :func:`_npyrandom_archive` (and libm) with the standard normals
    compiled in when the archive exists; if that link fails, builds
    without them.  Writes through a temp file + atomic rename so
    concurrent builders (e.g. serve shards warming in parallel) race
    benignly.
    """
    directory = os.path.dirname(out_path)
    archive = _npyrandom_archive()
    try:
        os.makedirs(directory, exist_ok=True)
        fd, src_path = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        tmp_so = src_path[:-2] + ".so"
        base = ["-O2", "-shared", "-fPIC", "-o", tmp_so]
        variants = [base + [src_path]]
        if archive is not None:
            variants.insert(0, base + ["-DREPRO_NPYRANDOM", src_path, archive, "-lm"])
        for compiler, flags in itertools.product(("cc", "gcc", "clang"), variants):
            try:
                result = subprocess.run(
                    [compiler, *flags], capture_output=True, timeout=60
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
    key = hashlib.sha256(_SOURCE.encode())
    archive = _npyrandom_archive()
    if archive is not None:  # a numpy upgrade rebuilds
        try:
            with open(archive, "rb") as handle:
                key.update(handle.read())
        except OSError:
            return None
    digest = key.hexdigest()[:16]
    so_path = os.path.join(_cache_dir(), f"bitplanes-{digest}.so")
    if not os.path.exists(so_path) and not _build(_SOURCE, so_path):
        return None
    try:
        return AccelLib(ctypes.CDLL(so_path))
    except OSError:
        return None
