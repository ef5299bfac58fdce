/* Native alignment kernels.
 *
 * Three entry points, all exposed through the plain Python buffer
 * protocol (no numpy C API — the numpy side marshals contiguous
 * arrays in `fragalign/_native/__init__.py`):
 *
 *   bitparallel_scores(a, b, out, B, n, m, family, mode)
 *     Myers-style bit-parallel DP over uint64 words, 64 query rows
 *     per word.  family 0 = "unit" ((c,-c,-c) models, the BitPAl-
 *     flavoured 4-value delta algorithm), family 1 = "lev"
 *     ((0,-c,-c) models, classic Myers/Hyyro).  mode 0 = global,
 *     mode 1 = overlap (free a-suffix start, max over last row).
 *     Scores land in `out` (int64, units of c; the caller scales).
 *
 *   striped_local_scores(a, b, out, B, n, m, matrix, pen)
 *     Farrar striped Smith-Waterman scores (no traceback), 8 x int32 lanes,
 *     linear gap (`pen` = -gap, a positive integer) and a general
 *     5x5 integer substitution matrix (A/C/G/T/N codes 0..4).
 *
 *   align_codes(a, b, dirs, ends, B, n, m, matrix, pen, mode)
 *     The align verbs' forward sweep: an int32 linear-gap DP that
 *     writes one uint8 direction code per cell into `dirs` (B x n x m,
 *     row-major per pair) and each pair's (score, end_i, end_j) into
 *     `ends`.  mode 0 = global, 1 = overlap, 2 = local.  The codes and
 *     end cells are the numpy kernels' (fragalign/align/pairwise.py),
 *     so the Python direction-code walks recover the same alignments.
 *
 * The lane arithmetic is written as fixed-8 per-lane loops over a
 * struct of int32 — every hot loop has a compile-time trip count, so
 * -O3 auto-vectorizes it to whatever SIMD width the host has without
 * tying the source to a specific vector extension.
 *
 * Every entry point releases the GIL around the whole batch.  A build
 * through setup.py stamps the sha256 of this file into the module as
 * SOURCE_HASH, so the loader can refuse a build of older source.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---------------- bit-parallel (Myers / BitPAl) ------------------- */

/* X[i] = S[i] | (R[i] & X[i-1]) along the bit chain, multiword.  The
 * carry of R + (S << 1) rides exactly the runs of R sitting on top of
 * a seed; OR-ing the shifted seed back in covers the empty-run case
 * the adder's carry-in misses. */
static inline void propagate(
    int W, const uint64_t *S, const uint64_t *R, uint64_t *X)
{
    uint64_t shc = 0, addc = 0;
    for (int w = 0; w < W; w++) {
        uint64_t s = S[w], r = R[w];
        uint64_t sh = (s << 1) | shc;
        shc = s >> 63;
        uint64_t u = r + sh + addc;
        addc = ((r & sh) | ((r | sh) & ~u)) >> 63;
        uint64_t c = (u ^ r ^ sh) | sh;
        X[w] = s | (r & c);
    }
}

static inline void shl1(int W, const uint64_t *x, uint64_t *out)
{
    uint64_t c = 0;
    for (int w = 0; w < W; w++) {
        uint64_t v = x[w];
        out[w] = (v << 1) | c;
        c = v >> 63;
    }
}

/* One pair, unit family ((c,-c,-c)): vertical deltas DV in
 * {-1,0,1,2} tracked as four disjoint indicators Vm/V0/V1/V2;
 * horizontal-delta thresholds A_t = [DH >= t] per text char. */
static int64_t unit_pair(
    const uint8_t *a, int n, const uint8_t *b, int m, int mode,
    uint64_t *work /* (4 eq + 4 state + 1 valid + 8 scratch) * W */)
{
    int W = (n + 63) >> 6;
    uint64_t *eq = work;            /* 4 * W */
    uint64_t *Vm = eq + 4 * W, *V0 = Vm + W, *V1 = V0 + W, *V2 = V1 + W;
    uint64_t *valid = V2 + W;
    uint64_t *S = valid + W, *R = S + W, *A2 = R + W, *A2s = A2 + W;
    uint64_t *A1 = A2s + W, *A1s = A1 + W, *A0 = A1s + W, *B0 = A0 + W;

    memset(eq, 0, (size_t)4 * W * sizeof(uint64_t));
    for (int i = 0; i < n; i++)
        eq[(size_t)a[i] * W + (i >> 6)] |= (uint64_t)1 << (i & 63);
    for (int w = 0; w < W; w++)
        valid[w] = ~(uint64_t)0;
    if (n & 63)
        valid[W - 1] = (((uint64_t)1 << (n & 63)) - 1);

    /* global: H[i][0] = -i, every DV = -1; overlap: H[i][0] = 0. */
    memset(Vm, 0, (size_t)4 * W * sizeof(uint64_t));
    memcpy(mode == 0 ? Vm : V0, valid, (size_t)W * sizeof(uint64_t));

    int wn = (n - 1) >> 6, bn = (n - 1) & 63;
    int64_t run = mode == 0 ? -(int64_t)n : 0, best = 0;

    for (int j = 0; j < m; j++) {
        const uint64_t *e = eq + (size_t)b[j] * W;
        for (int w = 0; w < W; w++) {
            R[w] = ~e[w] & Vm[w];
            S[w] = e[w] & Vm[w];
        }
        propagate(W, S, R, A2);
        shl1(W, A2, A2s);
        for (int w = 0; w < W; w++)
            S[w] = (e[w] & (Vm[w] | V0[w])) | (~e[w] & V0[w] & A2s[w]);
        propagate(W, S, R, A1);
        shl1(W, A1, A1s);
        for (int w = 0; w < W; w++)
            A0[w] = (e[w] & ~V2[w]) | R[w] | (~e[w] & V0[w] & A1s[w])
                  | (~e[w] & V1[w] & A2s[w]);

        run += (int64_t)((A0[wn] >> bn) & 1) + (int64_t)((A1[wn] >> bn) & 1)
             + (int64_t)((A2[wn] >> bn) & 1) - 1;
        if (mode == 1 && run > best)
            best = run;

        shl1(W, A0, B0);
        for (int w = 0; w < W; w++) {
            uint64_t ew = e[w], nw = ~ew;
            uint64_t v12 = V1[w] | V2[w];
            uint64_t nv2 = ~B0[w] & (ew | V2[w]);
            uint64_t nv1 = (ew & ~A1s[w])
                | (nw & ((~B0[w] & v12) | (B0[w] & ~A1s[w] & V2[w])));
            uint64_t nv0 = (ew & ~A2s[w])
                | (nw & (~B0[w] | (B0[w] & ~A1s[w] & v12)
                          | (A1s[w] & ~A2s[w] & V2[w])));
            Vm[w] = ~nv0 & valid[w];
            V0[w] = nv0 & ~nv1;
            V1[w] = nv1 & ~nv2;
            V2[w] = nv2;
        }
    }
    return mode == 1 ? best : run;
}

/* One pair, lev family ((0,-c,-c)): classic Myers, returns -distance.
 * Overlap under this family is identically 0; the caller never asks. */
static int64_t lev_pair(
    const uint8_t *a, int n, const uint8_t *b, int m,
    uint64_t *work /* (4 eq + 2 state + 1 valid) * W */)
{
    int W = (n + 63) >> 6;
    uint64_t *eq = work;
    uint64_t *Pv = eq + 4 * W, *Mv = Pv + W, *valid = Mv + W;

    memset(eq, 0, (size_t)4 * W * sizeof(uint64_t));
    for (int i = 0; i < n; i++)
        eq[(size_t)a[i] * W + (i >> 6)] |= (uint64_t)1 << (i & 63);
    for (int w = 0; w < W; w++) {
        valid[w] = ~(uint64_t)0;
        Mv[w] = 0;
    }
    if (n & 63)
        valid[W - 1] = (((uint64_t)1 << (n & 63)) - 1);
    memcpy(Pv, valid, (size_t)W * sizeof(uint64_t));

    int wn = (n - 1) >> 6, bn = (n - 1) & 63;
    int64_t dist = n;

    for (int j = 0; j < m; j++) {
        const uint64_t *e = eq + (size_t)b[j] * W;
        uint64_t addc = 0, phc = 1, mhc = 0;
        for (int w = 0; w < W; w++) {
            uint64_t ew = e[w], pv = Pv[w], mv = Mv[w];
            uint64_t x = ew & pv;
            uint64_t u = x + pv + addc;
            addc = ((x & pv) | ((x | pv) & ~u)) >> 63;
            uint64_t xh = (u ^ pv) | ew;
            uint64_t xv = ew | mv;
            uint64_t ph = mv | ~(xh | pv);
            uint64_t mh = pv & xh;
            if (w == wn) {
                dist += (int64_t)((ph >> bn) & 1) - (int64_t)((mh >> bn) & 1);
            }
            uint64_t phs = (ph << 1) | phc;
            phc = ph >> 63;
            uint64_t mhs = (mh << 1) | mhc;
            mhc = mh >> 63;
            Pv[w] = (mhs | ~(xv | phs)) & valid[w];
            Mv[w] = phs & xv;
        }
    }
    return -dist;
}

static PyObject *bitparallel_scores(PyObject *self, PyObject *args)
{
    Py_buffer a, b, out;
    int B, n, m, family, mode;
    if (!PyArg_ParseTuple(args, "y*y*w*iiiii",
                          &a, &b, &out, &B, &n, &m, &family, &mode))
        return NULL;
    int ok = B >= 0 && n > 0 && m > 0
        && a.len >= (Py_ssize_t)B * n && b.len >= (Py_ssize_t)B * m
        && out.len >= (Py_ssize_t)B * (Py_ssize_t)sizeof(int64_t)
        && (family == 0 || family == 1) && (mode == 0 || mode == 1)
        && !(family == 1 && mode == 1);
    if (!ok) {
        PyBuffer_Release(&a);
        PyBuffer_Release(&b);
        PyBuffer_Release(&out);
        PyErr_SetString(PyExc_ValueError, "bad bitparallel_scores arguments");
        return NULL;
    }
    int W = (n + 63) >> 6;
    uint64_t *work = malloc((size_t)17 * W * sizeof(uint64_t));
    if (work == NULL) {
        PyBuffer_Release(&a);
        PyBuffer_Release(&b);
        PyBuffer_Release(&out);
        return PyErr_NoMemory();
    }
    const uint8_t *ap = a.buf, *bp = b.buf;
    int64_t *op = out.buf;
    int badcode = 0;
    Py_BEGIN_ALLOW_THREADS
    /* Codes above 3 would index past the 4-row eq table. */
    for (Py_ssize_t i = 0; i < (Py_ssize_t)B * n; i++)
        badcode |= ap[i] > 3;
    for (Py_ssize_t i = 0; i < (Py_ssize_t)B * m; i++)
        badcode |= bp[i] > 3;
    if (!badcode) {
        for (int k = 0; k < B; k++) {
            const uint8_t *ak = ap + (size_t)k * n;
            const uint8_t *bk = bp + (size_t)k * m;
            op[k] = family == 0 ? unit_pair(ak, n, bk, m, mode, work)
                                : lev_pair(ak, n, bk, m, work);
        }
    }
    Py_END_ALLOW_THREADS
    free(work);
    if (badcode) {
        PyBuffer_Release(&a);
        PyBuffer_Release(&b);
        PyBuffer_Release(&out);
        PyErr_SetString(PyExc_ValueError,
                        "bitparallel_scores: sequence code above 3");
        return NULL;
    }
    PyBuffer_Release(&a);
    PyBuffer_Release(&b);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ---------------- striped Smith-Waterman (Farrar) ----------------- */

#define LANES 8
#define NEG_I32 (INT32_MIN / 4)

typedef struct {
    int32_t v[LANES];
} vec;

/* One pair: striped query profile over codes 0..4, linear gap `pen`,
 * local score-only.  Query position for (vector v, lane l) is
 * v + l * L; tail padding positions get NEG profile scores, and any
 * F leakage into them stays strictly below the real cell it chained
 * from, so the running max never reads a phantom cell. */
static int64_t striped_local_one(
    const uint8_t *a, int n, const uint8_t *b, int m,
    const int32_t *matrix, int32_t pen,
    vec *profile /* 5 * L */, vec *Hs, vec *Hl, vec *E)
{
    int L = (n + LANES - 1) / LANES;
    for (int code = 0; code < 5; code++) {
        for (int v = 0; v < L; v++) {
            vec p;
            for (int l = 0; l < LANES; l++) {
                int pos = v + l * L;
                p.v[l] = pos < n ? matrix[(size_t)a[pos] * 5 + code] : NEG_I32;
            }
            profile[(size_t)code * L + v] = p;
        }
    }
    for (int v = 0; v < L; v++)
        for (int l = 0; l < LANES; l++) {
            Hs[v].v[l] = 0;
            Hl[v].v[l] = 0;
            E[v].v[l] = NEG_I32;
        }

    vec vmax;
    for (int l = 0; l < LANES; l++)
        vmax.v[l] = 0;

    for (int j = 0; j < m; j++) {
        const vec *prof = profile + (size_t)b[j] * L;
        vec vH, vF;
        /* diagonal feed: previous column's last vector, lanes shifted
         * up one, lane 0 = H[0][j-1] = 0 */
        for (int l = LANES - 1; l > 0; l--)
            vH.v[l] = Hs[L - 1].v[l - 1];
        vH.v[0] = 0;
        for (int l = 0; l < LANES; l++)
            vF.v[l] = NEG_I32;
        { vec *t = Hl; Hl = Hs; Hs = t; }

        for (int v = 0; v < L; v++) {
            vec e = E[v], h = vH, p = prof[v];
            for (int l = 0; l < LANES; l++) {
                int32_t x = h.v[l] + p.v[l];
                if (x < e.v[l]) x = e.v[l];
                if (x < vF.v[l]) x = vF.v[l];
                if (x < 0) x = 0;
                h.v[l] = x;
                if (x > vmax.v[l]) vmax.v[l] = x;
            }
            Hs[v] = h;
            for (int l = 0; l < LANES; l++) {
                int32_t ne = e.v[l] > h.v[l] ? e.v[l] : h.v[l];
                E[v].v[l] = ne - pen;
                int32_t nf = vF.v[l] > h.v[l] ? vF.v[l] : h.v[l];
                vF.v[l] = nf - pen;
            }
            vH = Hl[v];
        }

        /* Lazy-F: chase gap-in-b chains across lane boundaries.  E is
         * deliberately not refreshed — a down-then-right corner costs
         * the same as right-then-down under a linear gap, so the
         * reordered path is already computed. */
        for (int wrap = 0; wrap < LANES; wrap++) {
            for (int l = LANES - 1; l > 0; l--)
                vF.v[l] = vF.v[l - 1];
            vF.v[0] = NEG_I32;
            /* A sweep that raises nothing cannot seed later sweeps: the
             * main pass guarantees H[i+1] >= H[i] - pen within a lane,
             * each applied update preserves it, and the first wrap
             * extends it across lane boundaries, so once vF <= H at a
             * cell it stays <= H for the rest of the chain. */
            int updated = 0, dead = 0;
            for (int v = 0; v < L; v++) {
                vec h = Hs[v];
                for (int l = 0; l < LANES; l++) {
                    if (vF.v[l] > h.v[l]) {
                        h.v[l] = vF.v[l];
                        if (h.v[l] > vmax.v[l]) vmax.v[l] = h.v[l];
                        updated = 1;
                    }
                }
                Hs[v] = h;
                int alive = 0;
                for (int l = 0; l < LANES; l++) {
                    vF.v[l] -= pen;
                    if (vF.v[l] > 0) alive = 1;
                }
                /* H >= 0 everywhere, and vF only decays from here. */
                if (!alive) { dead = 1; break; }
            }
            if (dead || !updated) break;
        }
    }
    int32_t best = 0;
    for (int l = 0; l < LANES; l++)
        if (vmax.v[l] > best) best = vmax.v[l];
    return (int64_t)best;
}

static PyObject *striped_local_scores(PyObject *self, PyObject *args)
{
    Py_buffer a, b, out, mat;
    int B, n, m;
    int32_t pen;
    if (!PyArg_ParseTuple(args, "y*y*w*iiiy*i",
                          &a, &b, &out, &B, &n, &m, &mat, &pen))
        return NULL;
    int ok = B >= 0 && n > 0 && m > 0 && pen > 0
        && a.len >= (Py_ssize_t)B * n && b.len >= (Py_ssize_t)B * m
        && out.len >= (Py_ssize_t)B * (Py_ssize_t)sizeof(int64_t)
        && mat.len >= (Py_ssize_t)(25 * sizeof(int32_t));
    if (ok) {
        /* int32 headroom: positive scores stay < 2^27, and the lazy-F
         * per-column decay stays < 2^30 above NEG_I32's gap to
         * INT32_MIN, so neither direction can wrap. */
        const int32_t *mp0 = mat.buf;
        int64_t maxabs = 0;
        for (int i = 0; i < 25; i++) {
            int64_t v = mp0[i] < 0 ? -(int64_t)mp0[i] : (int64_t)mp0[i];
            if (v > maxabs) maxabs = v;
        }
        int64_t mn = m < n ? m : n;
        ok = (mn + 1) * maxabs < ((int64_t)1 << 27)
            && ((int64_t)n + LANES) * pen < ((int64_t)1 << 29);
    }
    if (!ok) {
        PyBuffer_Release(&a);
        PyBuffer_Release(&b);
        PyBuffer_Release(&out);
        PyBuffer_Release(&mat);
        PyErr_SetString(PyExc_ValueError, "bad striped_local_scores arguments");
        return NULL;
    }
    int L = (n + LANES - 1) / LANES;
    vec *work = malloc((size_t)(5 * L + 3 * L) * sizeof(vec));
    if (work == NULL) {
        PyBuffer_Release(&a);
        PyBuffer_Release(&b);
        PyBuffer_Release(&out);
        PyBuffer_Release(&mat);
        return PyErr_NoMemory();
    }
    const uint8_t *ap = a.buf, *bp = b.buf;
    const int32_t *mp = mat.buf;
    int64_t *op = out.buf;
    int badcode = 0;
    Py_BEGIN_ALLOW_THREADS
    /* Codes above 4 would index past the 5x5 matrix / 5-row profile. */
    for (Py_ssize_t i = 0; i < (Py_ssize_t)B * n; i++)
        badcode |= ap[i] > 4;
    for (Py_ssize_t i = 0; i < (Py_ssize_t)B * m; i++)
        badcode |= bp[i] > 4;
    if (!badcode) {
        for (int k = 0; k < B; k++) {
            op[k] = striped_local_one(
                ap + (size_t)k * n, n, bp + (size_t)k * m, m, mp, pen,
                work, work + 5 * L, work + 6 * L, work + 7 * L);
        }
    }
    Py_END_ALLOW_THREADS
    free(work);
    if (badcode) {
        PyBuffer_Release(&a);
        PyBuffer_Release(&b);
        PyBuffer_Release(&out);
        PyBuffer_Release(&mat);
        PyErr_SetString(PyExc_ValueError,
                        "striped_local_scores: sequence code above 4");
        return NULL;
    }
    PyBuffer_Release(&a);
    PyBuffer_Release(&b);
    PyBuffer_Release(&out);
    PyBuffer_Release(&mat);
    Py_RETURN_NONE;
}

/* ---------------- direction-code DP (align verbs) ----------------- */

enum { DP_GLOBAL = 0, DP_OVERLAP = 1, DP_LOCAL = 2 };

/* One pair.  Direction codes, as in fragalign/align/pairwise.py:
 *   bit0  the up-move strictly beat the diagonal;
 *   bit1  the left-move strictly beat both (local: and the 0-clamp);
 *   bit2  local only, H == 0 (the walk stops).
 * Row 0 is H = -pen*j (local: 0); column 0 is H = -pen*i (overlap and
 * local: 0).  `end` gets the score and the cell the walk starts from:
 * global H[n][m]; overlap the first maximum of row n over j = 0..m;
 * local the first strict maximum in row-major order, starting from 0
 * at (0, 0).  `mode` is a literal at every call site, so each mode
 * gets its own specialised loops. */
static inline void dp_pair(
    const uint8_t *a, int n, const uint8_t *b, int m,
    const int32_t *matrix, int32_t pen, int mode, uint8_t *dirs,
    int32_t *prof /* 5 * m */, int32_t *prev, int32_t *cur /* m + 1 */,
    int32_t *V /* m */, int64_t *end)
{
    for (int code = 0; code < 5; code++)
        for (int j = 0; j < m; j++)
            prof[(size_t)code * m + j] = matrix[code * 5 + b[j]];
    for (int j = 0; j <= m; j++)
        prev[j] = mode == DP_LOCAL ? 0 : -pen * j;
    int32_t best = 0;
    int bi = 0, bj = 0;

    for (int i = 1; i <= n; i++) {
        const int32_t *w = prof + (size_t)a[i - 1] * m;
        uint8_t *d = dirs + (size_t)(i - 1) * m;
        /* Diagonal against up: no dependency along the row. */
        for (int j = 0; j < m; j++) {
            int32_t t = prev[j] + w[j];
            int32_t u = prev[j + 1] - pen;
            int32_t v = u > t ? u : t;
            if (mode == DP_LOCAL && v < 0)
                v = 0;
            d[j] = (uint8_t)(u > t);
            V[j] = v;
        }
        /* The left chain. */
        int32_t h = mode == DP_GLOBAL ? -pen * i : 0;
        cur[0] = h;
        for (int j = 0; j < m; j++) {
            int32_t l = h - pen, v = V[j];
            int left = l > v;
            h = left ? l : v;
            d[j] |= (uint8_t)((left << 1)
                              | ((mode == DP_LOCAL && h == 0) << 2));
            cur[j + 1] = h;
        }
        if (mode == DP_LOCAL) {
            int32_t rowmax = 0;
            for (int j = 1; j <= m; j++)
                rowmax = cur[j] > rowmax ? cur[j] : rowmax;
            if (rowmax > best) {
                int j = 1;
                while (cur[j] != rowmax)
                    j++;
                best = rowmax;
                bi = i;
                bj = j;
            }
        }
        int32_t *t = prev;
        prev = cur;
        cur = t;
    }

    if (mode == DP_LOCAL) {
        end[0] = best;
        end[1] = bi;
        end[2] = bj;
    } else if (mode == DP_OVERLAP) {
        int arg = 0;
        for (int j = 1; j <= m; j++)
            if (prev[j] > prev[arg])
                arg = j;
        end[0] = prev[arg];
        end[1] = n;
        end[2] = arg;
    } else {
        end[0] = prev[m];
        end[1] = n;
        end[2] = m;
    }
}

/* The whole batch, without the GIL; returns nonzero (and computes
 * nothing) when a code above 4 would index past the 5x5 matrix. */
static int dp_batch(
    const uint8_t *ap, const uint8_t *bp, uint8_t *dp, int64_t *ep,
    int B, int n, int m, const int32_t *mp, int32_t pen, int mode,
    int32_t *work /* 5 * m + 2 * (m + 1) + m */)
{
    int badcode = 0;
    for (Py_ssize_t i = 0; i < (Py_ssize_t)B * n; i++)
        badcode |= ap[i] > 4;
    for (Py_ssize_t i = 0; i < (Py_ssize_t)B * m; i++)
        badcode |= bp[i] > 4;
    if (badcode)
        return 1;
    int32_t *prof = work, *prev = prof + (size_t)5 * m, *cur = prev + m + 1;
    int32_t *V = cur + m + 1;
    for (int k = 0; k < B; k++) {
        const uint8_t *ak = ap + (size_t)k * n, *bk = bp + (size_t)k * m;
        uint8_t *dk = dp + (size_t)k * n * m;
        int64_t *ek = ep + (size_t)k * 3;
        if (mode == DP_GLOBAL)
            dp_pair(ak, n, bk, m, mp, pen, DP_GLOBAL, dk, prof, prev, cur, V, ek);
        else if (mode == DP_OVERLAP)
            dp_pair(ak, n, bk, m, mp, pen, DP_OVERLAP, dk, prof, prev, cur, V, ek);
        else
            dp_pair(ak, n, bk, m, mp, pen, DP_LOCAL, dk, prof, prev, cur, V, ek);
    }
    return 0;
}

static PyObject *align_codes(PyObject *self, PyObject *args)
{
    Py_buffer a, b, dirs, ends, mat;
    int B, n, m, mode, badcode;
    int32_t pen;
    if (!PyArg_ParseTuple(args, "y*y*w*w*iiiy*ii", &a, &b, &dirs, &ends,
                          &B, &n, &m, &mat, &pen, &mode))
        return NULL;
    PyObject *result = NULL;
    int32_t *work = NULL;
    int ok = B >= 0 && n > 0 && m > 0 && pen > 0
        && mode >= DP_GLOBAL && mode <= DP_LOCAL
        && a.len >= (Py_ssize_t)B * n && b.len >= (Py_ssize_t)B * m
        && dirs.len >= (Py_ssize_t)B * n * m
        && ends.len >= (Py_ssize_t)B * 3 * (Py_ssize_t)sizeof(int64_t)
        && mat.len >= (Py_ssize_t)(25 * sizeof(int32_t));
    if (ok) {
        /* int32 headroom: every H, and every candidate one step past
         * it, stays within (n + m + 2) * max(|matrix|, pen) < 2^30. */
        const int32_t *mp = mat.buf;
        int64_t step = pen;
        for (int i = 0; i < 25; i++) {
            int64_t v = mp[i] < 0 ? -(int64_t)mp[i] : (int64_t)mp[i];
            if (v > step) step = v;
        }
        ok = ((int64_t)n + m + 2) * step < ((int64_t)1 << 30);
    }
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "bad align_codes arguments");
        goto done;
    }
    work = malloc(((size_t)5 * m + 2 * ((size_t)m + 1) + m) * sizeof(int32_t));
    if (work == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    badcode = dp_batch(a.buf, b.buf, dirs.buf, ends.buf, B, n, m, mat.buf,
                       pen, mode, work);
    Py_END_ALLOW_THREADS
    if (badcode) {
        PyErr_SetString(PyExc_ValueError, "align_codes: sequence code above 4");
        goto done;
    }
    result = Py_None;
    Py_INCREF(result);
done:
    free(work);
    PyBuffer_Release(&a);
    PyBuffer_Release(&b);
    PyBuffer_Release(&dirs);
    PyBuffer_Release(&ends);
    PyBuffer_Release(&mat);
    return result;
}

/* ---------------- module ----------------------------------------- */

static PyMethodDef methods[] = {
    {"bitparallel_scores", bitparallel_scores, METH_VARARGS,
     "Myers bit-parallel batch scores (unit/lev family, global/overlap)."},
    {"striped_local_scores", striped_local_scores, METH_VARARGS,
     "Farrar striped Smith-Waterman batch scores (linear gap, local)."},
    {"align_codes", align_codes, METH_VARARGS,
     "Linear-gap DP direction codes and end cells (global/overlap/local)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Native bit-parallel, striped-SIMD and direction-code alignment kernels.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *mod = PyModule_Create(&moduledef);
#ifdef FRAGALIGN_SOURCE_HASH
    if (mod != NULL
        && PyModule_AddStringConstant(mod, "SOURCE_HASH",
                                      FRAGALIGN_SOURCE_HASH) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
#endif
    return mod;
}
