/* Compiled per-sample step of the trackers: the projection of
 * projection.project_sample, the accumulator update of trackers.omw_step and
 * the basis sweep of basis.update_basis; and of the burn-in, the warm loop
 * of its singular value thresholding, prox.svt_factors, and the two
 * elementwise passes of each pcp_alm sweep. The projection, the
 * accumulator, the warm loop and the ALM passes keep the numpy code's
 * operation order (the loop calls numpy's LAPACK and BLAS routines in
 * numpy's order); the sweep does not: it sums each column's pending term in
 * blocks and scales by reciprocals, and the ALM passes' sums of squares are
 * summed by rows, not by numpy's ddot.
 *
 * kernel.py builds this file with -O3 -ffp-contract=off, so a*b + c rounds
 * twice as numpy does, loads it as a CPython extension module and hands its
 * bind the addresses of the routines in the OpenBLAS that numpy calls
 * (scipy-openblas64's scipy_<name>_64_): nothing is linked, and the kernel
 * and numpy share one library and one thread pool. That build takes 64-bit
 * integers, so every integer a BLAS or LAPACK routine reads or writes is a
 * blas_int. -O3 vectorizes the elementwise loops, whose lanes round as the
 * scalar code does; with no reassociating flag, no sum is reordered, so the
 * outputs are those of the scalar build bit for bit. Matrices are
 * column-major except A (r x r, row-major) and the warm loop's and the ALM
 * passes', which are row-major as numpy holds them, and each entry point
 * allocates its routine's scratch: 3r^2 + 4r + 8m + mr doubles for
 * srp_project (see work_size), m for srp_accumulate, r + b + mb for
 * srp_sweep, svt_size for srp_svt (4mk + 3kn + 2k^2 + k plus the largest
 * LAPACK workspace and the integer one, see svt_query), and 2n for
 * srp_alm_update.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t blas_int;

typedef void gemv_t(char *, blas_int *, blas_int *, double *, double *,
                    blas_int *, double *, blas_int *, double *, double *,
                    blas_int *);
typedef void gemm_t(char *, char *, blas_int *, blas_int *, blas_int *,
                    double *, double *, blas_int *, double *, blas_int *,
                    double *, double *, blas_int *);
typedef void syrk_t(char *, char *, blas_int *, blas_int *, double *,
                    double *, blas_int *, double *, double *, blas_int *);
typedef double dot_t(blas_int *, double *, blas_int *, double *, blas_int *);
typedef void geqrf_t(blas_int *, blas_int *, double *, blas_int *, double *,
                     double *, blas_int *, blas_int *);
typedef void orgqr_t(blas_int *, blas_int *, blas_int *, double *, blas_int *,
                     double *, double *, blas_int *, blas_int *);
typedef void gesdd_t(char *, blas_int *, blas_int *, double *, blas_int *,
                     double *, double *, blas_int *, double *, blas_int *,
                     double *, blas_int *, blas_int *, blas_int *);
typedef void potrf_t(char *, blas_int *, double *, blas_int *, blas_int *);
typedef void potrs_t(char *, blas_int *, blas_int *, double *, blas_int *,
                     double *, blas_int *, blas_int *);
typedef void syevd_t(char *, char *, blas_int *, double *, blas_int *,
                     double *, double *, blas_int *, blas_int *, blas_int *,
                     blas_int *);

static gemv_t *gemv;
static gemm_t *gemm;
static syrk_t *syrk;
static dot_t *dot;
static geqrf_t *geqrf;
static orgqr_t *orgqr;
static gesdd_t *gesdd;
static potrf_t *potrf;
static potrs_t *potrs;
static syevd_t *syevd;
static blas_int ONE = 1;

/* Columns per block of the sweep: the module's BLOCK */
enum { srp_block = 8 };

/* addresses hold dgemv, dgemm, dsyrk, ddot, dgeqrf, dorgqr, dgesdd, dpotrf,
 * dpotrs and dsyevd, in kernel.py's ROUTINES order, as ints; -1, with
 * nothing bound, if there are not n = 10 of them or one is not a nonzero
 * int */
static int srp_bind(PyObject *const *addresses, Py_ssize_t n)
{
    void *fn[10];
    if (n != 10)
        return -1;
    for (int i = 0; i < 10; i++)
        if (!PyLong_CheckExact(addresses[i])
            || !(fn[i] = PyLong_AsVoidPtr(addresses[i])))
            return -1;
    gemv = (gemv_t *)fn[0];
    gemm = (gemm_t *)fn[1];
    syrk = (syrk_t *)fn[2];
    dot = (dot_t *)fn[3];
    geqrf = (geqrf_t *)fn[4];
    orgqr = (orgqr_t *)fn[5];
    gesdd = (gesdd_t *)fn[6];
    potrf = (potrf_t *)fn[7];
    potrs = (potrs_t *)fn[8];
    syevd = (syevd_t *)fn[9];
    return 0;
}

static blas_int lead(blas_int n) { return n > 1 ? n : 1; }

/* y = op(X) z for a rows x cols X; op is "N" or "T" */
static void mv(char *op, blas_int rows, blas_int cols, const double *X,
               const double *z, double *y)
{
    double one = 1.0, zero = 0.0;
    blas_int ld = lead(rows);
    if (rows == 0 || cols == 0) {  /* BLAS would leave y as it is */
        memset(y, 0, sizeof(double) * (*op == 'N' ? rows : cols));
        return;
    }
    gemv(op, &rows, &cols, &one, (double *)X, &ld, (double *)z, &ONE, &zero,
         y, &ONE);
}

/* upper triangle of G = X'X for a rows x r X */
static void gram(blas_int rows, blas_int r, const double *X, double *G)
{
    double one = 1.0, zero = 0.0;
    blas_int ld = lead(rows), ldg = lead(r);
    if (rows == 0) {
        memset(G, 0, sizeof(double) * r * r);
        return;
    }
    syrk("U", "T", &r, &rows, &one, (double *)X, &ld, &zero, G, &ldg);
}

static int factor(blas_int r, double *G)
{
    blas_int ldg = lead(r), info;
    potrf("U", &r, G, &ldg, &info);
    return info != 0;
}

static void solve(blas_int r, double *F, double *rhs)
{
    blas_int ldg = lead(r), info;
    potrs("U", &r, &ONE, F, &ldg, rhs, &ldg, &info);
}

/* s = shrink(x - U v, tau), with t for U v */
static void residual_shrink(int m, int r, const double *U, const double *x,
                            const double *v, double tau, double *t, double *s)
{
    mv("N", m, r, U, v, t);
    for (int i = 0; i < m; i++) {
        double d = x[i] - t[i];
        s[i] = d - (d < -tau ? -tau : d > tau ? tau : d);
    }
}

/* rhs = Um - U's, or Um where s is NULL (s = 0, whose U's is +0, so
 * Um - U's would be Um), then the solve on the factor F */
static void v_solve(int m, int r, const double *U, const double *Um,
                    const double *s, double *F, double *rhs)
{
    if (s) {
        mv("T", m, r, U, s, rhs);
        for (int j = 0; j < r; j++)
            rhs[j] = Um[j] - rhs[j];
    } else
        memcpy(rhs, Um, sizeof(double) * r);
    solve(r, F, rhs);
}

/* Xg = the n rows idx[0..n) of an m x r X, in that order: n x r */
static void gather(int m, int r, const double *X, const int *idx, int n,
                   double *Xg)
{
    for (int j = 0; j < r; j++)
        for (int row = 0; row < n; row++)
            Xg[j * n + row] = X[j * m + idx[row]];
}

static double objective(blas_int m, blas_int r, const double *U,
                        const double *x, const double *v, const double *s,
                        double l1, double l2, double *t)
{
    double abs_sum = 0.0;
    mv("N", m, r, U, v, t);
    for (int i = 0; i < m; i++) {
        t[i] = x[i] - t[i] - s[i];
        abs_sum += fabs(s[i]);
    }
    return 0.5 * dot(&m, t, &ONE, t, &ONE)
           + 0.5 * l1 * dot(&r, (double *)v, &ONE, (double *)v, &ONE)
           + l2 * abs_sum;
}

static double sgn(double a) { return (a > 0.0) - (a < 0.0); }

static int same_signs(int m, const double *s, const double *signs)
{
    for (int i = 0; i < m; i++)
        if (sgn(s[i]) != signs[i])
            return 0;
    return 1;
}

#define SWAP(a, b) do { double *tmp_ = a; a = b; b = tmp_; } while (0)

/* project_sample on an m x r U: writes v_out, s_out and returns the number
 * of alternations, -1 for a non-finite x, diagonal of U'U (which a
 * non-finite entry of U makes non-finite, as can an overflow) or U'x (an
 * overflow of finite U and x), which the numpy path rejects, -2 where a
 * Cholesky factor the numpy path would replace by a pivoted solve fails.
 * w holds 3r^2 + 4r + 8m + mr doubles, the last m of them the int row
 * indices of the support or of the rows off it. */
static int srp_project(int m, int r, const double *U, const double *x,
                       double l1, double l2, double tol, int max_iter,
                       double *v_out, double *s_out, double *w)
{
    double *G = w, *F = G + r * r, *D = F + r * r, *Um = D + r * r;
    double *v = Um + r, *vn = v + r, *vs = vn + r;
    double *s = vs + r, *sn = s + m, *ss = sn + m, *t = ss + m;
    double *signs = t + m, *prev = signs + m, *xg = prev + m, *Ug = xg + m;
    int *idx = (int *)(Ug + (size_t)m * r), n = 0, have_prev = 0;

    for (int i = 0; i < m; i++)
        if (!isfinite(x[i]))
            return -1;
    gram(m, r, U, G);
    for (int j = 0; j < r; j++) {
        if (!isfinite(G[j * r + j]))
            return -1;
        G[j * r + j] += l1;
    }
    memcpy(F, G, sizeof(double) * r * r);
    if (factor(r, F))
        return -2;
    mv("T", m, r, U, x, Um);
    for (int j = 0; j < r; j++)
        if (!isfinite(Um[j]))
            return -1;
    memset(v, 0, sizeof(double) * r);
    memset(s, 0, sizeof(double) * m);
    while (n < max_iter) {
        n++;
        v_solve(m, r, U, Um, n == 1 ? NULL : s, F, vn);
        residual_shrink(m, r, U, x, vn, l2, t, sn);
        /* a v step of tol or more decides both tests below on its own */
        double step = 0.0;
        for (int j = 0; j < r; j++)
            step = fmax(step, fabs(vn[j] - v[j]));
        if (step < tol)
            for (int i = 0; i < m; i++)
                step = fmax(step, fabs(sn[i] - s[i]));
        SWAP(v, vn);
        SWAP(s, sn);
        if (step == 0.0)  /* a fixed point: the KKT conditions hold exactly */
            break;
        SWAP(prev, signs);
        int same = have_prev && same_signs(m, s, prev);
        for (int i = 0; i < m; i++)
            signs[i] = sgn(s[i]);
        have_prev = 1;
        int converged = step < tol;
        if (!(converged || same))
            continue;
        /* the exact solve on the support: G downdated by its rows */
        int k = 0;
        for (int i = 0; i < m; i++)
            if (signs[i] != 0.0) {
                xg[k] = x[i] - l2 * signs[i];
                idx[k++] = i;
            }
        gather(m, r, U, idx, k, Ug);
        mv("T", k, r, Ug, xg, vs);
        for (int j = 0; j < r; j++)
            vs[j] = Um[j] - vs[j];
        gram(k, r, Ug, D);
        for (int j = 0; j < r; j++)
            for (int i = 0; i <= j; i++)
                D[j * r + i] = G[j * r + i] - D[j * r + i];
        if (factor(r, D)) {
            /* the downdate failed to factor: the Gram matrix of the rows
             * off the support */
            for (int i = 0, row = 0; i < m; i++)
                if (signs[i] == 0.0)
                    idx[row++] = i;
            gather(m, r, U, idx, m - k, Ug);
            gram(m - k, r, Ug, D);
            for (int j = 0; j < r; j++)
                D[j * r + j] += l1;
            if (factor(r, D))
                return -2;
        }
        solve(r, D, vs);
        residual_shrink(m, r, U, x, vs, l2, t, ss);
        if (same_signs(m, ss, signs)) {
            memcpy(s_out, ss, sizeof(double) * m);
            v_solve(m, r, U, Um, ss, F, v_out);
            return n;
        }
        if (converged)
            break;
        /* the longest halving of the step toward vs that lowers the
         * objective: a damped Newton step in v */
        double f = objective(m, r, U, x, v, s, l1, l2, t);
        for (int h = 0; h < 30; h++) {
            if (objective(m, r, U, x, vs, ss, l1, l2, t) < f) {
                SWAP(v, vs);
                SWAP(s, ss);
                break;
            }
            for (int j = 0; j < r; j++)
                vs[j] = 0.5 * (v[j] + vs[j]);
            residual_shrink(m, r, U, x, vs, l2, t, ss);
        }
    }
    memcpy(v_out, v, sizeof(double) * r);
    memcpy(s_out, s, sizeof(double) * m);
    return n;
}

/* A += vv' - vo vo', B += ev' - eo vo' for e = x - s, m doubles of scratch,
 * and an m x r B; then the window's oldest row (eo, vo) takes (e, v). eo NULL:
 * no window, A += vv', B += ev'. The rows may alias, but not A, B or e. */
static void srp_accumulate(int m, int r, double *restrict A,
                           double *restrict B, const double *x,
                           const double *v, const double *s, double *eo,
                           double *vo, double *restrict e)
{
    for (int i = 0; i < m; i++)
        e[i] = x[i] - s[i];
    if (!eo) {
        for (int i = 0; i < r; i++)
            for (int j = 0; j < r; j++)
                A[i * r + j] += v[i] * v[j];
        for (int j = 0; j < r; j++)
            for (int i = 0; i < m; i++)
                B[j * m + i] += v[j] * e[i];
        return;
    }
    for (int i = 0; i < r; i++)
        for (int j = 0; j < r; j++)
            A[i * r + j] += v[i] * v[j] - vo[i] * vo[j];
    for (int j = 0; j < r; j++)
        for (int i = 0; i < m; i++)
            B[j * m + i] += v[j] * e[i] - vo[j] * eo[i];
    memcpy(eo, e, sizeof(double) * m);
    memcpy(vo, v, sizeof(double) * r);
}

/* T = X Y' + beta T for the m x k columns X of U and an n x k Y read from
 * A with leading dimension r, then beta = 1; nothing if k = 0 */
static void pending(blas_int m, blas_int n, blas_int k, const double *X,
                    const double *Y, blas_int r, double *beta, double *T)
{
    double one = 1.0;
    if (k == 0)
        return;
    gemm("N", "T", &m, &n, &k, &one, (double *)X, &m, (double *)Y, &r, beta,
         T, &m);
    *beta = 1.0;
}

/* One sweep of update_basis on an m x r U in place; -1 if A is not finite
 * or not symmetric to sym_tol * (1 + max|A|). A Gauss-Seidel sweep in blocks
 * of srp_block
 * columns: a block's pending sums over the columns before it (swept) and
 * after it (not yet) are two dgemm, and each column adds those of its own
 * block by dgemv. w holds r + b + mb doubles, b = min(r, srp_block). */
static int srp_sweep(blas_int m, blas_int r, double *U, const double *A,
                     const double *B, double l1, double sym_tol, double *w)
{
    blas_int nb = r < srp_block ? r : srp_block;
    double *rd = w, *c = rd + r, *T = c + nb, scale = 0.0, skew = 0.0;

    for (int i = 0; i < r * r; i++) {
        if (!isfinite(A[i]))  /* which fmax would drop */
            return -1;
        scale = fmax(scale, fabs(A[i]));
    }
    /* |a - b| = |b - a|, and the diagonal's 0 moves no maximum: each pair
     * off it once */
    for (int i = 1; i < r; i++)
        for (int j = 0; j < i; j++)
            skew = fmax(skew, fabs(A[i * r + j] - A[j * r + i]));
    if (skew > sym_tol * (1.0 + scale))
        return -1;
    if (m == 0)
        return 0;
    for (int j = 0; j < r; j++)
        rd[j] = 1.0 / (A[j * r + j] + l1);
    for (blas_int j0 = 0; j0 < r; j0 += nb) {
        blas_int n = r - j0 < nb ? r - j0 : nb, j1 = j0 + n;
        double one = 1.0, beta = 0.0;
        pending(m, n, j0, U, A + j0, r, &beta, T);
        pending(m, n, r - j1, U + (size_t)j1 * m, A + j0 + (size_t)j1 * r,
                r, &beta, T);
        for (blas_int j = j0; j < j1; j++) {
            double *u = U + (size_t)j * m, *t = T + (size_t)(j - j0) * m;
            for (blas_int k = j0; k < j1; k++)
                c[k - j0] = k == j ? 0.0 : A[k * r + j];
            gemv("N", &m, &n, &one, U + (size_t)j0 * m, &m, c, &ONE,
                 &beta, t, &ONE);
            for (int i = 0; i < m; i++)
                u[i] = rd[j] * (B[(size_t)j * m + i] - t[i]);
            double norm = sqrt(dot(&m, u, &ONE, u, &ONE));
            if (norm > 1.0) {  /* dividing by 1 would change nothing */
                double inv = 1.0 / norm;
                for (int i = 0; i < m; i++)
                    u[i] *= inv;
            }
        }
    }
    return 0;
}

/* Y = X' for a rows x cols column-major X, so Y is X row-major: the copies
 * numpy makes between its row-major arrays and LAPACK's column-major ones */
static void transpose(int rows, int cols, const double *X, double *Y)
{
    for (int j = 0; j < cols; j++)
        for (int i = 0; i < rows; i++)
            Y[(size_t)i * cols + j] = X[(size_t)j * rows + i];
}

/* The sum of the squares of a[0], a[stride], ... a[(n - 1) stride] as
 * numpy's add.reduce sums a contiguous run: eight partial sums in blocks of
 * up to 128, halved above that */
static double pairwise_squares(const double *a, int n, int stride)
{
    double r[8], res = 0.0;
    int i = 0;

    if (n > 128) {
        int half = n / 2 - n / 2 % 8;
        return pairwise_squares(a, half, stride)
               + pairwise_squares(a + (size_t)half * stride, n - half, stride);
    }
    if (n >= 8) {
        for (int j = 0; j < 8; j++)
            r[j] = a[(size_t)j * stride] * a[(size_t)j * stride];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) {
                double x = a[(size_t)(i + j) * stride];
                r[j] += x * x;
            }
        res = ((r[0] + r[1]) + (r[2] + r[3]))
              + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        res += a[(size_t)i * stride] * a[(size_t)i * stride];
    return res;
}

/* The LAPACK workspaces of srp_svt, each routine's own query as numpy's qr,
 * svd and eigh make it: at least max(1, k) for dgeqrf and dorgqr and 1 for
 * dgesdd, as numpy asks, and dsyevd's answers as they are (evd doubles,
 * ievd ints) */
typedef struct { blas_int qr, gqr, sdd, evd, ievd; } svt_lwork;

static blas_int lwork_max(svt_lwork lw)
{
    blas_int most = lw.qr > lw.gqr ? lw.qr : lw.gqr;
    most = most > lw.sdd ? most : lw.sdd;
    return most > lw.evd ? most : lw.evd;
}

static svt_lwork svt_query(blas_int m, blas_int n, blas_int k)
{
    double q, none = 0.0;
    blas_int query = -1, info, inone = 0;
    svt_lwork lw;

    geqrf(&m, &k, &none, &m, &none, &q, &query, &info);
    lw.qr = (blas_int)q > k ? (blas_int)q : k > 1 ? k : 1;
    orgqr(&m, &k, &k, &none, &m, &none, &q, &query, &info);
    lw.gqr = (blas_int)q > k ? (blas_int)q : k > 1 ? k : 1;
    gesdd("S", &k, &n, &none, &k, &none, &none, &k, &none, &k, &q, &query,
          &inone, &info);
    lw.sdd = (blas_int)q > 1 ? (blas_int)q : 1;
    syevd("V", "L", &k, &none, &k, &none, &q, &query, &lw.ievd, &query,
          &info);
    lw.evd = (blas_int)q;
    return lw;
}

/* The scratch of srp_svt in doubles: 4mk + 3kn + 2k^2 + k, the largest
 * LAPACK workspace, and the blas_ints of dgesdd (8k) or dsyevd, if more,
 * each the size of a double */
static Py_ssize_t svt_size(blas_int m, blas_int n, blas_int k, svt_lwork lw)
{
    Py_ssize_t ints = 8 * k > lw.ievd ? 8 * k : lw.ievd;
    return 4 * (Py_ssize_t)m * k + 3 * (Py_ssize_t)k * n + 2 * k * k + k
           + lwork_max(lw) + ints;
}

/* (Ub, s, Vh) of the Ritz step on P = Q'X (row-major k x n) as
 * prox._ritz_triplets makes it: G = PP' (dsyrk, as numpy's matmul forms
 * P @ P.T), and where G is finite its eigendecomposition (dsyevd), s = the
 * square roots of its eigenvalues, descending, Ub = its eigenvectors in that
 * order and Vh = diag(1/s) Ub'P; where G is not finite or s_k <= min_ratio
 * s_1, the SVD of P (dgesdd). G and its eigenvectors take Uf and the
 * eigenvalues lam. Returns 0; -1 where dgesdd fails, -2 where dsyevd does. */
static int ritz_triplets(blas_int n, blas_int k, const double *P,
                         double min_ratio, svt_lwork lw, double *Ub, double *s,
                         double *Vh, double *Pf, double *Uf, double *Vf,
                         double *lam, double *work, blas_int *iwork)
{
    double one = 1.0, zero = 0.0;
    blas_int info;
    int finite = 1;

    syrk("L", "T", &k, &n, &one, (double *)P, &n, &zero, Uf, &k);
    for (int j = 0; j < k; j++)
        for (int i = j; i < k; i++)
            finite &= isfinite(Uf[i + j * k]) != 0;
    if (finite) {
        syevd("V", "L", &k, Uf, &k, lam, work, &lw.evd, iwork, &lw.ievd,
              &info);
        if (info)
            return -2;
        for (int j = 0; j < k; j++) {
            double l = lam[k - 1 - j];
            s[j] = sqrt(l < 0.0 ? 0.0 : l);
        }
        if (s[k - 1] > min_ratio * s[0]) {
            for (int i = 0; i < k; i++)
                for (int j = 0; j < k; j++)
                    Ub[i * k + j] = Uf[i + (k - 1 - j) * k];
            gemm("N", "T", &n, &k, &k, &one, (double *)P, &n, Ub, &k, &zero,
                 Vh, &n);
            for (int i = 0; i < k; i++)
                for (int j = 0; j < n; j++)
                    Vh[(size_t)i * n + j] /= s[i];
            return 0;
        }
    }
    transpose(n, k, P, Pf);
    gesdd("S", &k, &n, Pf, &k, s, Uf, &k, Vf, &k, work, &lw.sdd, iwork,
          &info);
    if (info)
        return -1;
    transpose(k, k, Uf, Ub);
    transpose(k, n, Vf, Vh);
    return 0;
}

/* The warm loop of prox.svt_factors (_svt_warm_numpy) on a row-major m x n
 * X from an n x k block, 1 <= k <= min(m, n), row-major where trans is "N"
 * and column-major where it is "T", as numpy's matmul takes it, with numpy's
 * routines in numpy's order, so that its outputs are numpy's bit for bit:
 * Z = X block, then up to max_steps times Q = orth(Z) (dgeqrf, dorgqr),
 * (Ub, s, Vh) = ritz_triplets(Q'X), Z = X Vh', U = Q Ub and R = Z - U s,
 * each row-major as numpy holds it. It writes U (m x k), s and Vh (k x n),
 * row-major, and returns the step it accepted (1, 2, ...); 0 where all k
 * values exceed tau or no step is accepted, s and Vh then being its last
 * step's; -1 where dgesdd fails and -2 where dsyevd does. w holds
 * svt_size(m, n, k, lw) doubles. */
static int srp_svt(blas_int m, blas_int n, blas_int k, const double *X,
                   char *trans, const double *block, double tau, int max_steps,
                   double guard_tol, double ritz_tol, double min_ratio,
                   svt_lwork lw, double *U, double *s, double *Vh, double *w)
{
    blas_int info;
    double *Z = w, *F = Z + (size_t)m * k, *Q = F + (size_t)m * k;
    double *R = Q + (size_t)m * k, *P = R + (size_t)m * k;
    double *Pf = P + (size_t)k * n, *Vf = Pf + (size_t)k * n;
    double *Uf = Vf + (size_t)k * n, *Ub = Uf + k * k, *tq = Ub + k * k;
    double *work = tq + k, one = 1.0, zero = 0.0;
    blas_int *iwork = (blas_int *)(work + lwork_max(lw));

    blas_int ldb = *trans == 'N' ? k : n;
    gemm(trans, "N", &k, &m, &n, &one, (double *)block, &ldb, (double *)X, &n,
         &zero, Z, &k);
    for (int step = 1; step <= max_steps; step++) {
        transpose(k, m, Z, F);
        geqrf(&m, &k, F, &m, tq, work, &lw.qr, &info);
        orgqr(&m, &k, &k, F, &m, tq, work, &lw.gqr, &info);
        transpose(m, k, F, Q);
        gemm("N", "T", &n, &k, &m, &one, (double *)X, &n, Q, &k, &zero, P,
             &n);
        /* tq is free once dorgqr has read it: it takes the eigenvalues */
        int triplets = ritz_triplets(n, k, P, min_ratio, lw, Ub, s, Vh, Pf,
                                     Uf, Vf, tq, work, iwork);
        if (triplets)
            return triplets;
        blas_int kept = 0;
        int guards_below = 1;
        while (kept < k && s[kept] > tau)
            kept++;
        if (kept == k)
            return 0;
        gemm("T", "N", &k, &m, &n, &one, Vh, &n, (double *)X, &n, &zero, Z,
             &k);
        gemm("N", "N", &k, &m, &k, &one, Ub, &k, Q, &k, &zero, U, &k);
        for (int i = 0; i < m; i++)
            for (int j = 0; j < k; j++)
                R[i * k + j] = Z[i * k + j] - U[i * k + j] * s[j];
        /* numpy's norm(R[:, kept:], axis=0): a sequential sum down each
         * column, or the pairwise sum where there is one column */
        for (blas_int j = kept; j < k && guards_below; j++) {
            double sq = 0.0;
            if (k - kept == 1)
                sq = pairwise_squares(R + j, m, k);
            else
                for (int i = 0; i < m; i++)
                    sq += R[i * k + j] * R[i * k + j];
            guards_below = sqrt(sq) <= guard_tol * (tau - s[j]);
        }
        if (!guards_below)
            continue;
        /* numpy's norm(R[:, :kept]): ddot of its row-major copy */
        blas_int size = m * kept;
        for (int i = 0; i < m; i++)
            memcpy(F + (size_t)i * kept, R + (size_t)i * k,
                   sizeof(double) * kept);
        double residual = sqrt(size ? dot(&size, F, &ONE, F, &ONE) : 0.0);
        if (residual <= ritz_tol * s[0])
            return step;
    }
    return 0;
}

/* The SVT input of a pcp_alm sweep, out = (M - S) + Y / mu, for m x n
 * row-major arrays */
static void srp_alm_input(Py_ssize_t m, Py_ssize_t n, const double *M,
                          const double *S, const double *Y, double mu,
                          double *restrict out)
{
    for (Py_ssize_t i = 0; i < m * n; i++)
        out[i] = (M[i] - S[i]) + Y[i] / mu;
}

/* One row of srp_alm_update: its r and s - S_old into r and d */
static void alm_row(Py_ssize_t n, const double *restrict M,
                    const double *restrict L, double *restrict Y,
                    double *restrict S, double mu, double tau,
                    double *restrict r, double *restrict d)
{
    for (Py_ssize_t j = 0; j < n; j++) {
        double rj = M[j] - L[j];
        double t = rj + Y[j] / mu;
        double c = t > -tau ? t : -tau;
        c = c < tau ? c : tau;
        double s = t - c;
        d[j] = s - S[j];
        S[j] = s;
        rj -= s;
        r[j] = rj;
        Y[j] += mu * rj;
    }
}

/* The rest of a pcp_alm sweep once L is formed, per element in numpy's
 * order: r = M - L, t = r + Y / mu, s = t - clip(t, -tau, tau) for tau =
 * lam / mu, r -= s and Y += mu r; s overwrites S. The clip is numpy's, two
 * selects, which gcc vectorizes; at tau = 0 it is +0.0, so s = t, signed
 * zeros included, as prox.shrink_matrix's copy. sums[0] = sum r^2 and
 * sums[1] = sum (s - S_old)^2, each the sum over rows of pairwise_squares
 * of the row. m x n row-major arrays; w holds 2n doubles. */
static void srp_alm_update(Py_ssize_t m, Py_ssize_t n, const double *M,
                           const double *L, double *Y, double *S, double mu,
                           double lam, double *sums, double *w)
{
    double tau = lam / mu;

    sums[0] = sums[1] = 0.0;
    for (Py_ssize_t i = 0; i < m; i++) {
        alm_row(n, M + i * n, L + i * n, Y + i * n, S + i * n, mu, tau, w,
                w + n);
        sums[0] += pairwise_squares(w, (int)n, 1);
        sums[1] += pairwise_squares(w + n, (int)n, 1);
    }
}

/* The module. Its entry points take numpy arrays through the buffer
 * protocol, check their dtype, order and shape, raising ValueError, allocate
 * their routine's scratch and call the routine without the interpreter
 * lock. */

typedef struct {  /* the buffers and scratch a call holds, released together */
    Py_buffer view[9];
    int n;
    double *w;
} Held;

static void release(Held *h)
{
    while (h->n > 0)
        PyBuffer_Release(&h->view[--h->n]);
    PyMem_RawFree(h->w);
}

/* The data of obj, a float64 array of ndim dimensions, contiguous in order
 * 'C' or 'F', or in either for 'A', writable if asked, whose extent along
 * axis k is dims[k], or is written to dims[k] where that is negative; NULL,
 * with a ValueError, if it is not such an array. */
static double *array(Held *h, PyObject *obj, const char *name, char order,
                     int writable, int ndim, Py_ssize_t *dims)
{
    Py_buffer *b = &h->view[h->n];
    int flags = PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0)
                | (order == 'F' ? PyBUF_F_CONTIGUOUS
                   : order == 'C' ? PyBUF_C_CONTIGUOUS : PyBUF_ANY_CONTIGUOUS);

    if (PyObject_GetBuffer(obj, b, flags) < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "kernel: %s must be a %s%s-contiguous"
                     " float64 array", name, writable ? "writable " : "",
                     order == 'F' ? "F" : order == 'C' ? "C" : "C- or F");
        return NULL;
    }
    h->n++;
    if (b->ndim != ndim || !b->format || strcmp(b->format, "d") != 0) {
        PyErr_Format(PyExc_ValueError, "kernel: %s must be a %d-d float64 "
                     "array", name, ndim);
        return NULL;
    }
    for (int k = 0; k < ndim; k++) {
        if (dims[k] < 0)
            dims[k] = b->shape[k];
        else if (b->shape[k] != dims[k]) {
            PyErr_Format(PyExc_ValueError, "kernel: %s has %zd entries along "
                         "axis %d, expected %zd", name, b->shape[k], k,
                         dims[k]);
            return NULL;
        }
    }
    return b->buf;
}

/* n doubles of scratch, which release frees; NULL, with a MemoryError, if
 * they cannot be had */
static double *scratch(Held *h, Py_ssize_t n)
{
    if (!(h->w = PyMem_RawMalloc(sizeof(double) * (size_t)n)))
        PyErr_NoMemory();
    return h->w;
}

/* 3r^2 + 4r + 8m + mr, the scratch of srp_project in doubles (its m row
 * indices take m of them), which bounds every index the routines form in
 * int; -1, with a ValueError, where it passes INT_MAX */
static Py_ssize_t work_size(Py_ssize_t m, Py_ssize_t r)
{
    double n = 3.0 * r * r + 4.0 * r + 8.0 * m + (double)m * r;
    if (n > INT_MAX) {
        PyErr_Format(PyExc_ValueError, "kernel: %zd x %zd is too large", m, r);
        return -1;
    }
    return (Py_ssize_t)n;
}

/* 0 with *out = float(obj), else -1 with the error */
static int as_double(PyObject *obj, double *out)
{
    *out = PyFloat_AsDouble(obj);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* 0 with *out = int(obj), clipped to the range of int; else -1 */
static int as_int(PyObject *obj, int *out)
{
    long n = PyLong_AsLong(obj);
    if (n == -1 && PyErr_Occurred())
        return -1;
    *out = n > INT_MAX ? INT_MAX : n < INT_MIN ? INT_MIN : (int)n;
    return 0;
}

static int count(Py_ssize_t nargs, Py_ssize_t n, const char *name)
{
    if (nargs == n)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name,
                 n, nargs);
    return 0;
}

static PyObject *bind(PyObject *self, PyObject *const *args, Py_ssize_t n)
{
    if (srp_bind(args, n) == 0)
        Py_RETURN_NONE;
    PyErr_Clear();
    PyErr_SetString(PyExc_ValueError, "kernel: bind takes the addresses of "
                    "dgemv, dgemm, dsyrk, ddot, dgeqrf, dorgqr, dgesdd, "
                    "dpotrf, dpotrs and dsyevd");
    return NULL;
}

static PyObject *project(PyObject *self, PyObject *const *args,
                         Py_ssize_t nargs)
{
    Held h = {.n = 0, .w = NULL};
    Py_ssize_t dU[2] = {-1, -1}, dm[1], dr[1], need;
    double *U, *x, *v, *s, *w, l1, l2, tol;
    int max_iter, n;

    if (!count(nargs, 8, "project")
        || !(U = array(&h, args[0], "U", 'F', 0, 2, dU))
        || (need = work_size(dU[0], dU[1])) < 0)
        goto fail;
    dm[0] = dU[0];
    dr[0] = dU[1];
    if (!(x = array(&h, args[1], "x", 'C', 0, 1, dm))
        || !(v = array(&h, args[2], "v", 'C', 1, 1, dr))
        || !(s = array(&h, args[3], "s", 'C', 1, 1, dm))
        || as_double(args[4], &l1) || as_double(args[5], &l2)
        || as_double(args[6], &tol) || as_int(args[7], &max_iter)
        || !(w = scratch(&h, need)))
        goto fail;
    Py_BEGIN_ALLOW_THREADS
    n = srp_project((int)dm[0], (int)dr[0], U, x, l1, l2, tol, max_iter, v, s,
                    w);
    Py_END_ALLOW_THREADS
    release(&h);
    return PyLong_FromLong(n);
fail:
    release(&h);
    return NULL;
}

static PyObject *accumulate(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    Held h = {.n = 0, .w = NULL};
    Py_ssize_t dB[2] = {-1, -1}, dA[2], dm[1], dr[1];
    double *A, *B, *x, *v, *s, *w, *eo = NULL, *vo = NULL;

    if (nargs != 5 && nargs != 7) {
        PyErr_Format(PyExc_TypeError, "accumulate takes 5 or 7 arguments "
                     "(%zd given)", nargs);
        return NULL;
    }
    if (!(B = array(&h, args[1], "B", 'F', 1, 2, dB))
        || work_size(dB[0], dB[1]) < 0)
        goto fail;
    dm[0] = dB[0];
    dr[0] = dA[0] = dA[1] = dB[1];
    if (!(A = array(&h, args[0], "A", 'C', 1, 2, dA))
        || !(x = array(&h, args[2], "x", 'C', 0, 1, dm))
        || !(v = array(&h, args[3], "v", 'C', 0, 1, dr))
        || !(s = array(&h, args[4], "s", 'C', 0, 1, dm)))
        goto fail;
    if (nargs == 7
        && (!(eo = array(&h, args[5], "e_old", 'C', 1, 1, dm))
            || !(vo = array(&h, args[6], "v_old", 'C', 1, 1, dr))))
        goto fail;
    if (!(w = scratch(&h, dm[0])))
        goto fail;
    Py_BEGIN_ALLOW_THREADS
    srp_accumulate((int)dm[0], (int)dr[0], A, B, x, v, s, eo, vo, w);
    Py_END_ALLOW_THREADS
    release(&h);
    Py_RETURN_NONE;
fail:
    release(&h);
    return NULL;
}

static PyObject *sweep(PyObject *self, PyObject *const *args,
                       Py_ssize_t nargs)
{
    Held h = {.n = 0, .w = NULL};
    Py_ssize_t dU[2] = {-1, -1}, dA[2], b;
    double *U, *A, *B, *w, l1, sym_tol;
    int done;

    if (!count(nargs, 5, "sweep")
        || !(U = array(&h, args[0], "U", 'F', 1, 2, dU))
        || work_size(dU[0], dU[1]) < 0)
        goto fail;
    dA[0] = dA[1] = dU[1];
    b = dU[1] < srp_block ? dU[1] : srp_block;
    if (!(A = array(&h, args[1], "A", 'C', 0, 2, dA))
        || !(B = array(&h, args[2], "B", 'F', 0, 2, dU))
        || as_double(args[3], &l1) || as_double(args[4], &sym_tol)
        || !(w = scratch(&h, dU[1] + b + dU[0] * b)))
        goto fail;
    Py_BEGIN_ALLOW_THREADS
    done = srp_sweep((int)dU[0], (int)dU[1], U, A, B, l1, sym_tol, w);
    Py_END_ALLOW_THREADS
    release(&h);
    return PyBool_FromLong(done == 0);
fail:
    release(&h);
    return NULL;
}

static PyObject *svt(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held h = {.n = 0, .w = NULL};
    Py_ssize_t dX[2] = {-1, -1}, dblock[2], dU[2], dk[1], dVh[2];
    double *X, *block, *U, *s, *Vh, tau, guard_tol, ritz_tol, min_ratio;
    int max_steps, m, n, k, steps;
    char *trans;
    svt_lwork lw;

    if (!count(nargs, 10, "svt")
        || !(X = array(&h, args[0], "X", 'C', 0, 2, dX)))
        goto fail;
    dblock[0] = dX[1];
    dblock[1] = -1;
    if (!(block = array(&h, args[1], "block", 'A', 0, 2, dblock)))
        goto fail;
    /* numpy's matmul takes a row-major block as it is, any other transposed */
    trans = PyBuffer_IsContiguous(&h.view[h.n - 1], 'C') ? "N" : "T";
    if (dblock[1] < 1 || dblock[1] > dX[0] || dblock[1] > dX[1]
        || (double)dX[0] * dX[1] > INT_MAX) {
        PyErr_Format(PyExc_ValueError, "kernel: a %zd x %zd X takes a block "
                     "of 1 to min(m, n) columns, not %zd", dX[0], dX[1],
                     dblock[1]);
        goto fail;
    }
    m = (int)dX[0];
    n = (int)dX[1];
    k = (int)dblock[1];
    dU[0] = m;
    dk[0] = dU[1] = dVh[0] = k;
    dVh[1] = n;
    if (!(U = array(&h, args[2], "U", 'C', 1, 2, dU))
        || !(s = array(&h, args[3], "s", 'C', 1, 1, dk))
        || !(Vh = array(&h, args[4], "Vh", 'C', 1, 2, dVh))
        || as_double(args[5], &tau) || as_int(args[6], &max_steps)
        || as_double(args[7], &guard_tol) || as_double(args[8], &ritz_tol)
        || as_double(args[9], &min_ratio))
        goto fail;
    lw = svt_query(m, n, k);
    if (!scratch(&h, svt_size(m, n, k, lw)))
        goto fail;
    Py_BEGIN_ALLOW_THREADS
    steps = srp_svt(m, n, k, X, trans, block, tau, max_steps, guard_tol,
                    ritz_tol, min_ratio, lw, U, s, Vh, h.w);
    Py_END_ALLOW_THREADS
    release(&h);
    return PyLong_FromLong(steps);
fail:
    release(&h);
    return NULL;
}

static PyObject *alm_input(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    Held h = {.n = 0, .w = NULL};
    Py_ssize_t dM[2] = {-1, -1};
    double *M, *S, *Y, *out, mu;

    if (!count(nargs, 5, "alm_input")
        || !(M = array(&h, args[0], "M", 'C', 0, 2, dM))
        || !(S = array(&h, args[1], "S", 'C', 0, 2, dM))
        || !(Y = array(&h, args[2], "Y", 'C', 0, 2, dM))
        || as_double(args[3], &mu)
        || !(out = array(&h, args[4], "out", 'C', 1, 2, dM)))
        goto fail;
    Py_BEGIN_ALLOW_THREADS
    srp_alm_input(dM[0], dM[1], M, S, Y, mu, out);
    Py_END_ALLOW_THREADS
    release(&h);
    Py_RETURN_NONE;
fail:
    release(&h);
    return NULL;
}

static PyObject *alm_update(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    Held h = {.n = 0, .w = NULL};
    Py_ssize_t dM[2] = {-1, -1};
    double *M, *L, *Y, *S, mu, lam, sums[2];

    if (!count(nargs, 6, "alm_update")
        || !(M = array(&h, args[0], "M", 'C', 0, 2, dM))
        || !(L = array(&h, args[1], "L", 'C', 0, 2, dM))
        || !(Y = array(&h, args[2], "Y", 'C', 1, 2, dM))
        || !(S = array(&h, args[3], "S", 'C', 1, 2, dM))
        || as_double(args[4], &mu) || as_double(args[5], &lam))
        goto fail;
    if (dM[1] > INT_MAX) {  /* pairwise_squares counts a row in int */
        PyErr_Format(PyExc_ValueError, "kernel: rows of %zd are too long",
                     dM[1]);
        goto fail;
    }
    if (!scratch(&h, 2 * dM[1]))
        goto fail;
    Py_BEGIN_ALLOW_THREADS
    srp_alm_update(dM[0], dM[1], M, L, Y, S, mu, lam, sums, h.w);
    Py_END_ALLOW_THREADS
    release(&h);
    return Py_BuildValue("(dd)", sums[0], sums[1]);
fail:
    release(&h);
    return NULL;
}

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"bind", FASTCALL(bind), "bind(*addresses): the ROUTINES of kernel.py"},
    {"project", FASTCALL(project),
     "project(U, x, v, s, lambda1, lambda2, tol, max_iter): writes v and s; "
     "the number of alternations, or -1 or -2 where it declines"},
    {"accumulate", FASTCALL(accumulate),
     "accumulate(A, B, x, v, s[, e_old, v_old]): updates A and B, and "
     "overwrites the oldest row (e_old, v_old) with (x - s, v)"},
    {"sweep", FASTCALL(sweep),
     "sweep(U, A, B, lambda1, sym_tol): one sweep of U in place; False, U "
     "untouched, if A is not finite or not symmetric"},
    {"svt", FASTCALL(svt),
     "svt(X, block, U, s, Vh, tau, max_steps, guard_tol, ritz_tol, "
     "min_ratio): the warm loop of prox.svt_factors; writes U, s and Vh and "
     "returns the step it accepted, 0 where it declines (s and Vh are then "
     "its last step's), -1 where dgesdd fails, -2 where dsyevd does"},
    {"alm_input", FASTCALL(alm_input),
     "alm_input(M, S, Y, mu, out): writes pcp_alm's SVT input (M - S) + "
     "Y / mu to out"},
    {"alm_update", FASTCALL(alm_update),
     "alm_update(M, L, Y, S, mu, lam): the rest of a pcp_alm sweep; writes "
     "S and Y and returns (sum of r^2, sum of (S - S_old)^2)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "streamrpca._kernel", NULL, -1, methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddIntConstant(mod, "BLOCK", srp_block) < 0)
        Py_CLEAR(mod);
    return mod;
}
