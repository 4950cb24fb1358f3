/* Compiled per-sample step of the trackers: the projection of
 * projection.project_sample, the accumulator update of trackers.omw_step and
 * the basis sweep of basis.update_basis, in the same operation order.
 *
 * kernel.py builds this file with -ffp-contract=off, so a*b + c rounds
 * twice as numpy does, loads it with ctypes and hands srp_bind the BLAS and
 * LAPACK routines of scipy's cython_blas/cython_lapack capsules: nothing is
 * linked. Matrices are column-major except A (r x r, row-major), and every
 * scratch array comes from the caller, so no call allocates.
 */
#include <math.h>
#include <string.h>

typedef void gemv_t(char *, int *, int *, double *, double *, int *,
                    double *, int *, double *, double *, int *);
typedef void syrk_t(char *, char *, int *, int *, double *, double *, int *,
                    double *, double *, int *);
typedef double dot_t(int *, double *, int *, double *, int *);
typedef void potrf_t(char *, int *, double *, int *, int *);
typedef void potrs_t(char *, int *, int *, double *, int *, double *, int *,
                     int *);

static gemv_t *gemv;
static syrk_t *syrk;
static dot_t *dot;
static potrf_t *potrf;
static potrs_t *potrs;
static int ONE = 1;

void srp_bind(void *gemv_, void *syrk_, void *dot_, void *potrf_,
              void *potrs_)
{
    gemv = (gemv_t *)gemv_;
    syrk = (syrk_t *)syrk_;
    dot = (dot_t *)dot_;
    potrf = (potrf_t *)potrf_;
    potrs = (potrs_t *)potrs_;
}

static int lead(int n) { return n > 1 ? n : 1; }

/* y = op(X) z for a rows x cols X; op is "N" or "T" */
static void mv(char *op, int rows, int cols, const double *X, const double *z,
               double *y)
{
    double one = 1.0, zero = 0.0;
    int ld = lead(rows);
    if (rows == 0 || cols == 0) {  /* BLAS would leave y as it is */
        memset(y, 0, sizeof(double) * (*op == 'N' ? rows : cols));
        return;
    }
    gemv(op, &rows, &cols, &one, (double *)X, &ld, (double *)z, &ONE, &zero,
         y, &ONE);
}

/* upper triangle of G = X'X for a rows x r X */
static void gram(int rows, int r, const double *X, double *G)
{
    double one = 1.0, zero = 0.0;
    int ld = lead(rows), ldg = lead(r);
    if (rows == 0) {
        memset(G, 0, sizeof(double) * r * r);
        return;
    }
    syrk("U", "T", &r, &rows, &one, (double *)X, &ld, &zero, G, &ldg);
}

static int factor(int r, double *G)
{
    int ldg = lead(r), info;
    potrf("U", &r, G, &ldg, &info);
    return info;
}

static void solve(int r, double *F, double *rhs)
{
    int ldg = lead(r), info;
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

/* rhs = Um - U's, then the solve on the factor F */
static void v_solve(int m, int r, const double *U, const double *Um,
                    const double *s, double *F, double *rhs)
{
    mv("T", m, r, U, s, rhs);
    for (int j = 0; j < r; j++)
        rhs[j] = Um[j] - rhs[j];
    solve(r, F, rhs);
}

static double objective(int m, int r, const double *U, const double *x,
                        const double *v, const double *s, double l1,
                        double l2, double *t)
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
 * of alternations, -1 for a non-finite input, -2 where a Cholesky factor
 * the numpy path would replace by a pivoted solve fails. w holds
 * 3r^2 + 4r + 7m + mr doubles. */
int srp_project(int m, int r, const double *U, const double *x, double l1,
                double l2, double tol, int max_iter, double *v_out,
                double *s_out, double *w)
{
    double *G = w, *F = G + r * r, *D = F + r * r, *Um = D + r * r;
    double *v = Um + r, *vn = v + r, *vs = vn + r;
    double *s = vs + r, *sn = s + m, *ss = sn + m, *t = ss + m;
    double *signs = t + m, *prev = signs + m, *xg = prev + m, *Ug = xg + m;
    int n = 0, have_prev = 0;

    for (int i = 0; i < m * r; i++)
        if (!isfinite(U[i]))
            return -1;
    for (int i = 0; i < m; i++)
        if (!isfinite(x[i]))
            return -1;
    gram(m, r, U, G);
    for (int j = 0; j < r; j++)
        G[j * r + j] += l1;
    memcpy(F, G, sizeof(double) * r * r);
    if (factor(r, F))
        return -2;
    mv("T", m, r, U, x, Um);
    memset(v, 0, sizeof(double) * r);
    memset(s, 0, sizeof(double) * m);
    while (n < max_iter) {
        n++;
        v_solve(m, r, U, Um, s, F, vn);
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
            if (signs[i] != 0.0)
                xg[k++] = x[i] - l2 * signs[i];
        for (int j = 0; j < r; j++)
            for (int i = 0, row = 0; i < m; i++)
                if (signs[i] != 0.0)
                    Ug[j * k + row++] = U[j * m + i];
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
            for (int j = 0; j < r; j++)
                for (int i = 0, row = 0; i < m; i++)
                    if (signs[i] == 0.0)
                        Ug[j * (m - k) + row++] = U[j * m + i];
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

/* A += vv' - vo vo', B += (x - s)v' - (xo - so)vo' for an m x r B; then the
 * window's oldest row (xo, vo, so) takes (x, v, s). xo NULL: no window. */
void srp_accumulate(int m, int r, double *A, double *B, const double *x,
                    const double *v, const double *s, double *xo, double *vo,
                    double *so)
{
    for (int i = 0; i < r; i++)
        for (int j = 0; j < r; j++)
            A[i * r + j] += xo ? v[i] * v[j] - vo[i] * vo[j] : v[i] * v[j];
    for (int j = 0; j < r; j++)
        for (int i = 0; i < m; i++)
            B[j * m + i] += xo ? v[j] * (x[i] - s[i])
                                 - vo[j] * (xo[i] - so[i])
                               : v[j] * (x[i] - s[i]);
    if (xo) {
        memcpy(xo, x, sizeof(double) * m);
        memcpy(vo, v, sizeof(double) * r);
        memcpy(so, s, sizeof(double) * m);
    }
}

/* update_basis on an m x r U in place; -1 if A is not symmetric to
 * sym_tol * (1 + max|A|). w holds 2r + m doubles. */
int srp_sweep(int m, int r, double *U, const double *A, const double *B,
              double l1, int sweeps, double sym_tol, double *w)
{
    double *d = w, *c = d + r, *t = c + r, scale = 0.0, skew = 0.0;

    for (int i = 0; i < r * r; i++)
        scale = fmax(scale, fabs(A[i]));
    for (int i = 0; i < r; i++)
        for (int j = 0; j < r; j++)
            skew = fmax(skew, fabs(A[i * r + j] - A[j * r + i]));
    if (skew > sym_tol * (1.0 + scale))
        return -1;
    for (int j = 0; j < r; j++)
        d[j] = A[j * r + j] + l1;
    for (int sweep = 0; sweep < sweeps; sweep++)
        for (int j = 0; j < r; j++) {
            double *u = U + (size_t)j * m;
            for (int k = 0; k < r; k++)
                c[k] = k == j ? 0.0 : A[k * r + j] / d[j];
            mv("N", m, r, U, c, t);
            for (int i = 0; i < m; i++)
                u[i] = B[(size_t)j * m + i] / d[j] - t[i];
            double norm = fmax(sqrt(dot(&m, u, &ONE, u, &ONE)), 1.0);
            for (int i = 0; i < m; i++)
                u[i] /= norm;
        }
    return 0;
}
