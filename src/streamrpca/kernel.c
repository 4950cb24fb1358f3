/* Compiled per-sample step of the trackers: the projection of
 * projection.project_sample, the accumulator update of trackers.omw_step and
 * the basis sweep of basis.update_basis. The projection and the accumulator
 * keep the numpy code's operation order; the sweep does not: it sums each
 * column's pending term in blocks and scales by reciprocals.
 *
 * kernel.py builds this file with -ffp-contract=off, so a*b + c rounds
 * twice as numpy does, loads it as a CPython extension module and hands its
 * bind the capsules of scipy's cython_blas/cython_lapack routines: nothing
 * is linked. Matrices are column-major except A (r x r, row-major), and
 * each entry point allocates its routine's scratch.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <string.h>

typedef void gemv_t(char *, int *, int *, double *, double *, int *,
                    double *, int *, double *, double *, int *);
typedef void gemm_t(char *, char *, int *, int *, int *, double *, double *,
                    int *, double *, int *, double *, double *, int *);
typedef void syrk_t(char *, char *, int *, int *, double *, double *, int *,
                    double *, double *, int *);
typedef double dot_t(int *, double *, int *, double *, int *);
typedef void potrf_t(char *, int *, double *, int *, int *);
typedef void potrs_t(char *, int *, int *, double *, int *, double *, int *,
                     int *);

static gemv_t *gemv;
static gemm_t *gemm;
static syrk_t *syrk;
static dot_t *dot;
static potrf_t *potrf;
static potrs_t *potrs;
static int ONE = 1;

/* Columns per block of the sweep: the module's BLOCK */
enum { srp_block = 8 };

/* capsules hold dgemv, dgemm, dsyrk, ddot, dpotrf and dpotrs, in kernel.py's
 * ROUTINES order; -1, with nothing bound, if there are not n = 6 of them or
 * one is not a capsule */
static int srp_bind(PyObject *const *capsules, Py_ssize_t n)
{
    void *fn[6];
    if (n != 6)
        return -1;
    for (int i = 0; i < 6; i++)
        if (!PyCapsule_CheckExact(capsules[i])
            || !(fn[i] = PyCapsule_GetPointer(
                     capsules[i], PyCapsule_GetName(capsules[i]))))
            return -1;
    gemv = (gemv_t *)fn[0];
    gemm = (gemm_t *)fn[1];
    syrk = (syrk_t *)fn[2];
    dot = (dot_t *)fn[3];
    potrf = (potrf_t *)fn[4];
    potrs = (potrs_t *)fn[5];
    return 0;
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
 * of alternations, -1 for a non-finite x, diagonal of U'U (which a
 * non-finite entry of U makes non-finite, as can an overflow) or U'x (an
 * overflow of finite U and x), which the numpy path rejects, -2 where a
 * Cholesky factor the numpy path would replace by a pivoted solve fails.
 * w holds 3r^2 + 4r + 7m + mr doubles. */
static int srp_project(int m, int r, const double *U, const double *x,
                       double l1, double l2, double tol, int max_iter,
                       double *v_out, double *s_out, double *w)
{
    double *G = w, *F = G + r * r, *D = F + r * r, *Um = D + r * r;
    double *v = Um + r, *vn = v + r, *vs = vn + r;
    double *s = vs + r, *sn = s + m, *ss = sn + m, *t = ss + m;
    double *signs = t + m, *prev = signs + m, *xg = prev + m, *Ug = xg + m;
    int n = 0, have_prev = 0;

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
 * window's oldest row (xo, vo, so) takes (x, v, s). xo NULL: no window.
 * w holds 2m doubles. */
static void srp_accumulate(int m, int r, double *A, double *B,
                           const double *x, const double *v, const double *s,
                           double *xo, double *vo, double *so, double *w)
{
    double *e = w, *eo = w + m;

    for (int i = 0; i < r; i++)
        for (int j = 0; j < r; j++)
            A[i * r + j] += xo ? v[i] * v[j] - vo[i] * vo[j] : v[i] * v[j];
    for (int i = 0; i < m; i++) {
        e[i] = x[i] - s[i];
        eo[i] = xo ? xo[i] - so[i] : 0.0;
    }
    for (int j = 0; j < r; j++)
        for (int i = 0; i < m; i++)
            B[j * m + i] += xo ? v[j] * e[i] - vo[j] * eo[i] : v[j] * e[i];
    if (xo) {
        memcpy(xo, x, sizeof(double) * m);
        memcpy(vo, v, sizeof(double) * r);
        memcpy(so, s, sizeof(double) * m);
    }
}

/* T = X Y' + beta T for the m x k columns X of U and an n x k Y read from
 * A with leading dimension r, then beta = 1; nothing if k = 0 */
static void pending(int m, int n, int k, const double *X, const double *Y,
                    int r, double *beta, double *T)
{
    double one = 1.0;
    if (k == 0)
        return;
    gemm("N", "T", &m, &n, &k, &one, (double *)X, &m, (double *)Y, &r, beta,
         T, &m);
    *beta = 1.0;
}

/* One sweep of update_basis on an m x r U in place; -1 if A is not symmetric
 * to sym_tol * (1 + max|A|). A Gauss-Seidel sweep in blocks of srp_block
 * columns: a block's pending sums over the columns before it (swept) and
 * after it (not yet) are two dgemm, and each column adds those of its own
 * block by dgemv. w holds r + b + mb doubles, b = min(r, srp_block). */
static int srp_sweep(int m, int r, double *U, const double *A,
                     const double *B, double l1, double sym_tol, double *w)
{
    int nb = r < srp_block ? r : srp_block;
    double *rd = w, *c = rd + r, *T = c + nb, scale = 0.0, skew = 0.0;

    for (int i = 0; i < r * r; i++)
        scale = fmax(scale, fabs(A[i]));
    for (int i = 0; i < r; i++)
        for (int j = 0; j < r; j++)
            skew = fmax(skew, fabs(A[i * r + j] - A[j * r + i]));
    if (skew > sym_tol * (1.0 + scale))
        return -1;
    if (m == 0)
        return 0;
    for (int j = 0; j < r; j++)
        rd[j] = 1.0 / (A[j * r + j] + l1);
    for (int j0 = 0; j0 < r; j0 += nb) {
        int n = r - j0 < nb ? r - j0 : nb, j1 = j0 + n;
        double one = 1.0, beta = 0.0;
        pending(m, n, j0, U, A + j0, r, &beta, T);
        pending(m, n, r - j1, U + (size_t)j1 * m, A + j0 + (size_t)j1 * r,
                r, &beta, T);
        for (int j = j0; j < j1; j++) {
            double *u = U + (size_t)j * m, *t = T + (size_t)(j - j0) * m;
            for (int k = j0; k < j1; k++)
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
 * 'C' or 'F', writable if asked, whose extent along axis k is dims[k], or
 * is written to dims[k] where that is negative; NULL, with a ValueError,
 * if it is not such an array. */
static double *array(Held *h, PyObject *obj, const char *name, char order,
                     int writable, int ndim, Py_ssize_t *dims)
{
    Py_buffer *b = &h->view[h->n];
    int flags = PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0)
                | (order == 'F' ? PyBUF_F_CONTIGUOUS : PyBUF_C_CONTIGUOUS);

    if (PyObject_GetBuffer(obj, b, flags) < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "kernel: %s must be a %s%c-contiguous"
                     " float64 array", name, writable ? "writable " : "",
                     order);
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

/* 3r^2 + 4r + 7m + mr, the scratch of srp_project, which bounds every index
 * the routines form in int; -1, with a ValueError, where it passes INT_MAX */
static Py_ssize_t work_size(Py_ssize_t m, Py_ssize_t r)
{
    double n = 3.0 * r * r + 4.0 * r + 7.0 * m + (double)m * r;
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
    PyErr_SetString(PyExc_ValueError, "kernel: bind takes the capsules of "
                    "dgemv, dgemm, dsyrk, ddot, dpotrf and dpotrs");
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
    double *A, *B, *x, *v, *s, *w, *xo = NULL, *vo = NULL, *so = NULL;

    if (nargs != 5 && nargs != 8) {
        PyErr_Format(PyExc_TypeError, "accumulate takes 5 or 8 arguments "
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
    if (nargs == 8
        && (!(xo = array(&h, args[5], "m_old", 'C', 1, 1, dm))
            || !(vo = array(&h, args[6], "v_old", 'C', 1, 1, dr))
            || !(so = array(&h, args[7], "s_old", 'C', 1, 1, dm))))
        goto fail;
    if (!(w = scratch(&h, 2 * dm[0])))
        goto fail;
    Py_BEGIN_ALLOW_THREADS
    srp_accumulate((int)dm[0], (int)dr[0], A, B, x, v, s, xo, vo, so, w);
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

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"bind", FASTCALL(bind), "bind(*capsules): the ROUTINES of kernel.py"},
    {"project", FASTCALL(project),
     "project(U, x, v, s, lambda1, lambda2, tol, max_iter): writes v and s; "
     "the number of alternations, or -1 or -2 where it declines"},
    {"accumulate", FASTCALL(accumulate),
     "accumulate(A, B, x, v, s[, m_old, v_old, s_old]): updates A and B, "
     "and overwrites the oldest row (m_old, v_old, s_old) with (x, v, s)"},
    {"sweep", FASTCALL(sweep),
     "sweep(U, A, B, lambda1, sym_tol): one sweep of U in place; False, U "
     "untouched, if A is not symmetric"},
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
