import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamrpca.projection
import streamrpca.prox
from streamrpca import kernel
from streamrpca.changepoint import continue_tracker
from streamrpca.exceptions import ContractViolation, TrackerStepError
from streamrpca.projection import (ProjectionConfig, _project_numpy,
                                   project_sample, projection_objective)
from streamrpca.prox import shrink_matrix
from streamrpca.streams import ObservationStream
from streamrpca.trackers import SubspaceModel

compiled = pytest.mark.skipif(kernel.ACTIVE != "compiled",
                              reason="no compiled kernel could be built")


def oracle_multistart(U, m_t, lambda1, lambda2, restarts=200, seed=0):
    """Best objective over many random-restart alternating runs plus a
    coordinate-descent polish. Independent of project_sample's code path."""
    rng = np.random.Generator(np.random.PCG64(seed))
    m, r = U.shape
    G_inv = np.linalg.inv(U.T @ U + lambda1 * np.eye(r))
    best = np.inf
    for k in range(restarts):
        if k == 0:
            v = np.zeros(r)
            s = np.zeros(m)
        else:
            v = rng.standard_normal(r) * 3
            s = rng.standard_normal(m) * 3
        for _ in range(500):
            v_new = G_inv @ (U.T @ (m_t - s))
            s_new = shrink_matrix(m_t - U @ v_new, lambda2)
            if max(np.max(np.abs(v_new - v)), np.max(np.abs(s_new - s))) < 1e-12:
                v, s = v_new, s_new
                break
            v, s = v_new, s_new
        # coordinate-descent polish on s, exact v re-solve
        for _ in range(50):
            v = G_inv @ (U.T @ (m_t - s))
            resid = m_t - U @ v
            for i in range(m):
                s[i] = shrink_matrix(np.array([resid[i]]), lambda2)[0]
        best = min(best, projection_objective(U, m_t, v, s, lambda1, lambda2))
    return best


@pytest.mark.parametrize("field,value,match", [
    ("tol", np.nan, "tol must be > 0"),
    ("tol", 0.0, "tol must be > 0"),
    ("max_iter", np.nan, "an int >= 1"),
    ("max_iter", 2.5, "an int >= 1"),
    ("max_iter", 0, "an int >= 1"),
    ("max_iter", True, "an int >= 1"),
])
def test_projection_config_refuses_what_it_cannot_run(field, value, match):
    # before: NaN tol was accepted and never stopped the alternation, and a
    # NaN or fractional max_iter failed later inside a step
    with pytest.raises(ContractViolation, match=match):
        ProjectionConfig(**{field: value})


def test_zero_basis_reduces_to_shrinkage():
    U = np.zeros((2, 1))
    v, s = project_sample(U, np.array([3.0, 0.1]), 0.1, 0.5)
    np.testing.assert_allclose(v, [0.0])
    np.testing.assert_allclose(s, [2.5, 0.0])


def test_exact_sample_large_sparse_penalty():
    rng = np.random.Generator(np.random.PCG64(21))
    U = rng.standard_normal((6, 2))
    v_star = rng.standard_normal(2)
    m_t = U @ v_star
    v, s = project_sample(U, m_t, 1e-6, np.abs(m_t).max() + 1.0)
    assert np.all(s == 0.0)
    assert np.linalg.norm(v - v_star) <= 1e-3 * np.linalg.norm(v_star)


def test_matches_multistart_oracle():
    rng = np.random.Generator(np.random.PCG64(22))
    for trial in range(10):
        U = rng.standard_normal((6, 2))
        m_t = rng.standard_normal(6) * 2
        v, s = project_sample(U, m_t, 0.1, 0.3)
        ours = projection_objective(U, m_t, v, s, 0.1, 0.3)
        best = oracle_multistart(U, m_t, 0.1, 0.3, restarts=50, seed=trial)
        assert ours <= best + 1e-6


def test_objective_monotone_and_fixed_point():
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(20):
        U = rng.standard_normal((8, 3))
        m_t = rng.standard_normal(8) * 2
        lam1, lam2 = 0.05, 0.4
        config = ProjectionConfig(tol=1e-9, max_iter=20000)
        v, s = project_sample(U, m_t, lam1, lam2, config)
        base = projection_objective(U, m_t, v, s, lam1, lam2)

        # one more alternation barely moves the objective
        G_inv = np.linalg.inv(U.T @ U + lam1 * np.eye(3))
        v2 = G_inv @ (U.T @ (m_t - s))
        s2 = shrink_matrix(m_t - U @ v2, lam2)
        after = projection_objective(U, m_t, v2, s2, lam1, lam2)
        assert base - after < 1e-9
        assert after <= base + 1e-12


def test_objective_descends_across_iterations():
    # replicate the alternation manually and check monotone descent
    rng = np.random.Generator(np.random.PCG64(24))
    U = rng.standard_normal((10, 3))
    m_t = rng.standard_normal(10) * 3
    lam1, lam2 = 0.1, 0.5
    G_inv = np.linalg.inv(U.T @ U + lam1 * np.eye(3))
    v = np.zeros(3)
    s = np.zeros(10)
    prev = projection_objective(U, m_t, v, s, lam1, lam2)
    for _ in range(30):
        v = G_inv @ (U.T @ (m_t - s))
        s = shrink_matrix(m_t - U @ v, lam2)
        cur = projection_objective(U, m_t, v, s, lam1, lam2)
        assert cur <= prev + 1e-12
        prev = cur


def test_support_contains_true_support():
    # with an orthonormal basis, tiny ridge, and sparse entries above the
    # shrinkage threshold, the recovered support covers the true support
    rng = np.random.Generator(np.random.PCG64(25))
    hits = 0
    trials = 20
    for _ in range(trials):
        m, r = 12, 2
        Q, _ = np.linalg.qr(rng.standard_normal((m, r)))
        v_star = rng.standard_normal(r)
        lam2 = 0.3
        s_star = np.zeros(m)
        idx = rng.choice(m, size=2, replace=False)
        s_star[idx] = rng.uniform(2 * lam2, 10, size=2) * rng.choice([-1, 1], 2)
        m_t = Q @ v_star + s_star
        _, s = project_sample(Q, m_t, 1e-8, lam2)
        if set(np.flatnonzero(s_star)) <= set(np.flatnonzero(s)):
            hits += 1
    assert hits == trials


def test_non_finite_input_rejected(step_paths):
    # the kernel reads a non-finite U off the diagonal of U'U: one entry
    # anywhere makes its column's sum of squares non-finite
    rng = np.random.Generator(np.random.PCG64(38))
    m, r = 12, 4
    x = rng.standard_normal(m)
    cases = [(np.zeros((2, 1)), np.array([np.nan, 0.0])),
             (rng.standard_normal((m, r)), np.r_[x[1:], np.inf])]
    for value in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (m - 1, 1), (m // 2, r - 1)):
            U = rng.standard_normal((m, r))
            U[i, j] = value
            cases.append((U, x))
    for path in step_paths:
        for U, m_t in cases:
            with path, pytest.raises(ContractViolation,
                                     match="project_sample: non-finite input"):
                project_sample(U, m_t, 0.1, 0.1)


def test_overflowing_gram_diagonal_takes_the_numpy_path(step_paths):
    # finite entries whose U'U diagonal or U'm_t overflows: the kernel
    # declines them, as a non-finite U, and the numpy path rejects them; a
    # tracker step then fails with its tracked time and leaves the model as
    # it was
    rng = np.random.Generator(np.random.PCG64(39))
    U = rng.standard_normal((12, 3))
    U[5, 1] = U[0, 2] = 1e200
    x = rng.standard_normal(12)
    U_big = rng.standard_normal((12, 3))
    U_big[0, 0] = 1e150
    x_big = x.copy()
    x_big[0] = 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        for U, x in ((U, x), (U_big, x_big)):
            if kernel.ACTIVE == "compiled":
                assert kernel.project(U, x, 0.1, 0.1, 1e-7, 1000) is None
            for path in step_paths:
                with path, pytest.raises(ContractViolation,
                                         match="U'U or U'm_t overflows"):
                    project_sample(U, x, 0.1, 0.1)
                model = SubspaceModel(U=U, A=np.eye(3), B=np.zeros((12, 3)),
                                      lambda1=0.1, lambda2=0.1, t=4)
                before = copy.deepcopy(model)
                with path, pytest.raises(TrackerStepError) as err:
                    continue_tracker(ObservationStream.from_matrix(x[:, None]),
                                     "stoc", model, None, 0)
                assert err.value.t == 5
                assert model.t == before.t
                for X, Y in ((model.U, before.U), (model.A, before.A),
                             (model.B, before.B)):
                    np.testing.assert_array_equal(X, Y)


def test_dimension_mismatch_rejected():
    with pytest.raises(ContractViolation):
        project_sample(np.zeros((3, 1)), np.zeros(4), 0.1, 0.1)


def plain_alternation(U, m_t, lambda1, lambda2, tol=1e-13, max_iter=100000):
    """The v/s alternation from s = 0 with an explicit Gram inverse, run
    until the max-norm step is below tol."""
    r = U.shape[1]
    P = np.linalg.inv(U.T @ U + lambda1 * np.eye(r)) @ U.T
    v = np.zeros(r)
    s = np.zeros_like(m_t)
    for _ in range(max_iter):
        v_new = P @ (m_t - s)
        resid = m_t - U @ v_new
        s_new = np.sign(resid) * np.maximum(np.abs(resid) - lambda2, 0.0)
        step = max(np.max(np.abs(v_new - v)), np.max(np.abs(s_new - s)))
        v, s = v_new, s_new
        if step < tol:
            break
    return v, s


def count_alternations(monkeypatch):
    """Count calls through projection.shrink_matrix, one per alternation of
    the numpy path."""
    calls = []

    def counted(X, tau):
        calls.append(1)
        return shrink_matrix(X, tau)

    monkeypatch.setattr(streamrpca.projection, "shrink_matrix", counted)
    return calls


@settings(max_examples=200, deadline=None)
# The alternation alone needs thousands of steps here (small lambda1, the
# outlier rows carry most of U), and it stops at tol short of KKT on the
# second; the damped Newton step and the exact finish at tol handle them.
@example(m=5, r=1, n_outliers=2, seed=4, lambda1=0.0078125, lambda2=0.25)
@example(m=21, r=1, n_outliers=2, seed=22075, lambda1=0.81640625,
         lambda2=0.01)
# The support covers most rows and lambda1 is small, so the support solve
# works on a Gram matrix downdated to near lambda1*I.
@example(m=12, r=3, n_outliers=10, seed=0, lambda1=1e-3, lambda2=0.01)
@example(m=40, r=6, n_outliers=36, seed=2, lambda1=1e-3, lambda2=0.01)
@example(m=40, r=1, n_outliers=40, seed=7, lambda1=1e-3, lambda2=0.01)
@given(m=st.integers(1, 40), r=st.integers(1, 6),
       n_outliers=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       lambda1=st.floats(1e-3, 10.0), lambda2=st.floats(1e-2, 10.0))
def test_output_meets_kkt_conditions(step_paths, m, r, n_outliers, seed,
                                     lambda1, lambda2):
    rng = np.random.Generator(np.random.PCG64(seed))
    U = rng.standard_normal((m, r))
    m_t = U @ rng.standard_normal(r) + 0.1 * rng.standard_normal(m)
    idx = rng.choice(m, size=min(n_outliers, m), replace=False)
    m_t[idx] += rng.uniform(5, 50, idx.size) * rng.choice([-1, 1], idx.size)
    for path in step_paths:
        with path:
            v, s = project_sample(U, m_t, lambda1, lambda2)

        resid = m_t - U @ v - s
        # stationarity in v: U'(m_t - U v - s) = lambda1 v
        np.testing.assert_allclose(U.T @ resid, lambda1 * v, rtol=0,
                                   atol=1e-8)
        # subgradient of lambda2*||s||_1: the residual is lambda2*sign(s) on
        # the support and at most lambda2 in magnitude off it
        on = s != 0
        np.testing.assert_allclose(resid[on], lambda2 * np.sign(s[on]),
                                   rtol=0, atol=1e-8)
        assert np.all(np.abs(resid[~on]) <= lambda2 + 1e-8)


def test_matches_plain_alternation(step_paths):
    rng = np.random.Generator(np.random.PCG64(26))
    m, r = 100, 10
    worst = 0.0
    for _ in range(200):
        U = rng.standard_normal((m, r)) / np.sqrt(m)
        m_t = U @ rng.standard_normal(r) * 3 + 0.01 * rng.standard_normal(m)
        idx = rng.random(m) < 0.01
        m_t[idx] += rng.uniform(-50, 50, idx.sum())
        v_ref, s_ref = plain_alternation(U, m_t, 0.1, 0.5)
        for path in step_paths:
            with path:
                v, s = project_sample(U, m_t, 0.1, 0.5)
            worst = max(worst, np.max(np.abs(v - v_ref)),
                        np.max(np.abs(s - s_ref)))
    assert worst <= 1e-9


def failed_support_guess():
    # Alternations 1 and 2 both put both entries on the support with sign
    # (+, +). Solved exactly on that support, v is held only by the ridge
    # (lambda1 v = lambda2 U'sigma, v = 5) and s_2 comes out negative, so
    # the KKT check fails. The minimizer has support {0} alone.
    U = np.array([[-2.5], [3.0]])
    m_t = np.array([4.0, 2.3])
    lam1, lam2 = 0.1, 1.0
    P = np.linalg.inv(U.T @ U + lam1 * np.eye(1)) @ U.T
    s1 = shrink_matrix(m_t - U @ (P @ m_t), lam2)
    s2 = shrink_matrix(m_t - U @ (P @ (m_t - s1)), lam2)
    assert np.array_equal(np.sign(s1), [1, 1])
    assert np.array_equal(np.sign(s2), [1, 1])
    sigma = np.array([1.0, 1.0])
    # (I - U_S P_S) s_S = m_S - U_S P m_t - lambda2 sigma on S = {0, 1}
    s_guess = np.linalg.solve(np.eye(2) - U @ P, m_t - U @ (P @ m_t)
                              - lam2 * sigma)
    assert s_guess[1] < 0
    return U, m_t, lam1, lam2


def assert_failed_guess_recovers(U, m_t, lam1, lam2, v, s):
    v_ref, s_ref = plain_alternation(U, m_t, lam1, lam2)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-9)
    assert s[1] == 0.0 and s[0] > 0


def test_failed_support_guess_falls_back_to_alternation(monkeypatch):
    U, m_t, lam1, lam2 = failed_support_guess()
    calls = count_alternations(monkeypatch)
    v, s = _project_numpy(U, m_t, lam1, lam2, ProjectionConfig())
    assert len(calls) > 2
    assert_failed_guess_recovers(U, m_t, lam1, lam2, v, s)


@compiled
def test_kernel_failed_support_guess_falls_back_to_alternation():
    U, m_t, lam1, lam2 = failed_support_guess()
    v, s, alternations = kernel.project(U, m_t, lam1, lam2, 1e-7, 1000)
    assert alternations > 2
    assert_failed_guess_recovers(U, m_t, lam1, lam2, v, s)
    v_np, s_np = _project_numpy(U, m_t, lam1, lam2, ProjectionConfig())
    np.testing.assert_allclose(v, v_np, rtol=1e-12, atol=0)
    np.testing.assert_allclose(s, s_np, rtol=1e-12, atol=0)


def max_iter_one_instance():
    rng = np.random.Generator(np.random.PCG64(27))
    return rng.standard_normal((20, 3)), rng.standard_normal(20) * 3


def assert_one_alternation(U, m_t, v, s, rtol=0.0):
    # rtol: the kernel's U v is dgemv on a column-major U; numpy's U @ v on
    # a row-major U calls the transposed dgemv, which sums in another order
    v_ref = np.linalg.solve(U.T @ U + 0.1 * np.eye(3), U.T @ m_t)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s, shrink_matrix(m_t - U @ v, 0.5), rtol=rtol,
                               atol=0)


def test_max_iter_one_is_one_alternation(monkeypatch):
    U, m_t = max_iter_one_instance()
    calls = count_alternations(monkeypatch)
    v, s = _project_numpy(U, m_t, 0.1, 0.5, ProjectionConfig(max_iter=1))
    assert len(calls) == 1
    assert_one_alternation(U, m_t, v, s)


@compiled
def test_kernel_max_iter_one_is_one_alternation():
    U, m_t = max_iter_one_instance()
    v, s, alternations = kernel.project(U, m_t, 0.1, 0.5, 1e-7, 1)
    assert alternations == 1
    assert_one_alternation(U, m_t, v, s, rtol=1e-12)


def outlier_instance(m, r, n_outliers, seed):
    """The sample of test_output_meets_kkt_conditions."""
    rng = np.random.Generator(np.random.PCG64(seed))
    U = rng.standard_normal((m, r))
    m_t = U @ rng.standard_normal(r) + 0.1 * rng.standard_normal(m)
    idx = rng.choice(m, size=min(n_outliers, m), replace=False)
    m_t[idx] += rng.uniform(5, 50, idx.size) * rng.choice([-1, 1], idx.size)
    return U, m_t


def test_downdated_support_solve_matches_off_support_rows(monkeypatch):
    # Each support solve factors G - U_S'U_S, the Gram matrix G = U'U +
    # lambda1*I downdated by the rows on the support S of the last
    # alternation's signs. It must agree with forming the Gram matrix of the
    # rows off S: (U_off'U_off + lambda1*I) v = U_off'm_off + lambda2*U'sigma.
    U, m_t = outlier_instance(40, 6, 36, seed=2)
    lam1, lam2 = 1e-3, 0.01
    G_full = U.T @ U + lam1 * np.eye(6)
    last_s, support_solves = [], []

    def shrink(X, tau):
        last_s.append(shrink_matrix(X, tau))
        return last_s[-1]

    def solver(G):
        factor, solve = streamrpca.prox._cholesky_solver(G)
        if np.array_equal(G, G_full):
            return factor, solve
        signs = np.sign(last_s[-1])

        def recorded(rhs):
            x = solve(rhs)
            support_solves.append((signs, G, rhs, x, factor is not None))
            return x

        return factor, recorded

    monkeypatch.setattr(streamrpca.projection, "shrink_matrix", shrink)
    monkeypatch.setattr(streamrpca.projection, "_cholesky_solver", solver)
    _project_numpy(U, m_t, lam1, lam2, ProjectionConfig())

    assert support_solves
    for signs, G, rhs, x, factored in support_solves:
        assert factored and (signs != 0).sum() >= 30
        off = signs == 0
        G_off = U[off].T @ U[off] + lam1 * np.eye(6)
        rhs_off = U[off].T @ m_t[off] + lam2 * (U.T @ signs)
        np.testing.assert_allclose(G, G_off, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rhs, rhs_off, rtol=0, atol=1e-12)
        x_off = np.linalg.solve(G_off, rhs_off)
        np.testing.assert_allclose(x, x_off, rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(x_off).max()))


def test_support_solve_falls_back_when_the_downdate_fails(monkeypatch):
    U, m_t = outlier_instance(40, 6, 36, seed=2)
    config = ProjectionConfig()
    v_ref, s_ref = _project_numpy(U, m_t, 1e-3, 0.01, config)
    G = U.T @ U + 1e-3 * np.eye(6)
    formed = []

    def solver(M):
        factor, solve = streamrpca.prox._cholesky_solver(M)
        if np.array_equal(M, G):
            return factor, solve
        if formed and formed[-1] is None:  # the fallback's own factor
            formed[-1] = M
            return factor, solve
        formed.append(None)  # a downdate: report it as failed
        return None, solve

    monkeypatch.setattr(streamrpca.projection, "_cholesky_solver", solver)
    v, s = _project_numpy(U, m_t, 1e-3, 0.01, config)
    assert formed and all(M is not None for M in formed)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-10)
