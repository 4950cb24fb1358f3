import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from streamrpca.exceptions import ContractViolation, InitializationError
from streamrpca.experiments import study_spec
from streamrpca.pcp import (DUAL_WEIGHT, MU_GROWTH, RANK_TOL, PcpConfig,
                            PcpResult, _count_rank, _first_sweep,
                            burnin_initialize, pcp_alm)
from streamrpca.prox import (gram_eigh, shrink_matrix, svt, svt_factors,
                             threshold_factors)
from streamrpca.simgen import full_stream_matrix, generate


def _lam(M):
    """The default sparse penalty, 1/sqrt(max(m, n))."""
    return 1.0 / np.sqrt(max(M.shape))


def _mu(M):
    """The default initial penalty, 1.25/||M||_2 (1.0 for a zero matrix),
    with ||M||_2 read from the eigendecomposition of M's Gram matrix, as
    pcp_alm reads it."""
    norm_two = gram_eigh(M)[0][0]
    return 1.25 / norm_two if norm_two > 0.0 else 1.0


def _rank(L):
    return _count_rank(np.linalg.svd(L, compute_uv=False))


def _same_result(a, b):
    np.testing.assert_array_equal(a.L, b.L)
    np.testing.assert_array_equal(a.S, b.S)
    assert (a.iterations, a.converged, a.rank) == \
        (b.iterations, b.converged, b.rank)


def test_default_pcp_lambda():
    rng = np.random.Generator(np.random.PCG64(9))
    for shape, lam in (((400, 20), 0.05), ((20, 200), 1.0 / np.sqrt(200)),
                       ((1, 1), 1.0)):
        M = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
        M[rng.random(M.shape) < 0.05] += 50.0
        assert _lam(M) == pytest.approx(lam)
        _same_result(pcp_alm(M), pcp_alm(M, PcpConfig(lam=_lam(M), mu=_mu(M))))


def test_default_mu():
    for M, mu in ((np.ones((2, 2)), 0.625), (np.zeros((3, 3)), 1.0),
                  (np.array([[2.0, 0.0], [0.0, 2.0]]), 0.625)):
        assert _mu(M) == pytest.approx(mu)
        _same_result(pcp_alm(M), pcp_alm(M, PcpConfig(lam=_lam(M), mu=_mu(M))))


def test_pcp_zero_matrix():
    res = pcp_alm(np.zeros((4, 5)))
    assert res.converged
    assert res.iterations <= 1
    assert np.all(res.L == 0) and np.all(res.S == 0)
    for shape in ((0, 5), (4, 0)):
        with pytest.raises(ContractViolation, match="non-empty"):
            pcp_alm(np.zeros(shape), PcpConfig(lam=0.5))


def test_pcp_rank_one_no_sparse():
    rng = np.random.Generator(np.random.PCG64(10))
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    M = np.outer(a, b)
    res = pcp_alm(M, PcpConfig(lam=1.0 / np.sqrt(50)))
    norm = np.linalg.norm(M)
    assert res.converged
    assert np.linalg.norm(res.L - M) / norm <= 1e-5
    assert np.linalg.norm(res.S) <= 1e-5 * norm


def test_pcp_exact_recovery_low_rank_plus_sparse():
    rng = np.random.Generator(np.random.PCG64(11))
    m = n = 100
    r = 5
    L_true = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    mask = rng.random((m, n)) < 0.05
    S_true = np.where(mask, rng.uniform(-1000, 1000, (m, n)), 0.0)
    res = pcp_alm(L_true + S_true)
    assert np.linalg.norm(res.L - L_true) / np.linalg.norm(L_true) <= 1e-3
    assert np.linalg.norm(res.S - S_true) / np.linalg.norm(S_true) <= 1e-3


def test_pcp_nonconvergence_reported():
    rng = np.random.Generator(np.random.PCG64(12))
    M = rng.standard_normal((20, 20))
    res = pcp_alm(M, PcpConfig(tol=1e-12, max_iter=2))
    assert not res.converged
    assert res.iterations == 2


def test_pcp_residual_bound_when_converged():
    rng = np.random.Generator(np.random.PCG64(13))
    M = rng.standard_normal((30, 40))
    config = PcpConfig(tol=1e-6)
    res = pcp_alm(M, config)
    if res.converged:
        resid = np.linalg.norm(M - res.L - res.S)
        assert resid <= config.tol * np.linalg.norm(M)


def _objective(L, S, lam):
    return np.linalg.svd(L, compute_uv=False).sum() + lam * np.abs(S).sum()


def _fixed_mu_objective(M, lam, tol=1e-10, max_iter=5000):
    """(objective, met) after a fixed-mu ALM run until both the residual and
    the change in S are within tol * ||M||_F; met is False if max_iter
    sweeps stopped it first, when the iterate is not feasible and its
    objective can lie below the optimum."""
    mu = M.size / (4.0 * np.abs(M).sum()) if M.any() else 1.0
    S = Y = np.zeros_like(M)
    for _ in range(max_iter):
        L = svt(M - S + Y / mu, 1.0 / mu)
        S_prev, S = S, shrink_matrix(M - L + Y / mu, lam / mu)
        Y = Y + mu * (M - L - S)
        if max(np.linalg.norm(M - L - S),
               np.linalg.norm(S - S_prev)) <= tol * np.linalg.norm(M):
            return _objective(L, S, lam), True
    return _objective(L, S, lam), False


@settings(max_examples=60, deadline=None)
# test_pcp_command's rank-one 15 x 12 input, lam = 1/sqrt(15)
@example(m=15, n=12, r=1, outlier_frac=0.0, seed=90)
# a single column, where the capped reference stopped below the optimum
@example(m=19, n=1, r=3, outlier_frac=0.0, seed=1500)
# a single row; drawn shapes have two rows and columns or more, where the
# optimum is not trivial
@example(m=1, n=17, r=2, outlier_frac=0.0, seed=7)
@given(m=st.integers(2, 30), n=st.integers(2, 30), r=st.integers(0, 3),
       outlier_frac=st.floats(0.0, 0.05), seed=st.integers(0, 2**32 - 1))
def test_pcp_converges_to_the_optimum(m, n, r, outlier_frac, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    M = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    k = int(outlier_frac * m * n)
    idx = rng.choice(m * n, size=k, replace=False)
    M.flat[idx] += rng.uniform(5, 50, k) * rng.choice([-1, 1], k)
    config = PcpConfig()
    res = pcp_alm(M, config)
    # small instances outside the recovery regime can hit max_iter; the
    # claim is about the results reported as converged
    assume(res.converged)
    assert np.linalg.norm(M - res.L - res.S) <= config.tol * np.linalg.norm(M)
    lam = _lam(M)
    if min(m, n) == 1:
        # lam * ||x||_1 <= ||x||_2 for a vector x: L = 0, S = M is optimal
        f_ref, met = lam * np.abs(M).sum(), True
    else:
        f_ref, met = _fixed_mu_objective(M, lam)
    if met:
        assert abs(_objective(res.L, res.S, lam) - f_ref) <= 1e-6 * f_ref


def _full_svd_pcp(M):
    """The solve with a full SVD in every sweep: pcp_alm's loop before its
    SVT was made partial, kept as the reference. Returns (L, S, iterations,
    converged, rank)."""
    config = PcpConfig()
    lam = _lam(M)
    norm_two = np.linalg.norm(M, 2)
    mu = _mu(M)
    norm_M = np.linalg.norm(M)
    dual_scale = DUAL_WEIGHT * np.sqrt(M.size)
    Y = M / max(norm_two, np.abs(M).max() / lam)
    S = np.zeros_like(M)
    rank = None
    for k in range(1, config.max_iter + 1):
        L = svt(M - S + Y / mu, 1.0 / mu)
        S_prev, S = S, shrink_matrix(M - L + Y / mu, lam / mu)
        residual = M - L - S
        Y += mu * residual
        primal = np.linalg.norm(residual) / norm_M
        dual = mu * np.linalg.norm(S - S_prev) / dual_scale
        if rank is None and primal <= RANK_TOL:
            rank = _rank(L)
        converged = bool(primal <= config.tol and dual <= config.tol)
        if converged:
            break
        if primal > dual:
            mu *= MU_GROWTH
    return L, S, k, converged, rank


def _study3_blocks(scale, seed):
    """Burn-in block and the blocks starting 3 samples after each change
    point of study 3, with the study's burn-in length."""
    sim, cp = study_spec(3, scale, seed)
    gt = generate(sim)
    X = full_stream_matrix(gt)
    starts = [0] + [sim.n_burnin + c + 3 for c in gt.cps]
    return [X[:, i:i + cp.n_burnin] for i in starts]


def test_partial_svt_solve_matches_full_svd_loop():
    # paper study 3: the 400 x 200 burn-in (rank 10) and restart blocks
    # (ranks 55 and 30); desk study 3: the rank-28 restart block, outside
    # PCP's recovery regime, which takes hundreds of sweeps
    for M in _study3_blocks("paper", 0) + _study3_blocks("desk", 0)[1:2]:
        L0, S0, it0, conv0, rank0 = _full_svd_pcp(M)
        res = pcp_alm(M)
        assert conv0 and res.converged
        assert res.rank == rank0
        assert abs(res.iterations - it0) <= 2
        lam = _lam(M)
        f0 = _objective(L0, S0, lam)
        assert abs(_objective(res.L, res.S, lam) - f0) <= 1e-8 * f0
        np.testing.assert_array_equal(
            (res.factors.U * res.factors.s) @ res.factors.Vh, res.L)


def _pcp_first_loop(M):
    """pcp_alm with its sweep loop as first written, which formed Y / mu
    twice and M - L twice per sweep: the reference for bit identity."""
    config = PcpConfig()
    lam = _lam(M)
    mu, J, factors = _first_sweep(M, lam, config.mu)
    norm_M = np.linalg.norm(M) or 1.0
    dual_scale = DUAL_WEIGHT * np.sqrt(M.size)
    Y = M / J
    S = np.zeros_like(M)
    rank = None
    for k in range(1, config.max_iter + 1):
        if k > 1:
            factors = svt_factors(M - S + Y / mu, 1.0 / mu, factors.block)
        L = (factors.U * factors.s) @ factors.Vh
        S_prev, S = S, shrink_matrix(M - L + Y / mu, lam / mu)
        residual = M - L - S
        Y += mu * residual
        primal = np.linalg.norm(residual) / norm_M
        dual = mu * np.linalg.norm(S - S_prev) / dual_scale
        if rank is None and primal <= RANK_TOL:
            rank, rank_iteration = _count_rank(factors.s), k
        converged = bool(primal <= config.tol and dual <= config.tol)
        if converged:
            break
        if primal > dual:
            mu *= MU_GROWTH
    if rank is None:
        rank, rank_iteration = _count_rank(factors.s), k
    return PcpResult(L=L, S=S, iterations=k, converged=converged, rank=rank,
                     rank_iteration=rank_iteration, factors=factors)


def test_sweep_reuses_its_temporaries_bit_for_bit():
    # paper study 3: the rank-10 burn-in and the rank-55 restart block
    for M in _study3_blocks("paper", 0)[:2]:
        res, ref = pcp_alm(M), _pcp_first_loop(M)
        _same_result(res, ref)
        assert res.rank_iteration == ref.rank_iteration


def test_paper_burnin_takes_no_full_size_svd(monkeypatch):
    # paper study 3, samples 0-199 (rank 10) and the two restart blocks
    # (ranks 55 and 30): the first sweep reads ||M||_2 and its iterate from
    # the Gram matrix, and every later sweep is a subspace iteration or a
    # Gram solve; the subspace iteration's small SVDs show the patch works
    svd, calls = np.linalg.svd, []

    def counting_svd(A, *args, **kwargs):
        calls.append(np.shape(A))
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for M, rank in zip(_study3_blocks("paper", 0), (10, 55, 30)):
        assert M.shape == (400, 200)
        res = pcp_alm(M)
        assert res.converged and res.rank == rank
    assert calls and (400, 200) not in calls


def test_first_sweep_below_the_gram_guard_is_lapacks_bit_for_bit():
    # an explicit mu of 1e4 / ||M||_2 keeps values down to about 1e-4 of
    # ||M||_2, below the Gram guard: the sweep reads ||M||_2, J and its
    # iterate from LAPACK's SVD of M, as the solver did before the Gram path
    rng = np.random.Generator(np.random.PCG64(21))
    left = np.linalg.qr(rng.standard_normal((30, 4)))[0]
    right = np.linalg.qr(rng.standard_normal((20, 4)))[0]
    M = (left * [10.0, 1.0, 1e-2, 1e-3]) @ right.T
    lam, mu = _lam(M), 1e3
    got = _first_sweep(M, lam, mu)
    U, s, Vh, _ = threshold_factors(*np.linalg.svd(M, full_matrices=False),
                                    0.0)
    J = max(s[0], np.abs(M).max() / lam)
    want = threshold_factors(U, (1.0 + 1.0 / (J * mu)) * s, Vh, 1.0 / mu)
    assert got[:2] == (mu, J) and got[2].s.size == 4
    for a, b in zip(got[2], want):
        np.testing.assert_array_equal(a, b)


def test_pcp_config_validation():
    with pytest.raises(ContractViolation):
        PcpConfig(tol=2.0)
    # NaN and fractional caps failed later, inside pcp_alm
    for bad in (0, np.nan, 2.5, 100.0):
        with pytest.raises(ContractViolation, match="an int >= 1"):
            PcpConfig(max_iter=bad)
    with pytest.raises(ContractViolation):
        PcpConfig(lam=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ContractViolation, match="lam must be finite"):
            PcpConfig(lam=bad)
        with pytest.raises(ContractViolation, match="mu must be finite"):
            PcpConfig(mu=bad)


def test_estimate_rank_thresholding():
    assert _rank(np.diag([5.0, 3.0, 1e-12])) == 2
    assert _rank(np.zeros((4, 4))) == 0
    assert _count_rank(np.zeros(0)) == 0


def test_estimate_rank_ground_truth():
    rng = np.random.Generator(np.random.PCG64(14))
    L = rng.standard_normal((60, 7)) @ rng.standard_normal((7, 80))
    assert _rank(L) == 7


def _make_burnin(m, n, r, rho, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    U = rng.standard_normal((m, r))
    V = rng.standard_normal((r, n))
    L = U @ V
    mask = rng.random((m, n)) < rho
    S = np.where(mask, rng.uniform(-1000, 1000, (m, n)), 0.0)
    return L + S, L, S


def test_burnin_rank_one_subspace():
    rng = np.random.Generator(np.random.PCG64(15))
    u = rng.standard_normal(20)
    coeffs = rng.standard_normal(10)
    M_b = np.outer(u, coeffs)
    init = burnin_initialize(M_b, 0.1, 1.0, n_win=10)
    assert init.r == 1
    # U0 spans the same 1-dim subspace as the column space of M_b.
    u_hat = init.U0[:, 0]
    cos = abs(u_hat @ u) / (np.linalg.norm(u_hat) * np.linalg.norm(u))
    assert 1.0 - cos <= 1e-6
    # Accumulators match their definitions on the window.
    M_w, V_w, S_w = init.window_seed
    assert M_w.shape == S_w.shape == (10, 20) and V_w.shape == (10, 1)
    np.testing.assert_array_equal(M_w, M_b.T)
    A_expect = sum(v @ v for v in V_w)
    np.testing.assert_allclose(init.A0[0, 0], A_expect, rtol=1e-10)
    B_expect = sum((m_i - s_i) * v[0] for m_i, v, s_i in zip(M_w, V_w, S_w))
    np.testing.assert_allclose(init.B0[:, 0], B_expect, rtol=1e-8)


def test_burnin_synthetic_rank_and_projection():
    M_b, L_true, _ = _make_burnin(100, 60, 3, 0.01, seed=16)
    init = burnin_initialize(M_b, 0.1, 1.0, n_win=60)
    assert init.r == 3
    proj = init.U0 @ np.linalg.pinv(init.U0)
    err = np.linalg.norm(proj @ L_true - L_true) / np.linalg.norm(L_true)
    assert err <= 1e-2


def test_burnin_gram_is_singular_value_diagonal():
    M_b, _, _ = _make_burnin(50, 40, 4, 0.02, seed=17)
    init = burnin_initialize(M_b, 0.1, 1.0, n_win=30)
    gram = init.U0.T @ init.U0
    s = np.linalg.svd(init.L_b, compute_uv=False)[:init.r]
    np.testing.assert_allclose(gram, np.diag(s), atol=1e-8 * s[0])


def test_burnin_a0_symmetric_psd():
    M_b, _, _ = _make_burnin(30, 25, 2, 0.05, seed=18)
    init = burnin_initialize(M_b, 0.1, 1.0, n_win=20)
    np.testing.assert_allclose(init.A0, init.A0.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(init.A0)
    assert eigs.min() >= -1e-10


def test_burnin_recomposition():
    M_b, _, _ = _make_burnin(40, 30, 3, 0.02, seed=19)
    init = burnin_initialize(M_b, 0.1, 1.0, n_win=30)
    resid = np.linalg.norm(M_b - init.L_b - init.S_b)
    assert resid <= PcpConfig().tol * np.linalg.norm(M_b)


def test_burnin_window_larger_than_block():
    M_b, _, _ = _make_burnin(20, 10, 2, 0.0, seed=20)
    with pytest.raises(ContractViolation):
        burnin_initialize(M_b, 0.1, 1.0, n_win=11)


def test_burnin_zero_block():
    with pytest.raises(InitializationError):
        burnin_initialize(np.zeros((10, 8)), 0.1, 1.0, n_win=8)


def test_rank_is_estimate_rank_of_the_rank_tol_iterate():
    # the solve counts the rank from the thresholded spectrum of the first
    # iterate within RANK_TOL; re-running it to that sweep reproduces the
    # iterate, whose rank count must agree
    for seed in range(3):
        for M in _study3_blocks("desk", seed):
            res = pcp_alm(M)
            head = pcp_alm(M, PcpConfig(max_iter=res.rank_iteration))
            assert head.rank_iteration == res.rank_iteration
            assert head.rank == res.rank == _rank(head.L), seed


def test_burnin_rank_after_change_points():
    # desk study 3: piece ranks (5, 25, 12). A block starting 3 samples
    # after a change point spans one drift step of r0 = 3 new directions,
    # so it has rank 28 or 15; the rank-28 block in 100 x 100 is outside
    # PCP's recovery regime
    for seed in range(3):
        sim, cp = study_spec(3, "desk", seed)
        gt = generate(sim)
        X = full_stream_matrix(gt)
        lambda1, lambda2 = cp.resolved_lambdas(sim.m)
        starts = [0] + [sim.n_burnin + c + 3 for c in gt.cps]
        ranks = []
        for i in starts:
            init = burnin_initialize(X[:, i:i + cp.n_burnin], lambda1,
                                     lambda2, cp.n_win)
            assert init.converged
            ranks.append(init.r)
        assert ranks == [5, 28, 15], (seed, ranks)
