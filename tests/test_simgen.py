import numpy as np
import pytest

from streamrpca.exceptions import ContractViolation
from streamrpca.simgen import (ChangePoints, Drift, SimSpec, Stable,
                               full_stream_matrix, generate)


def stable_spec(seed=0, rho=0.01, m=50, t=200, r=4):
    return SimSpec(m=m, t=t, n_burnin=30, rho=rho, seed=seed,
                   variant=Stable(r=r))


def test_stable_exact_decomposition():
    gt = generate(stable_spec())
    np.testing.assert_array_equal(gt.M, gt.L + gt.S)


def test_stable_zero_rho():
    gt = generate(stable_spec(rho=0.0))
    assert np.all(gt.S == 0)
    np.testing.assert_array_equal(gt.M, gt.L)
    assert np.linalg.matrix_rank(gt.M, tol=1e-9) <= 4


def test_seed_determinism():
    a = generate(stable_spec(seed=123))
    b = generate(stable_spec(seed=123))
    np.testing.assert_array_equal(a.M, b.M)
    np.testing.assert_array_equal(a.M_b, b.M_b)
    c = generate(stable_spec(seed=124))
    assert not np.array_equal(a.M, c.M)


def test_sparsity_calibration():
    rho, m, t = 0.05, 80, 400
    gt = generate(stable_spec(rho=rho, m=m, t=t))
    n = m * t
    nonzeros = np.count_nonzero(gt.S)
    sd = np.sqrt(n * rho * (1 - rho))
    assert abs(nonzeros - n * rho) <= 4 * sd


def test_sparsity_count_at_full_dimensions():
    # m=400, T=5000, rho=0.01: expected 20000 nonzeros within 3 binomial sd
    spec = SimSpec(m=400, t=5000, n_burnin=200, rho=0.01, seed=9,
                   variant=Stable(r=10))
    gt = generate(spec)
    n = 400 * 5000
    sd = np.sqrt(n * 0.01 * 0.99)
    assert abs(np.count_nonzero(gt.S) - 20000) <= 3 * sd


def test_sparse_values_range():
    gt = generate(stable_spec(rho=0.1))
    vals = gt.S[gt.S != 0]
    assert vals.size > 0
    assert np.all(np.abs(vals) <= 1000.0)


def drift_spec(seed=1, t=500, t_p=125, r=6, r0=2):
    return SimSpec(m=40, t=t, n_burnin=30, rho=0.01, seed=seed,
                   variant=Drift(r=r, r0=r0, t_p=t_p))


def reference_drift_l(spec, gt):
    """Independent reconstruction of the drifting low-rank columns from the
    recorded base, re-deriving the increments from the same generator."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    var = spec.variant
    U0 = rng.standard_normal((spec.m, var.r))
    n_inc = -(-spec.t // var.t_p)
    W = [rng.standard_normal((spec.m, var.r0)) for _ in range(n_inc)]
    rng.standard_normal((var.r, spec.n_burnin))
    V = rng.standard_normal((var.r, spec.t))
    L = np.empty((spec.m, spec.t))
    for t in range(spec.t):
        i, j = divmod(t, var.t_p)
        Ut = U0.copy()
        Ut[:, :var.r0] += sum(W[:i]) + (j / var.t_p) * W[i] \
            if i else (j / var.t_p) * W[0]
        L[:, t] = Ut @ V[:, t]
    return L


def test_drift_boundaries_and_constant_columns():
    spec = drift_spec()
    gt = generate(spec)
    np.testing.assert_array_equal(gt.M, gt.L + gt.S)
    L_ref = reference_drift_l(spec, gt)
    np.testing.assert_allclose(gt.L, L_ref, atol=1e-12)


def test_drift_t0_uses_base_exactly():
    spec = drift_spec(seed=2)
    gt = generate(spec)
    rng = np.random.Generator(np.random.PCG64(2))
    U0 = rng.standard_normal((40, 6))
    n_inc = -(-500 // 125)
    for _ in range(n_inc):
        rng.standard_normal((40, 2))
    rng.standard_normal((6, 30))
    V = rng.standard_normal((6, 500))
    np.testing.assert_allclose(gt.L[:, 0], U0 @ V[:, 0], atol=1e-12)


def test_drift_burnin_from_base():
    # with no sparse part, the burn-in block lies exactly in the column
    # space of the undrifted base
    spec = SimSpec(m=40, t=500, n_burnin=30, rho=0.0, seed=3,
                   variant=Drift(r=6, r0=2, t_p=125))
    gt = generate(spec)
    U0 = gt.U_trace[0]
    proj = U0 @ np.linalg.pinv(U0)
    resid = gt.M_b - proj @ gt.M_b
    assert np.linalg.norm(resid) <= 1e-8


def test_drift_empty_stream_keeps_burnin():
    # t=0 yields an empty tracked stream and a burn-in block in the span of
    # the undrifted base; the same layout is no valid ChangePoints spec
    spec = SimSpec(m=40, t=0, n_burnin=30, rho=0.0, seed=3,
                   variant=Drift(r=6, r0=2, t_p=125))
    gt = generate(spec)
    assert gt.L.shape == gt.S.shape == gt.M.shape == (40, 0)
    assert gt.cps == []
    U0 = gt.U_trace[0]
    resid = gt.M_b - U0 @ np.linalg.pinv(U0) @ gt.M_b
    assert np.linalg.norm(resid) <= 1e-8
    with pytest.raises(ContractViolation):
        generate(SimSpec(m=40, t=0, n_burnin=30, rho=0.0, seed=3,
                         variant=ChangePoints(ranks=(6,), cps=(), r0=2,
                                              t_p=125)))


def cp_spec(seed=4, t=300, cps=(100, 200), ranks=(3, 5, 4)):
    return SimSpec(m=30, t=t, n_burnin=20, rho=0.01, seed=seed,
                   variant=ChangePoints(ranks=ranks, cps=cps, r0=2, t_p=50))


def test_changepoints_piece_layout():
    gt = generate(cp_spec())
    assert gt.cps == [100, 200]
    assert gt.M.shape == (30, 300)
    assert len(gt.U_trace) == 3
    assert [u.shape[1] for u in gt.U_trace] == [3, 5, 4]


def test_changepoints_rank_jump_detectable():
    spec = SimSpec(m=30, t=200, n_burnin=20, rho=0.0, seed=5,
                   variant=ChangePoints(ranks=(1, 1), cps=(100,), r0=1,
                                        t_p=250))
    gt = generate(spec)
    # piecewise rank-1 (t_p > piece length: no drift step inside a piece,
    # but the j/t_p ramp still moves the basis; rank stays <= 2 per piece)
    first = gt.M[:, :100]
    assert np.linalg.matrix_rank(first, tol=1e-9) <= 2
    # independence across the cut: the two pieces span different spaces
    u1 = gt.U_trace[0][:, 0]
    u2 = gt.U_trace[1][:, 0]
    cos = abs(u1 @ u2) / (np.linalg.norm(u1) * np.linalg.norm(u2))
    assert cos < 0.9


def test_changepoints_subspaces_independent_across_seeds():
    # principal angles between consecutive piece bases behave like those of
    # independent random subspaces: cos of the largest principal angle
    # concentrates well below 1
    cosines = []
    for seed in range(10):
        gt = generate(cp_spec(seed=seed))
        q1, _ = np.linalg.qr(gt.U_trace[0])
        q2, _ = np.linalg.qr(gt.U_trace[1])
        s = np.linalg.svd(q1.T @ q2, compute_uv=False)
        cosines.append(s.max())
    assert np.median(cosines) < 0.85


def test_changepoints_validation():
    with pytest.raises(ContractViolation):
        generate(cp_spec(cps=(200, 100)))
    with pytest.raises(ContractViolation):
        generate(cp_spec(cps=(100,), ranks=(3, 5, 4)))
    with pytest.raises(ContractViolation):
        generate(cp_spec(cps=(100, 300)))


@pytest.mark.parametrize("variant,match", [
    (Stable(r=-1), "r must be >= 0"),
    (Drift(r=-1, r0=0, t_p=50), "Drift: need 0 <= r0 <= every rank"),
    (Drift(r=4, r0=-1, t_p=50), "Drift: need 0 <= r0"),
    (Drift(r=4, r0=2, t_p=0), "Drift: .* and t_p >= 1"),
    (ChangePoints(ranks=(3, -5), cps=(100,), r0=0, t_p=50),
     "ChangePoints: need 0 <= r0 <= every rank"),
    (ChangePoints(ranks=(3, 5), cps=(100,), r0=-1, t_p=50), "need 0 <= r0"),
    (ChangePoints(ranks=(3, 5), cps=(100,), r0=2, t_p=0), "and t_p >= 1"),
])
def test_generate_refuses_a_variant_it_cannot_build(variant, match):
    # before: a ZeroDivisionError, or numpy's "negative dimensions"
    with pytest.raises(ContractViolation, match=match):
        generate(SimSpec(m=30, t=200, n_burnin=20, rho=0.01, seed=0,
                         variant=variant))


def test_generate_dispatch_and_full_stream():
    spec = stable_spec()
    gt = generate(spec)
    full = full_stream_matrix(gt)
    assert full.shape == (50, 230)
    np.testing.assert_array_equal(full[:, :30], gt.M_b)
    np.testing.assert_array_equal(full[:, 30:], gt.M)
    with pytest.raises(ContractViolation, match="unknown variant"):
        generate(SimSpec(m=5, t=5, n_burnin=5, rho=0.0, seed=0,
                         variant=(5,)))
