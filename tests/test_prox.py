import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamrpca import kernel, prox
from streamrpca.exceptions import ContractViolation
from streamrpca.pcp import pcp_alm
from streamrpca.prox import (GRAM_MIN_RATIO, OVERSAMPLING, RITZ_TOL,
                             gram_eigh, gram_factors, lapack_factors, shrink,
                             shrink_matrix, svt_factors)

from conftest import ridge_regress, study3_blocks, svt


def test_shrink_basic_cases():
    assert shrink(1.2, 0.5) == pytest.approx(0.7)
    assert shrink(-0.3, 0.5) == 0.0
    assert shrink(-2.0, 0.5) == pytest.approx(-1.5)


def test_shrink_is_odd():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(1000):
        x = rng.uniform(-10, 10)
        tau = rng.uniform(0, 5)
        assert shrink(-x, tau) == -shrink(x, tau)


def test_shrink_is_nonexpansive():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(1000):
        x, y = rng.uniform(-10, 10, size=2)
        tau = rng.uniform(0, 5)
        fuzz = 1e-14 * max(abs(x), abs(y), 1.0)  # float rounding headroom
        assert abs(shrink(x, tau) - shrink(y, tau)) <= abs(x - y) + fuzz


def test_shrink_matrix_cases():
    assert np.all(shrink_matrix(np.zeros((3, 4)), 2.0) == 0.0)
    out = shrink_matrix(np.array([[1.2, -0.3]]), 0.5)
    np.testing.assert_allclose(out, [[0.7, 0.0]])
    X = np.array([[1.5, -2.25], [0.0, 3.125]])
    np.testing.assert_array_equal(shrink_matrix(X, 0.0), X)


def _clip_shrink(X, tau):
    """shrink_matrix as first written, through np.clip: the reference."""
    X = np.asarray(X, dtype=float)
    if tau == 0.0:
        return X.copy()
    out = np.clip(X, -tau, tau)
    return np.subtract(X, out, out=out)


@pytest.mark.parametrize("tau", [0.0, 1e-310, 0.5, 2.0, np.inf, -0.5])
@pytest.mark.parametrize("order", ["C", "F"])
def test_shrink_matrix_matches_the_clip_formula_bit_for_bit(tau, order):
    # signed zeros, NaN, infinities, subnormals and the values at +-tau
    # sit in the dead zone, on its edges and outside it; a negative tau
    # (no caller passes one) pins the clip order, the max before the min
    rng = np.random.Generator(np.random.PCG64(3))
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tau, -tau,
               np.nextafter(tau, 0.0), -np.nextafter(tau, np.inf), 5e-324,
               -5e-324]
    X = np.concatenate([special, rng.standard_normal(36) * 3.0])
    X = np.asarray(X.reshape(6, 8), order=order)
    out = np.full((6, 8), 7.0, order=order)  # written through, in place
    with np.errstate(invalid="ignore"):  # inf - inf at tau = inf
        got, expected = shrink_matrix(X, tau), _clip_shrink(X, tau)
        assert shrink_matrix(X, tau, out=out) is out
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes() == out.tobytes()


def test_svt_diagonal():
    np.testing.assert_allclose(svt(np.diag([3.0, 1.0]), 2.0),
                               np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_tau_zero_is_identity():
    rng = np.random.Generator(np.random.PCG64(2))
    X = rng.standard_normal((5, 3))
    np.testing.assert_allclose(svt(X, 0.0), X, atol=1e-12)


def test_svt_matches_independent_svd_oracle():
    # Frozen from an independent reconstruction (scipy gesvd driver) of a
    # seeded 4x3 matrix at tau = 0.8.
    X = np.array([
        [0.30471707975443135, -1.0399841062404955, 0.7504511958064572],
        [0.9405647163912139, -1.9510351886538364, -1.302179506862318],
        [0.12784040316728537, -0.3162425923435822, -0.0168011575042888],
        [-0.85304392757358, 0.8793979748628286, 0.7777919354289483]])
    expected = np.array([
        [0.1962518258661226, -0.5448028756942659, 0.14581363848396217],
        [0.793038690722806, -1.4118278024420259, -0.8691961855227864],
        [0.09833626560864922, -0.20135725422154768, -0.05922321883797845],
        [-0.44228903254196994, 0.763997720184786, 0.5279773141636909]])
    np.testing.assert_allclose(svt(X, 0.8), expected, atol=1e-10)


def test_svt_matches_oracle_on_random_inputs():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(50):
        X = rng.standard_normal((4, 3))
        tau = rng.uniform(0, 2)
        U, s, Vh = scipy.linalg.svd(X, full_matrices=False,
                                    lapack_driver="gesvd")
        oracle = (U * np.maximum(s - tau, 0.0)) @ Vh
        np.testing.assert_allclose(svt(X, tau), oracle, atol=1e-10)


def test_svt_decreases_nuclear_norm_and_rank():
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(200):
        X = rng.standard_normal((5, 4))
        tau = rng.uniform(0, 3)
        out = svt(X, tau)
        nn_in = np.linalg.svd(X, compute_uv=False).sum()
        nn_out = np.linalg.svd(out, compute_uv=False).sum()
        assert nn_out <= nn_in + 1e-10
        assert np.linalg.matrix_rank(out, tol=1e-9) <= np.linalg.matrix_rank(X)


def test_svt_well_defined_on_degenerate_spectrum():
    # repeated singular values make the SVD non-unique; the reconstructed
    # product is still pinned down
    np.testing.assert_allclose(svt(np.eye(3), 0.25), 0.75 * np.eye(3),
                               atol=1e-12)
    Q, _ = np.linalg.qr(np.random.Generator(np.random.PCG64(8))
                        .standard_normal((4, 4)))
    X = 2.0 * Q  # all singular values equal 2
    np.testing.assert_allclose(svt(X, 0.5), 1.5 * Q, atol=1e-10)


def _right_block(A, k):
    return np.linalg.svd(A, full_matrices=False)[2][:k].T


@settings(max_examples=150, deadline=None)
# the block holds only values above tau: the call widens it to 6 +
# OVERSAMPLING columns, and where they would pass min(m, n) / 4, falls back
@example(m=60, n=48, rank=8, k=6, tau_frac=0.05, case="full_block", seed=1)
@example(m=36, n=48, rank=8, k=6, tau_frac=0.05, case="full_block", seed=1)
# an unrelated block whose guards still mix in a value above tau: accepted
# without the guard condition, 0.24 relative away from the oracle
@example(m=28, n=41, rank=0, k=7, tau_frac=0.811, case="unrelated",
         seed=1943986493)
# tau above every singular value; the zero matrix
@example(m=24, n=80, rank=4, k=5, tau_frac=1.5, case="near", seed=2)
@example(m=80, n=24, rank=3, k=5, tau_frac=0.3, case="zero", seed=3)
@given(m=st.integers(2, 80), n=st.integers(2, 80), rank=st.integers(0, 8),
       k=st.integers(1, 20), tau_frac=st.floats(0.0, 1.5),
       case=st.sampled_from(["near", "unrelated", "full_block", "zero"]),
       seed=st.integers(0, 2**32 - 1))
def test_svt_factors_matches_svt_within_the_ritz_bound(m, n, rank, k,
                                                        tau_frac, case, seed):
    """The warm-started kernel against the full-SVD oracle, to the bound its
    docstring states: ||result - svt(X, tau)||_F <= RITZ_TOL * ||X||_2 (plus
    rounding). Tall and wide shapes; a block from a perturbed copy of X or
    from an unrelated matrix; a block whose values all exceed tau, which
    must widen, or fall back to the full SVD where the wider block would
    pass min(m, n) / 4; tau above every singular value, and the zero
    matrix, which must give L = 0. Blocks narrower than OVERSAMPLING or
    wider than min(m, n) / 4 take the full SVD directly. The next block
    leads with the kept vectors: the whole (maybe widened) block of the
    warm loop, or the kept count plus OVERSAMPLING of the exact path."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k = min(k, min(m, n) // 4) or 1
    rank = min(rank, m, n)
    spectrum = 10.0 * 0.7 ** np.arange(rank)
    X = (rng.standard_normal((m, rank)) * spectrum) @ rng.standard_normal(
        (rank, n)) / np.sqrt(m * n)
    X += 0.01 * rng.standard_normal((m, n))
    if case == "zero":
        X = np.zeros((m, n))
    s_all = np.linalg.svd(X, compute_uv=False)
    tau = tau_frac * s_all[0]
    if case == "unrelated":
        block = _right_block(rng.standard_normal((m, n)), k)
    elif case == "full_block":
        tau = 0.5 * s_all[k - 1]
        block = _right_block(X, k)
    else:
        block = _right_block(X + 1e-3 * rng.standard_normal((m, n)), k)

    U, s, Vh, next_block = svt_factors(X, tau, block)
    L = (U * s) @ Vh
    oracle = svt(X, tau)
    slack = 1e-12 * (np.linalg.norm(X) + 1.0)
    assert np.linalg.norm(L - oracle) <= RITZ_TOL * s_all[0] + slack
    assert np.all(s > 0) and np.all(np.diff(s) <= 0)
    np.testing.assert_allclose(U.T @ U, np.eye(s.size), atol=1e-10)
    np.testing.assert_allclose(Vh @ Vh.T, np.eye(s.size), atol=1e-10)
    assert next_block.shape[0] == n
    assert next_block.shape[1] <= max(s.size + OVERSAMPLING, min(m, n) // 4)
    np.testing.assert_array_equal(next_block[:, :s.size], Vh.T)
    if case == "full_block" and k + OVERSAMPLING > min(m, n) // 4:
        for got, want in zip((U, s, Vh), svt_factors(X, tau)[:3]):
            np.testing.assert_array_equal(got, want)
    # (tau equal to the top singular value may keep a rounding residue)
    if case == "zero" or tau > (1.0 + 1e-9) * s_all[0]:
        assert s.size == 0 and not L.any()


@settings(max_examples=150, deadline=None)
@example(m=1, n=1, rank=1, case="geometric", decay=0.5, tau_exp=-1.0, seed=0)
@example(m=1, n=1, rank=1, case="geometric", decay=0.5, tau_exp=-5.0, seed=0)
@example(m=30, n=12, rank=0, case="zero", decay=0.5, tau_exp=-2.0, seed=1)
@example(m=12, n=40, rank=9, case="repeated", decay=0.5, tau_exp=-1.5, seed=2)
@example(m=40, n=12, rank=9, case="repeated", decay=0.5, tau_exp=-4.0, seed=3)
@example(m=50, n=20, rank=12, case="geometric", decay=0.6, tau_exp=-2.6,
         seed=4)
@given(m=st.integers(1, 60), n=st.integers(1, 60), rank=st.integers(0, 15),
       case=st.sampled_from(["geometric", "repeated", "zero"]),
       decay=st.floats(0.3, 0.95), tau_exp=st.floats(-5.0, np.log10(0.9)),
       seed=st.integers(0, 2**32 - 1))
def test_gram_path_matches_gesvd_and_falls_back_below_its_guard(
        m, n, rank, case, decay, tau_exp, seed):
    """The exact path of svt_factors (no block) on tall, wide, rank-deficient
    and zero matrices, 1 x 1 ones and repeated singular values, at tau /
    s_1 from 0.9 down through GRAM_MIN_RATIO to 1e-5. Where gram_factors'
    guard holds, the Gram result is what svt_factors returns, and its
    product is within the Ritz bound of scipy's gesvd reconstruction; where
    it fails, svt_factors is LAPACK's path, bit for bit."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rank = 0 if case == "zero" else min(rank, m, n)
    if case == "repeated":  # three levels, one of them below the guard
        spectrum = 10.0 * np.repeat([1.0, 0.1, 1e-3], -(-rank // 3))[:rank]
    else:
        spectrum = 10.0 * decay ** np.arange(rank)
    left = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    right = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    X = (left * spectrum) @ right.T
    s_all = scipy.linalg.svd(X, compute_uv=False, lapack_driver="gesvd")
    tau = 10.0 ** tau_exp * s_all[0] if s_all.size else 0.0

    U, s, Vh, block = svt_factors(X, tau)
    gram = gram_factors(X, *gram_eigh(X), tau)
    if gram is None:
        for got, want in zip((U, s, Vh, block), lapack_factors(X, tau)):
            np.testing.assert_array_equal(got, want)
        kept = np.count_nonzero(s_all > tau)
        assert kept and s_all[kept - 1] <= 2.0 * GRAM_MIN_RATIO * s_all[0]
        return
    for got, want in zip((U, s, Vh, block), gram):
        np.testing.assert_array_equal(got, want)
    Uo, so, Vho = scipy.linalg.svd(X, full_matrices=False,
                                   lapack_driver="gesvd")
    oracle = (Uo * np.maximum(so - tau, 0.0)) @ Vho
    slack = 1e-12 * (np.linalg.norm(X) + 1.0)
    assert np.linalg.norm((U * s) @ Vh - oracle) <= (
        RITZ_TOL * (s_all[0] if s_all.size else 0.0) + slack)
    assert np.all(s > 0) and np.all(np.diff(s) <= 0)
    np.testing.assert_allclose(U.T @ U, np.eye(s.size), atol=1e-10)
    np.testing.assert_allclose(Vh @ Vh.T, np.eye(s.size), atol=1e-10)
    assert block.shape == (n, min(s.size + OVERSAMPLING, m, n))
    np.testing.assert_array_equal(block[:, :s.size], Vh.T)


def test_gram_ritz_steps_are_orthonormal_on_paper_study_3(monkeypatch):
    # the warm loop's steps on paper study 3's start-up and restart blocks
    # (ranks 10, 55 and 30): where the Ritz triplets come from the k x k
    # Gram matrix, Vh's rows are orthonormal to 1e-10, as the guard on s_k
    # / s_1 promises; the steps below the guard take LAPACK's SVD
    ritz, svd = prox._ritz_triplets, np.linalg.svd
    svd_calls, gram_steps = [], []

    def counting_svd(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)

    def checked(P):
        before = len(svd_calls)
        Ub, s, Vh = ritz(P)
        if len(svd_calls) == before:
            gram_steps.append(np.abs(Vh @ Vh.T - np.eye(s.size)).max())
        return Ub, s, Vh

    monkeypatch.setattr(kernel, "ACTIVE", "numpy")  # the loop runs in numpy
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(prox, "_ritz_triplets", checked)
    for M in study3_blocks("paper", 0):
        assert pcp_alm(M).converged
    assert gram_steps and max(gram_steps) <= 1e-10


def test_ridge_identity_basis():
    y = np.array([2.0, 4.0, 6.0])
    np.testing.assert_allclose(ridge_regress(np.eye(3), y, 1.0), y / 2.0)
    np.testing.assert_allclose(ridge_regress(np.eye(3), y, 1e-12), y,
                               atol=1e-8)


def test_ridge_matches_gram_inversion_oracle():
    # Frozen from an explicit inv(U'U + 0.1 I) @ U'y on a seeded 6x2 system.
    U = np.array([
        [1.2301533574825742e-03, 2.9874553750846988e-01],
        [-2.7413785536221758e-01, -8.9059183875727421e-01],
        [-4.5467078517172255e-01, -9.9164655499646237e-01],
        [6.0143602597438485e-02, 1.3402152455545335e+00],
        [-4.9220651855132963e-01, -6.2047489981994042e-01],
        [4.8984205018519822e-01, 3.5688700816006075e-01]])
    y = np.array([0.10541424899789856, -0.9304680447082047,
                  -0.02925182246327349, 0.6953031944582878,
                  -1.344214547285082, -0.45761576104021817])
    expected = np.array([0.03103674769552139, 0.5738409323647498])
    np.testing.assert_allclose(ridge_regress(U, y, 0.1), expected, atol=1e-10)


def test_ridge_random_oracle():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(50):
        U = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        G = U.T @ U + 0.1 * np.eye(2)
        oracle = np.linalg.inv(G) @ (U.T @ y)
        np.testing.assert_allclose(ridge_regress(U, y, 0.1), oracle,
                                   atol=1e-10)


def test_ridge_output_is_a_minimizer():
    # Perturbing the solution in random directions never lowers the
    # objective 0.5*||y - Uv||^2 + (lambda1/2)*||v||^2.
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(100):
        m, r = 7, 3
        U = rng.standard_normal((m, r))
        y = rng.standard_normal(m)
        lam = rng.uniform(0.01, 1.0)
        v = ridge_regress(U, y, lam)

        def obj(w):
            resid = y - U @ w
            return 0.5 * resid @ resid + 0.5 * lam * (w @ w)

        base = obj(v)
        for _ in range(100):
            d = rng.standard_normal(r)
            d *= 1e-3 / np.linalg.norm(d)
            assert obj(v + d) >= base - 1e-12


def test_ridge_dimension_mismatch():
    with pytest.raises(ContractViolation):
        ridge_regress(np.eye(3), np.zeros(4), 0.1)
