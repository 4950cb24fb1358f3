
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrpca import kernel
from streamrpca.basis import update_basis
from streamrpca.exceptions import ContractViolation

from conftest import basis_objective

compiled = pytest.mark.skipif(kernel.ACTIVE != "compiled",
                              reason="no compiled kernel could be built")


def random_instance(rng, m=8, r=3, lambda1=0.1):
    W = rng.standard_normal((r, r))
    A = W @ W.T  # symmetric PSD
    B = rng.standard_normal((m, r))
    U = rng.standard_normal((m, r))
    norms = np.linalg.norm(U, axis=0)
    U /= np.maximum(norms, 1.0)  # feasible warm start: columns in the ball
    return U, A, B, lambda1


def ball_instance(rng, m, r, ball):
    """random_instance's U, A and B, scaled so that the sweep's columns end
    strictly inside the unit ball ("inside"), on its sphere ("onto"), or
    either ("mixed")."""
    U, A, B, _ = random_instance(rng, m=m, r=r)
    if ball == "inside":
        # the sweeps never raise g, which bounds ||U|| by a multiple of the
        # scale of U and B: every column stays strictly inside the ball
        U *= 1e-6
        B *= 1e-6
    elif ball == "onto":
        B *= 1e4
    return U, A, B


def assert_in_ball(U, ball):
    norms = np.linalg.norm(U, axis=0)
    if ball == "inside":
        assert norms.max() < 1.0
    elif ball == "onto":
        assert abs(norms.max() - 1.0) <= 1e-12


def oracle_projected_gradient(U0, A, B, lambda1, tol=1e-10, max_iter=200000):
    """Minimize g over the unit-ball column constraint by projected gradient
    descent with a 1/L step; independent of the sweep-based update."""
    r = A.shape[0]
    At = A + lambda1 * np.eye(r)
    L_const = np.linalg.eigvalsh(At).max()
    U = U0.copy()
    for _ in range(max_iter):
        grad = U @ At - B
        U_new = U - grad / L_const
        norms = np.linalg.norm(U_new, axis=0)
        U_new /= np.maximum(norms, 1.0)
        if np.max(np.abs(U_new - U)) < tol:
            return U_new
        U = U_new
    return U


def test_fixed_point_unchanged():
    rng = np.random.Generator(np.random.PCG64(30))
    m, r, lam = 6, 3, 0.2
    U = rng.standard_normal((m, r))
    U /= np.maximum(np.linalg.norm(U, axis=0), 1.0) * 1.5  # well inside ball
    A = rng.standard_normal((r, r))
    A = A @ A.T
    B = U @ (A + lam * np.eye(r))
    out = update_basis(U.copy(), A, B, lam)
    np.testing.assert_allclose(out, U, atol=1e-10)


def test_single_column_closed_form():
    a = 2.0
    lam = 0.5
    b = np.array([0.4, -0.2, 0.1])
    u = np.array([[1.0], [0.0], [0.0]]) * 0.3
    out = update_basis(u.copy(), np.array([[a]]), b[:, None], lam)
    np.testing.assert_allclose(out[:, 0], b / (a + lam), atol=1e-12)


def test_monotone_descent_batch():
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(1000):
        U, A, B, lam = random_instance(rng)
        g_in = basis_objective(U, A, B, lam)
        out = update_basis(U.copy(), A, B, lam)
        g_out = basis_objective(out, A, B, lam)
        assert g_out <= g_in + 1e-10


def test_repeated_sweeps_match_projected_gradient_oracle():
    rng = np.random.Generator(np.random.PCG64(32))
    for _ in range(5):
        U, A, B, lam = random_instance(rng, m=8, r=3, lambda1=0.1)
        ours = U.copy()
        for _ in range(50):
            update_basis(ours, A, B, lam)
        oracle = oracle_projected_gradient(U, A, B, lam)
        g_ours = basis_objective(ours, A, B, lam)
        g_oracle = basis_objective(oracle, A, B, lam)
        assert abs(g_ours - g_oracle) <= 1e-6


def test_column_norm_bound():
    rng = np.random.Generator(np.random.PCG64(33))
    for _ in range(200):
        U, A, B, lam = random_instance(rng)
        out = update_basis(U.copy(), A, B * 5.0, lam)
        assert np.all(np.linalg.norm(out, axis=0) <= 1.0 + 1e-12)


def test_idempotent_at_convergence():
    rng = np.random.Generator(np.random.PCG64(34))
    U, A, B, lam = random_instance(rng)
    converged = U.copy()
    for _ in range(500):
        update_basis(converged, A, B, lam)
    g1 = basis_objective(converged, A, B, lam)
    again = update_basis(converged.copy(), A, B, lam)
    g2 = basis_objective(again, A, B, lam)
    assert abs(g2 - g1) < 1e-12


def test_nonsymmetric_a_rejected():
    U = np.zeros((4, 2))
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ContractViolation):
        update_basis(U, A, np.zeros((4, 2)), 0.1)


def test_updates_in_place():
    rng = np.random.Generator(np.random.PCG64(35))
    U, A, B, lam = random_instance(rng)
    out = update_basis(U, A, B, lam)
    assert out is U


def column_sweep(U, A, B, lambda1, sweeps):
    """The sweep column by column over U itself, as first written."""
    At = A + lambda1 * np.eye(A.shape[0])
    for _ in range(sweeps):
        for j in range(U.shape[1]):
            u_tilde = (B[:, j] - U @ At[:, j]) / At[j, j] + U[:, j]
            U[:, j] = u_tilde / max(np.linalg.norm(u_tilde), 1.0)
    return U


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 40), r=st.integers(1, 8), sweeps=st.integers(1, 3),
       ball=st.sampled_from(["inside", "mixed", "onto"]),
       lambda1=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1),
       order=st.sampled_from("CF"))
def test_sweep_matches_column_formula(step_paths, m, r, sweeps, ball,
                                      lambda1, seed, order):
    # row-major and column-major U are both swept in place
    rng = np.random.Generator(np.random.PCG64(seed))
    U, A, B = ball_instance(rng, m, r, ball)
    expected = column_sweep(U.copy(), A, B, lambda1, sweeps)
    for path in step_paths:
        U_in = U.copy(order=order)
        with path:
            for _ in range(sweeps):
                assert update_basis(U_in, A, B, lambda1) is U_in
        np.testing.assert_allclose(U_in, expected, rtol=1e-12, atol=1e-12)
        assert_in_ball(U_in, ball)


def block_columns():
    """Columns per block of the compiled sweep."""
    return kernel._ext.BLOCK


@compiled
@pytest.mark.parametrize("sweeps", [1, 2])
@pytest.mark.parametrize("ball", ["inside", "mixed", "onto"])
def test_blocked_sweep_matches_column_formula(sweeps, ball):
    # the compiled sweep takes each column's terms from the columns before
    # and after its block by dgemm: ranks at and past one and two blocks
    nb = block_columns()
    rng = np.random.Generator(np.random.PCG64(36))
    for r in (nb - 1, nb, nb + 1, 2 * nb + 3, 55):
        U, A, B = ball_instance(rng, 60, r, ball)
        expected = column_sweep(U.copy(), A, B, 0.1, sweeps)
        U = U.copy(order="F")
        for _ in range(sweeps):
            assert kernel.sweep(U, A, B, 0.1, 1e-8)
        assert (np.linalg.norm(U - expected)
                <= 1e-12 * np.linalg.norm(expected)), r
        assert_in_ball(U, ball)


@compiled
def test_blocked_sweep_rejects_an_asymmetric_a_untouched():
    rng = np.random.Generator(np.random.PCG64(37))
    U, A, B, lam = random_instance(rng, m=30, r=2 * block_columns() + 3)
    A[0, -1] += 1e-6 * (1.0 + np.abs(A).max())  # across the first block
    U = U.copy(order="F")
    U0 = U.copy()
    assert not kernel.sweep(U, A, B, lam, 1e-8)
    np.testing.assert_array_equal(U, U0)
    with pytest.raises(ContractViolation):
        update_basis(U, A, B, lam)
    np.testing.assert_array_equal(U, U0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_a_is_refused_untouched(step_paths, bad):
    # a NaN drops out of a max, so it passed the symmetry check: the kernel
    # declines a non-finite A and update_basis names it, on both paths
    rng = np.random.Generator(np.random.PCG64(38))
    U, A, B, lam = random_instance(rng, m=30, r=2 * 8 + 3)
    A[0, -1] = bad
    U = U.copy(order="F")
    U0 = U.copy()
    if kernel.ACTIVE == "compiled":
        assert not kernel.sweep(U, A, B, lam, 1e-8)
    for path in step_paths:
        with path, pytest.raises(ContractViolation,
                                 match="update_basis: A is not finite"):
            update_basis(U, A, B, lam)
        np.testing.assert_array_equal(U, U0)


def test_zero_rank_basis_is_unchanged():
    U = np.zeros((5, 0))
    for _ in range(2):
        out = update_basis(U, np.zeros((0, 0)), np.zeros((5, 0)), 0.1)
        assert out is U and out.shape == (5, 0)
