import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrpca import trackers
from streamrpca.basis import update_basis
from streamrpca.changepoint import (OmwCpPipeline, continue_tracker,
                                    init_tracker, run_omw_cp, run_tracker)
from streamrpca.cli import main
from streamrpca.exceptions import ContractViolation, TrackerStepError
from streamrpca.pcp import burnin_initialize
from streamrpca.projection import project_sample
from streamrpca.simgen import (Drift, SimSpec, Stable, full_stream_matrix,
                               generate)
from streamrpca.streams import ObservationStream, write_raw_f64
from streamrpca.state import load_state, save_state, snapshot_tracker
from streamrpca.trackers import (DRIFT_CORRECTION_FACTOR, SubspaceModel,
                                 TrackerConfig, WindowBuffer, omw_step,
                                 seed_tracker, state_element_count, stoc_step)

from conftest import child_memory, needs_proc_status, ridge_regress, seeded


def make_burnin_block(m=20, n=15, r=2, seed=40, rho=0.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    L = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    mask = rng.random((m, n)) < rho
    return L + np.where(mask, rng.uniform(-100, 100, (m, n)), 0.0)


def make_burnin_init(n_win=10, rho=0.0):
    return burnin_initialize(make_burnin_block(rho=rho), 0.1, 1.0,
                             n_win=n_win)


def test_stoc_init_from_burnin_passthrough():
    init = make_burnin_init()
    model = SubspaceModel(U=init.U0, A=init.A0, B=init.B0, lambda1=0.1,
                          lambda2=1.0)
    np.testing.assert_array_equal(model.U, init.U0)
    np.testing.assert_array_equal(model.A, init.A0)
    np.testing.assert_array_equal(model.B, init.B0)
    assert model.t == 0
    assert model.r == init.r
    assert np.linalg.eigvalsh(model.A).min() >= -1e-8


def test_stoc_accumulators_reconstruct_from_logged_coefficients():
    init = make_burnin_init()
    model = SubspaceModel(U=init.U0, A=init.A0, B=init.B0, lambda1=0.1,
                          lambda2=1.0)
    rng = np.random.Generator(np.random.PCG64(41))
    A_expected = init.A0.copy()
    B_expected = init.B0.copy()
    for _ in range(5):
        x = rng.standard_normal(model.m)
        out = stoc_step(model, x)
        A_expected += np.outer(out.v, out.v)
        B_expected += np.outer(x - out.s, out.v)
    np.testing.assert_allclose(model.A, A_expected, atol=1e-12)
    np.testing.assert_allclose(model.B, B_expected, atol=1e-12)


def test_stoc_noiseless_subspace_tracking():
    # Small-scale basis (singular value < 1) so the ball constraint stays
    # inactive, and a near-zero ridge: l then reproduces m to 1e-6.
    u = np.array([0.6, 0.8])
    m_star = 0.2 * u
    M_b = np.tile(m_star[:, None], (1, 4))
    init = burnin_initialize(M_b, 1e-9, 0.1, n_win=4)
    model = SubspaceModel(U=init.U0, A=init.A0, B=init.B0, lambda1=1e-9,
                          lambda2=0.1)
    for _ in range(2):
        out = stoc_step(model, m_star)
        assert np.all(out.s == 0)
        np.testing.assert_allclose(out.l, m_star, atol=1e-6)


def test_seed_tracker_buffer_and_model():
    # the model holds the burn-in's seed and the window its trailing n_win
    # samples; without eviction no window is built
    M_b = make_burnin_block()
    stream = ObservationStream.from_matrix(M_b)
    config = TrackerConfig(n_burnin=15, n_win=10, lambda1=0.1, lambda2=1.0)
    assert seed_tracker(stream, 0, config, evict=False)[2] is None
    init, model, buffer = seed_tracker(stream, 0, config, evict=True)
    assert (model.lambda1, model.lambda2) == (0.1, 1.0)
    assert buffer.capacity == 10
    np.testing.assert_array_equal(buffer.rows()[0],
                                  M_b[:, 5:].T - init.S_b[:, 5:].T)
    np.testing.assert_array_equal(model.U, init.U0)
    for seed_rows, rows in zip(init.window_seed, buffer.rows()):
        np.testing.assert_array_equal(rows, seed_rows)
    # telescoping: removing every seed contribution returns A to zero
    A = model.A.copy()
    for v_i in buffer.rows()[1]:
        A -= np.outer(v_i, v_i)
    np.testing.assert_allclose(A, 0.0, atol=1e-8)
    # the buffer owns its rows: a step leaves the seed (V_w a view of the
    # burn-in's coefficients) untouched
    seed = [X.copy() for X in init.window_seed]
    omw_step(model, buffer, np.ones(model.m))
    for X, X_before in zip(init.window_seed, seed):
        np.testing.assert_array_equal(X, X_before)


@pytest.mark.parametrize("evict", [True, False])
def test_step_calls_the_trackers_bindings_once(monkeypatch, evict):
    # bench/tracer.py times the projection and the sweep by wrapping these
    # two names in streamrpca.trackers: a step that bypassed them would
    # leave its spans empty
    calls = {"project_sample": 0, "update_basis": 0}
    for name in calls:
        def counted(*args, _f=getattr(trackers, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(trackers, name, counted)
    model, buffer = seeded(make_burnin_init(n_win=10), 0.1, 1.0)
    omw_step(model, buffer if evict else None, np.ones(model.m))
    assert calls == {"project_sample": 1, "update_basis": 1}


@pytest.mark.parametrize("shapes", [
    ((0, 3), (0, 1)),       # empty
    ((2, 3), (1, 1)),       # V has fewer rows
    ((2,), (2, 1)),         # E not 2-D
    ((2, 3), (2,)),         # V not 2-D
], ids=["empty", "short-v", "flat-e", "flat-v"])
def test_window_buffer_rejects_empty_or_ragged_rows(shapes):
    with pytest.raises(ContractViolation):
        WindowBuffer(*(np.zeros(shape) for shape in shapes))


@pytest.mark.parametrize("evict", [True, False])
def test_step_refuses_a_sample_of_another_length(evict):
    model, buffer = seeded(make_burnin_init(n_win=10), 0.1, 1.0)
    with pytest.raises(ContractViolation, match=r"sample dimension \(19,\) "
                       r"!= \(20,\)"):
        omw_step(model, buffer if evict else None, np.ones(19))
    assert model.t == 0


def test_omw_zero_sample_only_evicts():
    init = make_burnin_init(n_win=10)
    model, buffer = seeded(init, 0.1, 1.0)
    v_oldest = buffer.rows()[1][0]
    A_before = model.A.copy()
    out = omw_step(model, buffer, np.zeros(model.m))
    assert np.all(out.v == 0) and np.all(out.s == 0)
    np.testing.assert_allclose(model.A,
                               A_before - np.outer(v_oldest, v_oldest),
                               atol=1e-12)


def test_zero_rank_model_steps_as_pure_shrinkage(step_paths):
    # an all-sparse burn-in can leave r = 0: each step is the soft threshold
    m_t = np.array([3.0, -0.2, 0.0, -1.5])
    for path in step_paths:
        model = SubspaceModel(U=np.zeros((4, 0)), A=np.zeros((0, 0)),
                              B=np.zeros((4, 0)), lambda1=0.1, lambda2=0.5)
        for t in range(1, 4):
            with path:
                out = omw_step(model, None, m_t)
            assert out.v.shape == (0,) and model.t == t
            np.testing.assert_array_equal(out.s, [2.5, 0.0, 0.0, -1.0])
            np.testing.assert_array_equal(out.l, np.zeros(4))
        assert model.U.shape == (4, 0) and model.B.shape == (4, 0)


def test_omw_window_identity_and_stationary_repeats():
    # burn-in and stream are literal repeats of one small-norm vector, so
    # the window contents never change statistically: A stays put and the
    # incremental accumulators match a from-scratch recompute every step.
    m_star = np.array([0.12, -0.16, 0.08])
    n_b, n_win, k = 6, 4, 8
    M_b = np.tile(m_star[:, None], (1, n_b))
    init = burnin_initialize(M_b, 1e-9, 0.1, n_win=n_win)
    model, buffer = seeded(init, 1e-9, 0.1)
    A_init_scale = np.linalg.norm(init.A0)
    for _ in range(n_win + k):
        omw_step(model, buffer, m_star)
        A_re, B_re = buffer.recompute_accumulators()
        np.testing.assert_allclose(model.A, A_re, atol=1e-8)
        np.testing.assert_allclose(model.B, B_re, atol=1e-8)
        assert np.linalg.norm(model.A - init.A0) <= 1e-6 * A_init_scale


def test_omw_bookkeeping_500_steps_with_drift_correction():
    # acceptance-grade window identity at a scale where the correction
    # interval (10 * n_win = 200) fires twice
    spec = SimSpec(m=30, t=500, n_burnin=20, rho=0.02, seed=42,
                   variant=Stable(r=3))
    gt = generate(spec)
    full = full_stream_matrix(gt)
    init = burnin_initialize(gt.M_b, 0.1, 2.0, n_win=20)
    model, buffer = seeded(init, 0.1, 2.0)
    for t in range(500):
        omw_step(model, buffer, gt.M[:, t])
        A_re, B_re = buffer.recompute_accumulators()
        scale = max(np.linalg.norm(A_re), 1.0)
        assert np.linalg.norm(model.A - A_re) <= 1e-8 * scale
        scale_b = max(np.linalg.norm(B_re), 1.0)
        assert np.linalg.norm(model.B - B_re) <= 1e-8 * scale_b


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 8), r=st.integers(1, 3), n_win=st.integers(1, 4),
       lambda2=st.floats(0.05, 3.0), seed=st.integers(0, 2**32 - 1),
       window=st.booleans())
def test_step_accumulators_match_their_terms(m, r, n_win, lambda2, seed,
                                             window):
    # with a window, A and B track the buffer's recomputation (the ring
    # wraps and the drift correction at 10 * n_win fires) and keep the bits
    # of A += vv' - v_old v_old'; without one, they are A0/B0 plus every
    # logged term
    rng = np.random.Generator(np.random.PCG64(seed))
    U = rng.standard_normal((m, r))
    E0, V0 = zip(*((rng.standard_normal(m), rng.standard_normal(r))
                   for _ in range(n_win)))
    buffer = WindowBuffer(E0, V0)
    A0, B0 = buffer.recompute_accumulators()
    model = SubspaceModel(U=U, A=A0.copy(), B=B0.copy(), lambda1=0.1,
                          lambda2=lambda2)
    if not window:
        buffer = None
    A_exp, B_exp = A0.copy(), B0.copy()
    for _ in range((DRIFT_CORRECTION_FACTOR + 1) * n_win + 1):
        x = U @ rng.standard_normal(r) + np.where(
            rng.random(m) < 0.2, rng.uniform(-10, 10, m), 0.0)
        if buffer is not None:
            e_old, v_old = (X[0] for X in buffer.rows())
        out = omw_step(model, buffer, x)
        A_exp += np.outer(out.v, out.v) - (
            np.outer(v_old, v_old) if buffer is not None else 0.0)
        B_exp += np.outer(x - out.s, out.v) - (
            np.outer(e_old, v_old) if buffer is not None else 0.0)
        if buffer is not None:
            A_re, B_re = buffer.recompute_accumulators()
            assert np.abs(model.A - A_re).max() <= 1e-8 * max(
                1.0, np.abs(A_re).max())
            assert np.abs(model.B - B_re).max() <= 1e-8 * max(
                1.0, np.abs(B_re).max())
            if model.t % (DRIFT_CORRECTION_FACTOR * n_win) == 0:
                A_exp, B_exp = A_re, B_re
        np.testing.assert_array_equal(model.A, A_exp)
        np.testing.assert_array_equal(model.B, B_exp)


def test_state_element_count_structure_independent_of_t():
    spec = SimSpec(m=25, t=120, n_burnin=20, rho=0.02, seed=43,
                   variant=Stable(r=3))
    gt = generate(spec)
    init = burnin_initialize(gt.M_b, 0.1, 2.0, n_win=20)
    model, buffer = seeded(init, 0.1, 2.0)
    m, r, n_win = model.m, model.r, buffer.capacity
    expected = 2 * m * r + r * r + n_win * (m + r)
    counts = []
    for t in range(120):
        omw_step(model, buffer, gt.M[:, t])
        if t in (20, 119):
            counts.append(state_element_count(model, buffer))
    assert counts[0] == counts[1] == expected


def test_run_tracker_empty_stream_after_burnin():
    spec = SimSpec(m=15, t=0, n_burnin=12, rho=0.0, seed=44,
                   variant=Stable(r=2))
    gt = generate(spec)
    stream = ObservationStream.from_matrix(gt.M_b)
    config = TrackerConfig(n_burnin=12, n_win=12)
    result = run_tracker(stream, "omw", config)
    assert result.L.shape == (15, 0)
    assert result.S.shape == (15, 0)
    assert result.change_points == []


def test_run_tracker_short_burnin_rejected():
    stream = ObservationStream.from_matrix(np.zeros((5, 3)))
    config = TrackerConfig(n_burnin=10, n_win=5)
    with pytest.raises(ContractViolation):
        run_tracker(stream, "omw", config)


def test_continue_tracker_rejects_modes_but_stoc_and_omw():
    # without a window, any other mode ran as stoc
    spec = SimSpec(m=15, t=20, n_burnin=12, rho=0.0, seed=44,
                   variant=Stable(r=2))
    stream = ObservationStream.from_matrix(full_stream_matrix(generate(spec)))
    model, _, start = init_tracker(stream, "stoc",
                                   TrackerConfig(n_burnin=12, n_win=12))
    for mode in ("bogus", "omw-cp"):
        with pytest.raises(ContractViolation, match="not stoc or omw"):
            continue_tracker(stream, mode, model, None, start)
    assert model.t == 0


def test_window_that_does_not_fit_the_model_is_refused(step_paths):
    # rows of 29 and 2 entries for a model of m = 30, r = 3: the compiled
    # accumulator wrote m and r entries into them and corrupted the heap
    rng = np.random.Generator(np.random.PCG64(45))
    U = np.linalg.qr(rng.standard_normal((30, 3)))[0]
    model = SubspaceModel(U=U, A=np.eye(3), B=U.copy(), lambda1=0.1,
                          lambda2=1.0)
    buffer = WindowBuffer(np.zeros((5, 29)), np.zeros((5, 2)))
    stream = ObservationStream.from_matrix(rng.standard_normal((30, 10)))
    before = [X.copy() for X in (model.U, model.A, model.B)]
    for path in step_paths:
        with path, pytest.raises(ContractViolation,
                                 match=r"E\(5, 29\) V\(5, 2\)"):
            continue_tracker(stream, "omw", model, buffer, 0)
        assert model.t == 0
        for X, X0 in zip((model.U, model.A, model.B), before):
            np.testing.assert_array_equal(X, X0)


@pytest.mark.parametrize("widths", [(29, 2), (30, 1)],
                         ids=["narrow-rows", "v-width-1"])
def test_step_with_a_misfit_window_changes_nothing(step_paths, widths):
    # a direct omw_step with window rows that do not fit the m = 30, r = 3
    # model raises before the accumulators, the rows or the head move; numpy
    # would broadcast a V row of width 1 into r = 3
    rng = np.random.Generator(np.random.PCG64(47))
    U = np.linalg.qr(rng.standard_normal((30, 3)))[0]
    for path in step_paths:
        model = SubspaceModel(U=U, A=np.eye(3), B=U.copy(), lambda1=0.1,
                              lambda2=1.0)
        buffer = WindowBuffer(*(rng.standard_normal((5, w)) for w in widths))
        buffer.advance()
        state = (model.U, model.A, model.B, *buffer._rows)
        before = [X.copy() for X in state]
        with path, pytest.raises(ValueError):
            omw_step(model, buffer, rng.standard_normal(30))
        assert model.t == 0 and buffer._head == 1
        for X, X0 in zip(state, before):
            np.testing.assert_array_equal(X, X0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0],
                         ids=["nan", "inf", "-inf", "zero"])
def test_penalties_must_be_finite_and_positive(step_paths, bad):
    rng = np.random.Generator(np.random.PCG64(48))
    U = np.linalg.qr(rng.standard_normal((30, 3)))[0]
    for path in step_paths:
        with path:
            for kw in ({"lambda1": bad}, {"lambda2": bad}):
                with pytest.raises(ContractViolation, match="finite and > 0"):
                    TrackerConfig(n_burnin=40, n_win=40, **kw)
                with pytest.raises(ContractViolation, match="finite and > 0"):
                    TrackerConfig(n_burnin=40, n_win=40, n_cp_burnin=10,
                                  n_test=10, n_check=5, **kw)
                with pytest.raises(ContractViolation, match="finite and > 0"):
                    SubspaceModel(**{"U": U, "A": np.eye(3), "B": U,
                                     "lambda1": 0.1, "lambda2": 1.0, **kw})
            if np.isnan(bad):  # the guards inside take inf as a limit
                for lambdas in ((bad, 1.0), (0.1, bad)):
                    with pytest.raises(ContractViolation, match="> 0"):
                        project_sample(U, rng.standard_normal(30), *lambdas)
                    with pytest.raises(ContractViolation, match="> 0"):
                        burnin_initialize(np.ones((30, 40)), *lambdas, 40)
                with pytest.raises(ContractViolation, match="> 0"):
                    update_basis(U.copy(order="F"), np.eye(3), U, bad)
                with pytest.raises(ContractViolation, match="> 0"):
                    ridge_regress(U, rng.standard_normal(30), bad)


@pytest.mark.parametrize("settings", [
    {"n_cp_burnin": 0}, {"n_test": 0}, {"n_check": 0}, {"n_positive": 0},
    {"alpha": 0.0}, {"alpha": 1.0}, {"alpha_prop": 0.0}, {"alpha_prop": 1.5},
    {"n_check": 3, "n_positive": 4}, {"n_tol": -1},
    # a bare TypeError, numpy's ambiguous truth value, or True taken as 1.0
    {"alpha": "x"}, {"alpha_prop": None}, {"alpha": np.array([0.1, 0.2])},
    {"alpha_prop": True}])
def test_config_refuses_detector_settings_it_cannot_run(settings):
    name = "|".join(settings)
    with pytest.raises(ContractViolation,
                       match=f"^TrackerConfig: ({name}|counts)"):
        TrackerConfig(n_burnin=40, n_win=40, **settings)


@pytest.mark.parametrize("field,value", [
    ("n_burnin", 50.0), ("n_win", True), ("n_cp_burnin", 100.5),
    ("n_test", "100"), ("n_check", np.float64(20.0)), ("n_positive", False),
    ("n_tol", 0.0)])
def test_config_refuses_counts_that_are_not_ints(field, value):
    # n_burnin=50.0 passed and run() raised a bare TypeError; a bool passed
    # as 0 or 1
    settings = {"n_burnin": 50, "n_win": 20, field: value}
    with pytest.raises(ContractViolation,
                       match=f"^TrackerConfig: {field} must be an int"):
        TrackerConfig(**settings)
    TrackerConfig(n_burnin=np.int64(50), n_win=20)


@pytest.mark.parametrize("field,value,message", [
    ("lambda1", "x", "lambdas must be finite"),
    ("lambda2", True, "lambdas must be finite"),
    ("t", -5, "t must be an int >= 0"), ("t", 2.0, "t must be an int"),
    ("t", None, "t must be an int")])
def test_model_refuses_penalties_and_step_counts_it_cannot_run(field, value,
                                                               message):
    # lambda1="x" raised a bare TypeError, lambda2=True passed as 1.0, and
    # a negative t passed
    U = np.linalg.qr(np.random.Generator(np.random.PCG64(52))
                     .standard_normal((20, 2)))[0]
    settings = {"U": U, "A": np.eye(2), "B": U, "lambda1": 0.1,
                "lambda2": 1.0}
    with pytest.raises(ContractViolation, match=f"^SubspaceModel: {message}"):
        SubspaceModel(**{**settings, field: value})
    SubspaceModel(**{**settings, "t": np.int64(3)})


def test_model_refuses_an_asymmetric_a():
    # update_basis's tolerance, checked where A enters: a step would find
    # it only after A, B and the window had moved
    U = np.linalg.qr(np.random.Generator(np.random.PCG64(50))
                     .standard_normal((20, 2)))[0]
    with pytest.raises(ContractViolation, match="not symmetric"):
        SubspaceModel(U=U, A=np.array([[1.0, 0.5], [0.0, 1.0]]), B=U,
                      lambda1=0.1, lambda2=1.0)
    SubspaceModel(U=U, A=np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]]), B=U,
                  lambda1=0.1, lambda2=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_refuses_a_non_finite_a(bad):
    # a NaN passed the symmetry check, and the first step failed in the
    # projection, far from its cause
    U = np.linalg.qr(np.random.Generator(np.random.PCG64(51))
                     .standard_normal((20, 2)))[0]
    for A in ([[1.0, bad], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]],
              [[bad, 0.0], [0.0, 1.0]]):
        with pytest.raises(ContractViolation,
                           match="SubspaceModel: A is not finite"):
            SubspaceModel(U=U, A=np.array(A), B=U, lambda1=0.1, lambda2=1.0)


def test_column_store_keeps_signed_zeros_and_strided_columns():
    # s's nonzeros are read off its bits, so -0.0 is stored and comes back
    S = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, 0.0], [2.0, 0.0, -0.0]])
    L = np.arange(9.0).reshape(3, 3)
    store = trackers.ColumnStore(3)
    store.append(L[:, 0].copy(), S[:, 0].copy())
    store.extend(L[:, 1:], S[:, 1:])  # strided columns
    L_out, S_out = store.dense()
    assert L_out.tobytes() == L.tobytes()
    assert S_out.tobytes() == S.tobytes()


def test_column_store_reads_its_prefix_and_never_writes_it(monkeypatch):
    # a held prefix of 6 columns, 5 appended over two blocks of 4, a
    # truncate to 9 in the blocks and to 4 in the prefix, 7 more appended:
    # dense() gives the stacked columns' bytes and empties the store
    monkeypatch.setattr(trackers.ColumnStore, "BLOCK", 4)
    rng = np.random.Generator(np.random.PCG64(7))
    L, S = rng.standard_normal((2, 5, 18))
    S[rng.random(S.shape) < 0.5] = 0.0
    S[0, ::3] = -0.0
    L_p, S_p = L[:, :6].copy(), S[:, :6].copy()
    saved = L_p.tobytes(), S_p.tobytes()
    store = trackers.ColumnStore(5)
    store.hold(L_p, S_p)
    store.extend(L[:, 6:11], S[:, 6:11])
    store.truncate(9)
    store.extend(L[:, 9:11], S[:, 9:11])
    assert store.n == 11
    store.truncate(4)
    store.extend(L[:, 11:], S[:, 11:])
    kept = np.r_[0:4, 11:18]
    L_out, S_out = store.dense()
    assert L_out.tobytes() == np.column_stack(L.T[kept]).tobytes()
    assert S_out.tobytes() == np.column_stack(S.T[kept]).tobytes()
    assert store.n == 0 and store.dense()[0].shape == (5, 0)
    assert (L_p.tobytes(), S_p.tobytes()) == saved
    for X in (L_p, S_p):
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 1.0


def test_run_tracker_rejects_omw_cp():
    # run_tracker is the shell of the two modes without a detector
    stream = ObservationStream.from_matrix(np.zeros((5, 30)))
    with pytest.raises(ContractViolation, match="not stoc or omw"):
        run_tracker(stream, "omw-cp", TrackerConfig(n_burnin=10, n_win=5))


def test_run_tracker_modes_agree_on_shapes():
    spec = SimSpec(m=20, t=50, n_burnin=15, rho=0.02, seed=45,
                   variant=Stable(r=2))
    gt = generate(spec)
    full = full_stream_matrix(gt)
    config = TrackerConfig(n_burnin=15, n_win=15)
    for mode in ("stoc", "omw"):
        res = run_tracker(ObservationStream.from_matrix(full), mode, config)
        assert res.L.shape == (20, 50)
        assert res.S.shape == (20, 50)


def test_step_output_low_rank_uses_post_update_basis():
    init = make_burnin_init(n_win=10, rho=0.02)
    model, buffer = seeded(init, 0.1, 1.0)
    rng = np.random.Generator(np.random.PCG64(47))
    for _ in range(5):
        out = omw_step(model, buffer, rng.standard_normal(model.m))
        np.testing.assert_array_equal(out.l, model.U @ out.v)


def _assert_owned_column_major(model, *inputs):
    for X in (model.U, model.B):
        assert X.flags.f_contiguous and X.flags.owndata
    for X in (model.U, model.A, model.B):
        assert not any(np.shares_memory(X, Y) for Y in inputs)


@pytest.mark.parametrize("evict", [False, True], ids=["stoc", "omw"])
def test_model_owns_column_major_u_and_b(tmp_path, evict):
    # seeding, a step, the drift correction (at t = 10 * n_win with a
    # window), a restart and load_state each leave U and B column-major,
    # and the model shares no memory with the arrays it was built from
    spec = SimSpec(m=20, t=260, n_burnin=15, rho=0.02, seed=48,
                   variant=Stable(r=2))
    stream = ObservationStream.from_matrix(full_stream_matrix(generate(spec)))
    config = TrackerConfig(n_burnin=15, n_win=10)
    init, model, buffer = seed_tracker(stream, 0, config, evict)
    _assert_owned_column_major(model, init.U0, init.A0, init.B0)
    steps = DRIFT_CORRECTION_FACTOR * config.n_win
    for k in range(steps):
        omw_step(model, buffer, stream.get(config.n_burnin + k))
        if k == 0:
            _assert_owned_column_major(model)
    _assert_owned_column_major(model)

    # the restart of an omw-cp pipeline that took the model over
    pipeline = OmwCpPipeline(TrackerConfig(n_burnin=15, n_win=10,
                                           n_cp_burnin=1, n_test=1,
                                           n_check=3))
    pipeline._take_over(model, buffer, config.n_burnin + steps)
    init = pipeline._restart(stream, pipeline.t - 10)
    _assert_owned_column_major(pipeline.model, init.U0, init.A0, init.B0)

    path = tmp_path / "snap.npz"
    save_state(path, snapshot_tracker("omw" if evict else "stoc",
                                      pipeline.model, pipeline.buffer))
    loaded = load_state(path).model
    _assert_owned_column_major(loaded)
    np.testing.assert_array_equal(loaded.U, pipeline.model.U)
    np.testing.assert_array_equal(loaded.B, pipeline.model.B)
    # load_state builds the model from the arrays it read, as here: the
    # model copies them even when they are column-major already
    U, A, B = (np.asfortranarray(X) for X in (loaded.U, loaded.A, loaded.B))
    _assert_owned_column_major(
        SubspaceModel(U=U, A=A, B=B, lambda1=0.1, lambda2=1.0), U, A, B)


def test_window_buffer_fifo_and_capacity():
    # sample k is (k * ones(3), [k]); the window starts with samples 1 and 2
    # and takes 3, 4, 5, wrapping the ring twice: as in omw_step, each
    # sample overwrites the oldest row, then the head advances
    def sample(k):
        return k * np.ones(3), np.array([float(k)])

    buf = WindowBuffer(*(np.stack(X) for X in zip(sample(1), sample(2))))
    for k in (3, 4, 5):
        for row, evicted, new in zip(buf.oldest(), sample(k - 2), sample(k)):
            np.testing.assert_array_equal(row, evicted)
            row[...] = new
        buf.advance()
        assert buf.capacity == 2
        for rows, expected in zip(buf.rows(), zip(sample(k - 1), sample(k))):
            np.testing.assert_array_equal(rows, np.stack(expected))


@pytest.mark.parametrize("mode,resume", [("stoc", False), ("omw", False),
                                         ("omw-cp", False), ("omw", True)],
                         ids=["stoc", "omw", "omw-cp", "omw-resumed"])
def test_step_failure_names_tracked_time(tmp_path, capsys, mode, resume):
    # a NaN at stream index 120 behind a 50-sample burn-in is tracked time
    # 71 in every mode, also when the run resumes at stream index 100
    spec = SimSpec(m=20, t=100, n_burnin=50, rho=0.02, seed=93,
                   variant=Stable(r=2))
    full = full_stream_matrix(generate(spec))
    full[3, 120] = np.nan
    config = TrackerConfig(n_burnin=50, n_win=50, n_cp_burnin=50, n_test=50,
                           n_check=10)
    with pytest.raises(TrackerStepError) as err:
        if mode == "omw-cp":
            run_omw_cp(ObservationStream.from_matrix(full), config)
        elif resume:
            head = ObservationStream.from_matrix(full[:, :100])
            model, buffer, start = init_tracker(head, mode, config)
            _, cursor = continue_tracker(head, mode, model, buffer, start)
            continue_tracker(ObservationStream.from_matrix(full), mode, model,
                             buffer, cursor)
        else:
            run_tracker(ObservationStream.from_matrix(full), mode, config)
    assert err.value.t == 71

    def track(matrix, name, *extra):
        src = tmp_path / f"{name}.f64"
        write_raw_f64(src, matrix)
        return main(["track", "--input", str(src), "--format", "raw-f64",
                     "--mode", mode, "--n-burnin", "50", "--n-win", "50",
                     "--out-dir", str(tmp_path / name), *extra])

    snap = tmp_path / "snap.npz"
    if resume:
        assert track(full[:, :100], "head", "--save-state", str(snap)) == 0
    capsys.readouterr()
    assert track(full, "whole", *(["--resume", str(snap)] if resume
                                  else [])) == 1
    assert "error: step t=71: " in capsys.readouterr().err


@needs_proc_status
def test_tracked_output_memory_is_about_one_stacked_copy(tmp_path):
    # 10k omw steps at m = 100 from a file, in a fresh process. The column
    # blocks and the stacked L and S map their own pages, which tracemalloc
    # does not see, so the peak RSS covers them, and tracemalloc the heap.
    # They read 1.2x and 0.06x the bytes of L and S (16 MB); per-step (l, s)
    # arrays, as Tracker kept them before, read 2.5x and 2.3x, and blocks,
    # L and S on the heap 1.7x and 1.5x.
    sim = SimSpec(m=100, t=10000, n_burnin=100, rho=0.01, seed=11,
                  variant=Drift(r=10, r0=3, t_p=125))
    write_raw_f64(tmp_path / "in.f64", full_stream_matrix(generate(sim)))
    rss, traced, outputs = child_memory(f"""
        from streamrpca import TrackerConfig, ingest_stream, run_tracker

        def run():
            stream = ingest_stream({str(tmp_path / "in.f64")!r}, "raw-f64",
                                   retain=8)
            return run_tracker(stream, "omw",
                               TrackerConfig(n_burnin=100, n_win=100))
    """)
    assert outputs == 2 * 100 * 10000 * 8
    assert rss <= 1.45 * outputs
    assert traced <= 0.25 * outputs
