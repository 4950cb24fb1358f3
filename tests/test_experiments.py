import dataclasses

import pytest

from streamrpca import experiments
from streamrpca.exceptions import ContractViolation
from streamrpca.experiments import run_experiment, study_spec
from streamrpca.projection import ProjectionConfig
from streamrpca.simgen import (ChangePoints, Drift, SimSpec, Stable,
                               full_stream_matrix, generate)

from conftest import child_memory, needs_proc_status

DESK = dict(n_burnin=100, n_win=100, lambda1=None, lambda2=None,
            projection=ProjectionConfig(), n_cp_burnin=100, n_test=100,
            n_check=20, alpha=0.01, alpha_prop=0.5, n_positive=3, n_tol=0)
PAPER = {**DESK, "n_burnin": 200, "n_win": 200, "n_cp_burnin": 200}


@pytest.mark.parametrize("study,scale,sim,config", [
    (1, "desk", SimSpec(m=100, t=1000, n_burnin=100, rho=0.01, seed=4,
                        variant=Stable(r=5)), DESK),
    (2, "desk", SimSpec(m=100, t=1000, n_burnin=100, rho=0.01, seed=4,
                        variant=Drift(r=10, r0=3, t_p=125)), DESK),
    (3, "desk", SimSpec(m=100, t=1500, n_burnin=100, rho=0.01, seed=4,
                        variant=ChangePoints(ranks=(5, 25, 12),
                                             cps=(500, 1000), r0=3,
                                             t_p=125)),
     {**DESK, "lambda2": 3.0}),
    (1, "paper", SimSpec(m=400, t=5000, n_burnin=200, rho=0.01, seed=4,
                         variant=Stable(r=10)), PAPER),
    (2, "paper", SimSpec(m=400, t=5000, n_burnin=200, rho=0.01, seed=4,
                         variant=Drift(r=10, r0=5, t_p=250)), PAPER),
    (3, "paper", SimSpec(m=400, t=3000, n_burnin=200, rho=0.01, seed=4,
                         variant=ChangePoints(ranks=(10, 50, 25),
                                              cps=(1000, 2000), r0=5,
                                              t_p=250)), PAPER),
])
def test_study_spec_is_pinned(study, scale, sim, config):
    # the studies' streams and settings, which the acceptance tests and the
    # benchmark's switch-omw-cp workload (paper study 3) run
    got_sim, got_config = study_spec(study, scale, seed=4)
    assert got_sim == sim
    assert {f.name: getattr(got_config, f.name)
            for f in dataclasses.fields(got_config)} == config


def test_run_experiment_checks_the_methods_before_writing(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ContractViolation, match="'bogus'"):
        run_experiment(1, "desk", 0, out, methods=("omw", "bogus"))
    assert not out.exists()


def spy_on_streams(monkeypatch):
    """Patch experiments.ObservationStream to record each stream's retain
    horizon and every sample its source yields; returns the two lists."""
    horizons, samples = [], []
    stream_class = experiments.ObservationStream

    def recorded(source):
        for x in source:
            samples.append(x)
            yield x

    def spy(source, retain=None, dim=None):
        horizons.append(retain)
        return stream_class(recorded(source), retain=retain, dim=dim)

    monkeypatch.setattr(experiments, "ObservationStream", spy)
    return horizons, samples


def test_run_method_streams_through_the_replay_horizon(monkeypatch):
    # the stream keeps the horizon that track gives its own, not a copy of
    # every sample beside the full matrix
    horizons, _ = spy_on_streams(monkeypatch)
    sim, config = study_spec(3, "desk", 0)
    result, _, _ = experiments.run_method("omw-cp", generate(sim), config)
    assert horizons == [config.replay_horizon] == [100 + 20 + 8]
    assert result.change_points


def test_run_method_streams_the_burn_in_block_then_the_stream(monkeypatch):
    # column for column the samples of full_stream_matrix, read from the
    # generated matrices without stacking them
    _, samples = spy_on_streams(monkeypatch)
    sim, config = study_spec(1, "desk", 0)
    gt = generate(sim)
    experiments.run_method("omw", gt, config)
    full = full_stream_matrix(gt)
    assert len(samples) == full.shape[1]
    for i, x in enumerate(samples):
        assert x.tobytes() == full[:, i].tobytes(), i


@needs_proc_status
def test_run_method_holds_no_stacked_copy_of_the_stream():
    # paper study 1: a 400 x 5,200 stacked copy of the stream was 16.6 MB
    # of the 21.1 MB tracemalloc peak of an omw run, which now reads 4.5 MB
    # (the outputs' column blocks are mapped, and the RSS counts them)
    _, peak, _ = child_memory("""
        from streamrpca.experiments import run_method, study_spec
        from streamrpca.simgen import generate

        sim, config = study_spec(1, "paper", 0)
        gt = generate(sim)

        def run():
            return run_method("omw", gt, config)[0]
    """)
    assert peak < 8_000_000
