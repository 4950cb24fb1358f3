import dataclasses

import pytest

from streamrpca.experiments import study_spec
from streamrpca.projection import ProjectionConfig
from streamrpca.simgen import ChangePoints, Drift, SimSpec, Stable

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
