"""Streaming robust PCA: online low-rank + sparse decomposition of a vector
stream, moving-window subspace tracking, and change-point detection."""

from .basis import basis_objective, update_basis
from .changepoint import (ChangePointReport, CpConfig, CpDiagnostic,
                          OmwCpPipeline, buffer_advance, flag_observation,
                          p_value, run_omw_cp, scan_for_changepoint,
                          support_size)
from .exceptions import (ContractViolation, InitializationError, ParseError,
                         SnapshotError, TrackerStepError)
from .metrics import EvalReport, cp_deviation, err_rel, support_mismatch
from .pcp import (BurninInit, PcpConfig, PcpResult, burnin_initialize,
                  default_mu, default_pcp_lambda, estimate_rank, pcp_alm)
from .projection import ProjectionConfig, project_sample, projection_objective
from .prox import ridge_regress, shrink, shrink_matrix, svt
from .simgen import (ChangePoints, Drift, SimSpec, Stable, full_stream_matrix,
                     gen_changepoints, gen_drift, gen_stable, generate)
from .state import (load_state, restore_pipeline, save_state,
                    snapshot_pipeline, snapshot_tracker)
from .streams import ObservationStream, ingest_stream, write_csv, write_raw_f64
from .trackers import (DecompositionResult, SubspaceModel, TrackerConfig,
                       WindowBuffer, continue_tracker, init_tracker, omw_init,
                       omw_step, run_tracker, state_element_count, stoc_step)

__version__ = "0.1.0"
