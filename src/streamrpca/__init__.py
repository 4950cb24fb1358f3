"""Streaming robust PCA: online low-rank + sparse decomposition of a vector
stream, moving-window subspace tracking, and change-point detection."""

from .changepoint import (ChangePointReport, CpConfig, CpDiagnostic,
                          OmwCpPipeline, run_omw_cp)
from .exceptions import (ContractViolation, InitializationError, ParseError,
                         SnapshotError, TrackerStepError)
from .metrics import EvalReport, cp_deviation, err_rel, support_mismatch
from .pcp import PcpConfig, PcpResult, pcp_alm
from .projection import ProjectionConfig
from .simgen import (ChangePoints, Drift, SimSpec, Stable, full_stream_matrix,
                     generate)
from .state import (load_state, restore_pipeline, save_state,
                    snapshot_pipeline, snapshot_tracker)
from .streams import ObservationStream, ingest_stream, write_raw_f64
from .trackers import (DecompositionResult, SubspaceModel, TrackerConfig,
                       WindowBuffer, continue_tracker, init_tracker,
                       run_tracker)

__version__ = "0.1.0"
