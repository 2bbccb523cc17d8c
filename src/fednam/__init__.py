"""Federated training of neural additive models with per-feature interpretability.

Each feature gets its own small network; predictions are the sum of those
univariate contributions plus a bias, trained across simulated clients and
aggregated by sample-weighted parameter averaging. Reports expose shape
curves and contribution rankings per client and globally, alongside an
input-gradient baseline from a plain federated DNN.
"""

from .config import RunConfig, load_config, save_config
from .data import Dataset, RawTable, SplitSpec, load_csv, load_dataset, preprocess
from .dnn import DnnModel, build_dnn
from .errors import ConfigError, DataError, FedNamError, TrainingError
from .federation import (
    ClientState,
    FederationConfig,
    FederationResult,
    fed_avg,
    local_train,
    partition_clients,
    run_federation,
    train_centralized,
)
from .interpret import (
    ContributionReport,
    ShapeCurve,
    average_shape_functions,
    baseline_attributions,
    contribution_scores,
    global_interpret,
    model_curves,
)
from .metrics import accuracy, compute_metrics, macro_ovr_auc, roc_auc
from .nam import (
    NamModel,
    build_nam,
    load_model,
    nam_backward,
    nam_forward,
    save_model,
)
from .tune import TrialResult, grid_search, run_from_config

__version__ = "0.1.0"
