"""Weakly supervised (4-shot) domain adaptation for gas-sensor time series.

The source domain is clustered into local sub-domains, each served by its
own small LSTM; the few labeled target samples are routed to the cluster
that predicts them best, the cluster experts are retrained with them, and a
softmax gate dispatches unseen target windows at inference time.
"""

from .baselines import (
    AdaBoostModel,
    NnSsState,
    Stump,
    adaboost_predict,
    adaboost_predict_many,
    adaboost_train,
    nearest_neighbor,
    ss_classify_stream,
    ss_init,
)
from .bench import (
    ExperimentConfig,
    ExperimentResult,
    SyntheticDomainSpec,
    accuracy,
    beef_grid,
    emit_report,
    macro_accuracy,
    run_experiment,
    synthesize_domains,
    write_dataset_csv,
)
from .gmm import GmmParams, gmm_assign, gmm_fit, gmm_log_likelihood
from .ingest import (
    DEFAULT_DROP,
    FewShotSplit,
    SequenceDataset,
    StandardizationStats,
    WindowSample,
    WindowSet,
    apply_standardizer,
    as_window_set,
    fit_standardizer,
    flatten_windows,
    harmonize,
    load_csv,
    load_dataset,
    make_windows,
    sample_few_shot,
    stack_windows,
)
from .nets import (
    LstmParams,
    MlpParams,
    SoftmaxRegressionParams,
    TrainConfig,
    grad_check,
    lstm_predict,
    lstm_train,
    mlp_train,
    softmax_train,
)
from .pipeline import (
    ClusterExpert,
    GateModel,
    HierarchicalModel,
    SelectionReport,
    adapt_experts,
    fit,
    fit_gate,
    fit_selected,
    load_model,
    predict_batch,
    route_few_shot,
    save_model,
    stage_seed,
)

__version__ = "0.1.0"
