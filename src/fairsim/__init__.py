"""Simulation lab for bias absorption in online personalized ranking.

A linear ranking model is warm-started on fair feedback and then personalized
online against a user whose labels mix a fixed acceptance rule with outright
group bias. The package measures how much of that bias the model absorbs
(Skew@k, NDCS, Precision@k) and evaluates a covariance-projection regularizer
that suppresses the model component aligned with the protected attribute.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyQualifiedPool,
    FairsimError,
    NumericalError,
    SingularSystemError,
)
from .datagen import (
    GenConfig,
    Normal,
    Pool,
    ProxyDist,
    Uniform,
    feature_matrix,
    generate_pool,
    load_pool,
    protected_values,
    save_pool,
)
from .usermodel import (
    DEFAULT_USER_WEIGHTS,
    LabeledPool,
    UserConfig,
    label_pool,
    load_labeled,
    save_labeled,
    score_all,
)
from .learner import (
    LinearModel,
    OnlineTrace,
    load_model,
    perceptron_update,
    rank_by_model,
    run_online,
    save_model,
    save_trace,
    warm_start,
    zero_model,
)
from .fairreg import (
    FairRegularizer,
    fit_auxiliary,
    load_regularizer,
    regularized_update,
    save_regularizer,
    solve_exact,
)
from .metrics import (
    EPSILON_FLOOR,
    Baseline,
    MetricsReport,
    compute_baseline,
    evaluate_ranking,
    load_baseline,
    ndcs,
    precision_at_k,
    save_baseline,
    skew_at_k,
)
from .experiments import (
    ExperimentConfig,
    RunResult,
    SeedResult,
    build_seed_context,
    derive_seed,
    experiment_config_from_dict,
    run_evolution,
    run_final_eval,
    run_reg_sweep,
    write_results,
)

