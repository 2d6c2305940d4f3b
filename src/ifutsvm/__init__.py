"""Twin-hyperplane classifiers for imbalanced binary data.

The package trains the intuitionistic-fuzzy universum twin SVM (IFUTSVM-ID)
and its UTSVM baseline, in linear or Gaussian-kernel form, and ships the full
evaluation protocol around them: KEEL/CSV dataset handling, fuzzy sample
scoring, undersampling and universum generation, box-QP duals, stratified
grid-search cross-validation, label-noise studies, and Friedman/Nemenyi rank
statistics.
"""

from .data import (
    Dataset,
    DatasetError,
    InvalidDatasetError,
    NoiseSpec,
    ParseError,
    SplitError,
    inject_label_noise,
    load_dataset,
    parse_csv,
    parse_keel,
    standardize,
    stratified_split,
)
from .evaluation import (
    NEMENYI_Q,
    ConfusionMatrix,
    FriedmanResult,
    GridSpec,
    MetricsReport,
    RankTable,
    average_ranks,
    confusion,
    fit_model,
    friedman,
    friedman_f_critical,
    grid_search_cv,
    load_benchmark_matrix,
    make_hyperparams,
    metrics,
    nemenyi_cd,
    nemenyi_q,
    pairwise_significance,
    stratified_kfold,
)
from .kernels import (
    KernelSpec,
    gram_values,
)
from .membership import (
    FuzzyParams,
    ScoreWeights,
    assign_scores,
    score_vector,
    uniform_scores,
)
from .models import (
    DualReport,
    Hyperparams,
    TrainingError,
    TwinModel,
    decision_distances,
    duality_gaps,
    fit_ifutsvm_id,
    fit_utsvm,
    load_model,
    predict,
    save_model,
)
from .qp import (
    BoxQP,
    FactorizationError,
    NonConvergenceError,
    NumericalError,
    QPSolution,
    solve_box_qp,
)
from .sampling import (
    SamplingPlan,
    build_plan,
    generate_universum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
