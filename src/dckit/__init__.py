"""dckit: dataset condensation toolkit.

Distribution discrepancies (MMD, Wasserstein-1, Hausdorff, characteristic,
generalization/value/parameter), the condensation objectives built on them,
push-forward matching regimes, and a desk-scale evaluation harness.
"""

from .augment import (
    ImageBatch,
    channel_multi_formation,
    multi_formation,
    siamese_augment,
)
from .condense import (
    MethodConfig,
    RegContext,
    StepLog,
    cig_ridge_value_and_grad,
    condense,
    dp_noise_calibration,
    kcenter_covering,
    kmeans_coreset,
    krr_fit,
    krr_fit_targets,
    regularizer_eval,
)
from .data import (
    LabeledDataset,
    SyntheticDataset,
    init_synthetic,
    load_dataset,
    load_synthetic,
    normalize_features,
    one_hot,
    per_class_partition,
    save_synthetic,
    train_eval_split,
    two_blobs,
)
from .discrepancy import (
    DiscrepancyReport,
    ModelBatch,
    characteristic_discrepancy,
    generalization_discrepancy_finite,
    gradient_discrepancy,
    hausdorff_distance,
    hierarchy_report,
    ipm_feature_stat,
    loss_discrepancy,
    moment_discrepancy,
    wasserstein1,
)
from .harness import EvalConfig, EvalReport, RunConfig, discrepancy_command, emit_plots, evaluate, run
from .kernels import (
    KernelSpec,
    gaussian_spec,
    gram_matrix,
    gram_mean,
    kernel_eval,
    median_heuristic,
    median_heuristic_spec,
    mmd_squared,
    random_feature_map,
)
from .models import (
    Mlp,
    TrainConfig,
    pgd_attack,
    sgd_train,
    sgd_train_stack,
)
from .seeding import derive_seed
from .spaces import (
    LinearAutoencoder,
    fit_linear_autoencoder,
    identity_autoencoder,
    pullback_spec,
    regime_objective,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
