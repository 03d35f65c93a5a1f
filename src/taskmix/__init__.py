"""Meta-learning training engine over precomputed embedding features.

Episodic training of a PReLU multilayer classifier with exact or
first-order meta-gradients, within-task mixup and cross-task synthetic
blending as augmentations, a multi-seed evaluation protocol with macro-F1
reporting, and a synthetic task-family generator for desk-scale runs.
"""

from .config import (
    AUGMENTATIONS,
    METHOD_AUGMENTATION,
    METHODS,
    FinetuneConfig,
    MetaConfig,
    ModelConfig,
    RunConfig,
    from_dict,
)
from .data import (
    Batch,
    Dataset,
    Splits,
    Task,
    auto_split,
    compute_class_weights,
    load_dataset,
    sample_batch,
    write_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    ShapeError,
    TaskMixError,
    TrainingDivergedError,
    UsageError,
)
from .evaluation import (
    MetricsReport,
    TrialSummary,
    render_report,
    run_method,
    summarize,
)
from .metrics import evaluate_model, macro_f1, predict_labels, split_macro_f1
from .mixing import (
    MixConfig,
    SyntheticTaskBatch,
    metamix_augment,
    mix_batches,
    sample_beta,
    taskmix_synthesize,
)
from .nn import (
    AdaptationTrace,
    ModelParams,
    backward,
    forward,
    init_params,
    weighted_ce,
)
from .optim import AdamState, EarlyStopper, Schedule, adam_step, cosine_lr, sgd_step
from .synth import SynthSpec, generate, preset
from .training import TrainedModel, finetune, inner_adapt, meta_step, meta_train, mtl_train

__version__ = "0.1.0"
