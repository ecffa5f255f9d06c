"""labelaudit: detect, remove, or overwrite label errors in supervised datasets.

The workflow: build sentinel predictions (out-of-fold cross-validation or an
external dump), run stochastic multi-pass inference, summarize the predictive
uncertainty, and apply threshold policies that keep, remove, or overwrite each
label.  A synthetic noise benchmark scores detections against ground truth.
"""

from .data import (
    DataFormatError,
    Dataset,
    LabeledExample,
    PassStack,
    PredictiveDistribution,
    TaggedToken,
    load_dataset,
    load_distributions,
    save_dataset,
    save_distributions,
    validate_distribution,
)
from .metrics import (
    RankedQuery,
    ScoredPrediction,
    classification_metrics,
    ranking_metrics,
    recall_at_confidence,
    relative_recall_change,
)
from .mlp import (
    Model,
    ModelSpec,
    TrainConfig,
    init_model,
    load_model,
    mcd_predict,
    predict,
    save_model,
    train,
)
from .noisebench import (
    DetectionReport,
    NoiseMask,
    NoiseSpec,
    detection_scores,
    inject_noise,
    make_blobs,
)
from .pipeline import (
    BenchmarkConfig,
    PipelineConfig,
    PipelineResult,
    RunPlan,
    default_benchmark_config,
    emit_report,
    load_config,
    plan_run,
    run_pipeline,
    sweep_thresholds,
)
from .policy import (
    ApplyReport,
    Decision,
    Decisions,
    FilterThresholds,
    OverwriteThresholds,
    QuantileThresholds,
    apply_decisions,
    decide_filter,
    decide_overwrite,
    decide_quantile,
)
from .sdgmask import MaskProposal, render_masked, select_masks
from .sentinel import (
    FoldAssignment,
    LabelSpaceMapping,
    build_cv_sentinel,
    ingest_external_dump,
    map_to_evidence,
)
from .uncertainty import UncertaintySummary, ordinal_quantile, summarize

__version__ = "0.1.0"
