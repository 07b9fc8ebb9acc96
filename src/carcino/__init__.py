"""Deterministic video-level carcinomatosis scoring and evaluation.

Turns per-frame segmentation confidence maps from a laparoscopy video
into a six-station involvement vector, a total Fagotti score (0-12 in
2-point steps), and an indication-to-surgery decision; evaluates
predictions against clinical ground truth at every level; and ships a
seeded synthetic-cohort generator whose planted truth the pipeline must
recover exactly in the absence of noise.
"""

from .core import (
    Indication,
    ORGAN_SLUGS,
    OrganClass,
    ScoringConstants,
    STATION_SLUGS,
    Station,
    compute_fs,
    compute_its,
)
from .errors import CarcinoError
from .maskio import (
    ConfidenceFrame,
    FrameRecord,
    VideoGroundTruth,
    VideoManifest,
    load_frame,
    load_manifest,
    read_raster,
    save_manifest,
    write_raster,
)
from .pipeline import (
    NoduleTable,
    VideoAssessment,
    assign_nodules,
    classify_frame,
    connected_components,
    score_frames,
    score_video,
    threshold_organ_masks,
    threshold_pc_mask,
)
from .metrics import (
    ConfusionCounts,
    MetricSummary,
    balanced_accuracy,
    dice,
    fs_rmse,
    its_confusions,
    normalized_rmse,
    precision_recall_f1,
    station_confusions,
    summarize_runs,
)
from .cohort import (
    Cohort,
    CohortVideo,
    EvalRun,
    FoldAssignment,
    evaluate_cohort,
    independent_runs,
    load_cohort,
    render_report_text,
    runs_from_folds,
    stratified_kfold,
)
from .synth import (
    NoiseSpec,
    SynthSpec,
    generate_cohort,
    monte_carlo_sweep,
    render_sweep_csv,
    render_sweep_text,
)

__version__ = "0.2.0"
