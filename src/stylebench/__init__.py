"""Offline evaluation toolkit for implicit-feedback fashion-style
recommenders: most-popular, implicit-ALS collaborative filtering, and an
ALS-augmented content-based random forest, scored with tie-aware NDCG@k,
sampled average-distinct@k, and relative-popularity@k inside
interaction-history user segments.
"""

from .als import (
    AlsConfig,
    ConfidenceMatrix,
    FactorModel,
    build_confidence,
    fit_als,
)
from .data import (
    Dataset,
    FeatureColumn,
    FeatureTable,
    InteractionEvent,
    Kind,
    PopularityTable,
    Segment,
    TemporalSplit,
    dataset_stats,
    load_events,
    popularity_table,
    segment_users,
    temporal_split,
    write_events,
)
from .forest import (
    AugmentedTable,
    ForestConfig,
    ForestModel,
    augment_labels,
    fit_forest,
    predict_forest,
    predict_forest_grid,
)
from .harness import (
    EvalConfig,
    EvaluationReport,
    ShortHeadCurve,
    render_report,
    run_evaluation,
    short_head_curve,
)
from .metrics import (
    MetricValue,
    MicroAverage,
    avg_distinct_sampled,
    bootstrap_ci,
    build_relevance,
    dcg_at_k,
    micro_average_ndcg,
    random_baseline_ndcg,
    relative_popularity,
    tie_aware_ndcg_at_k,
)
from .recommend import RankedList
from .synth import SynthConfig, generate_dataset

__version__ = "0.1.0"
