"""Per-user recommender algorithm selection.

Builds a per-user ground-truth performance matrix over a portfolio of
recommenders, extracts user and algorithm meta-features, and evaluates
meta-learned per-user selectors against the single-best and virtual-best
baselines under nested cross-validation.
"""

from .data import (
    Dataset,
    DatasetStats,
    IngestConfig,
    SplitPair,
    dataset_stats,
    filter_min_interactions,
    ingest_raw,
    read_interactions_csv,
    sample_users,
    temporal_split_per_user,
    write_interactions_csv,
)
from .errors import (
    ColdStartError,
    ConfigError,
    DivergenceError,
    EmptyDatasetError,
    MatrixInversionError,
    NonFiniteScoresError,
    RecselectError,
    RowParseError,
    SchemaError,
    SourceMetricError,
)
from .ground_truth import (
    PerformanceMatrix,
    evaluate_portfolio,
    gap_closed,
    ndcg_at_k,
    single_best_algorithm,
    virtual_best_algorithm,
)
from .recommenders import (
    AVAILABLE_ALGORITHMS,
    PortfolioConfig,
    build_train_matrix,
    recommend_top_k,
    train_algorithm,
    train_portfolio,
)
from .user_features import USER_FEATURE_NAMES, UserFeatureTable, user_feature_table

__version__ = "0.1.0"

__all__ = [
    "AVAILABLE_ALGORITHMS",
    "ColdStartError",
    "ConfigError",
    "Dataset",
    "DatasetStats",
    "DivergenceError",
    "EmptyDatasetError",
    "IngestConfig",
    "MatrixInversionError",
    "NonFiniteScoresError",
    "PerformanceMatrix",
    "PortfolioConfig",
    "RecselectError",
    "RowParseError",
    "SchemaError",
    "SourceMetricError",
    "SplitPair",
    "USER_FEATURE_NAMES",
    "UserFeatureTable",
    "build_train_matrix",
    "dataset_stats",
    "evaluate_portfolio",
    "filter_min_interactions",
    "gap_closed",
    "ingest_raw",
    "ndcg_at_k",
    "read_interactions_csv",
    "recommend_top_k",
    "sample_users",
    "single_best_algorithm",
    "temporal_split_per_user",
    "train_algorithm",
    "train_portfolio",
    "user_feature_table",
    "virtual_best_algorithm",
    "write_interactions_csv",
]
