"""Meta-learning components: preprocessing, boosted trees, dataset formats."""

from .formats import (
    EncodedAlgoFeatures,
    build_long,
    build_wide,
    encode_algo_features,
    predict_scores_user_algo,
    predict_scores_user_only,
)
from .gbdt import (
    BoostedEnsemble,
    GBDTParams,
    MultiOutputGBDT,
    RegressionTree,
    fit_gbdt,
    fit_multi_output_gbdt,
)
from .preprocess import (
    OneHotMap,
    ScalerParams,
    one_hot_apply,
    one_hot_fit,
    standardize_apply,
    standardize_fit,
)

__all__ = [
    "BoostedEnsemble",
    "EncodedAlgoFeatures",
    "GBDTParams",
    "MultiOutputGBDT",
    "OneHotMap",
    "RegressionTree",
    "ScalerParams",
    "build_long",
    "build_wide",
    "encode_algo_features",
    "fit_gbdt",
    "fit_multi_output_gbdt",
    "one_hot_apply",
    "one_hot_fit",
    "predict_scores_user_algo",
    "predict_scores_user_only",
    "standardize_apply",
    "standardize_fit",
]
