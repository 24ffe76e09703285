"""Route-aware ensemble regression over systematically missing data.

Builds missing-value-free subsets of a sparse sensor table (by signal
group or by production route), trains a residual-boosting chain or a
bagging ensemble on them, and predicts each item using only the members
whose inputs its route actually produced.
"""

from .analysis import (
    RoutePattern,
    SignalGroup,
    always_available_signals,
    infer_signal_groups,
    pattern_summary,
    route_frequencies,
)
from .data import (
    AvailabilityPattern,
    Dataset,
    SignalId,
    coalesce_signals,
    dataset_from_columns,
    load_dataset,
    load_table,
    write_csv,
)
from .ensemble import (
    EnsembleMember,
    EnsembleModel,
    MetricRow,
    StratifiedMetrics,
    evaluate,
    load_model,
    save_model,
    train_bagging,
    train_boosting,
    train_boosting_branched,
    train_conventional,
    train_test_split_rows,
)
from .learners import (
    FittedLearner,
    LearnerConfig,
    MeanLearner,
    RidgeLearner,
    TreeLearner,
    fit,
    learner_from_dict,
    learner_to_dict,
)
from .subsetting import (
    StrategyOptions,
    SubsetSpec,
    build_subset_specs,
    materialize,
    subsets_by_common_routes,
    subsets_by_grouped_signals,
    validate_nested_chain,
)
from .synthgen import (
    GenSpec,
    PlantLayout,
    Route,
    SignalSpec,
    TargetRule,
    Unit,
    default_layout,
    generate,
    layout_from_dict,
    layout_to_dict,
)

__version__ = "0.1.0"

# The split scan has a single NumPy implementation. The constant stays
# because benchmark records name the kernel backend of every run.
KERNEL_BACKEND = "numpy"
