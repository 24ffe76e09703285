"""Ensemble training, route-aware prediction, and stratified evaluation.

Boosting fits residual models over subsets that all contain the
narrowest one: member 0 (the base model) predicts the target from that
feature set, and every later member predicts what the earlier members
whose features it has, exactly those that fire at its rows, still get
wrong. Bagging fits independent members and averages them. At
prediction time only members whose entire feature set is present are
applied, so an item is scored with exactly the knowledge its route
produced.

The conventional baseline (complete-case deletion: drop every row with
any missing value, fit one model on all signals) is wrapped as a
one-member bagging ensemble so the same training, prediction and
evaluation machinery applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, SignalId, read_json, signal_names, write_json
from .errors import (
    DomainError,
    EmptySubset,
    EmptyTrainingSet,
    InputError,
    InvalidModel,
    NoApplicableModel,
    NonFinite,
    NotNested,
)
from .learners import (
    FittedLearner,
    LearnerConfig,
    fit,
    learner_from_dict,
    learner_to_dict,
)
from .subsetting import SubsetSpec, training_rows, validate_nested_chain

ENSEMBLE_MODES = ("boosting", "bagging")


@dataclass(frozen=True)
class EnsembleMember:
    """A named learner; ``feature_set`` is its features as a frozenset,
    made once at construction: the member fires on a row iff its
    ``feature_set`` is inside the row's present signals."""

    name: str
    features: tuple[SignalId, ...]
    learner: FittedLearner

    def __post_init__(self) -> None:
        if tuple(self.learner.features) != tuple(self.features):
            raise ValueError(
                f"member {self.name!r}: learner features do not match member features"
            )
        object.__setattr__(self, "feature_set", frozenset(self.features))


def check_members(mode: str, target: SignalId, members: Sequence) -> None:
    """Raise unless ``members``, in model order, can make a ``mode``
    model of ``target``: a known mode, at least one member, in boosting
    member 0's features inside every member's, distinct names, no member
    repeating a feature and none reading the target. A member is
    anything with ``name``, ``features`` and ``feature_set``, so
    trainers check their subsets before any fit.
    """
    if mode not in ENSEMBLE_MODES:
        raise ValueError(f"unknown ensemble mode {mode!r}")
    if not members:
        raise ValueError("an ensemble needs at least one member")
    if mode == "boosting":
        for m in members[1:]:
            if not members[0].feature_set <= m.feature_set:
                raise NotNested(
                    f"boosting needs the narrowest subset {members[0].name!r} "
                    f"inside every other subset, but {m.name!r} does not contain "
                    "it (bagging fits subsets that are not nested)"
                )
    names = [m.name for m in members]
    for k, m in enumerate(members):
        if m.name in names[:k]:
            raise InvalidModel(f"two members are named {m.name!r}")
        if len(m.feature_set) != len(m.features):
            raise InvalidModel(f"member {m.name!r} repeats a feature")
        if target in m.feature_set:
            raise InvalidModel(f"member {m.name!r} reads the target {target!r}")


@dataclass(frozen=True)
class EnsembleModel:
    """Ordered members plus the combination mode; the members pass
    ``check_members``. For boosting, member 0 is the base model, and each
    later member was fit against the earlier ones whose features it has.
    """

    mode: str
    target: SignalId
    members: tuple[EnsembleMember, ...]

    def __post_init__(self) -> None:
        check_members(self.mode, self.target, self.members)

    def applicable_members(self, row_signals: set[SignalId]) -> list[int]:
        """Indices of members whose entire feature set is present.

        For a nested boosting chain this is always a prefix of the member
        order, and in boosting any non-empty result holds the base. The
        target's presence is irrelevant.
        """
        return [i for i, m in enumerate(self.members) if m.feature_set <= row_signals]

    def predict_with_members(
        self, row: Mapping[SignalId, float]
    ) -> tuple[float, list[str]]:
        """Prediction plus the names of the members that produced it.

        A NaN or ``None`` value marks its signal absent, as a NaN cell
        does in a ``Dataset`` and ``None`` in ``dataset_from_columns``.
        The applicable members' scores are summed in member order from
        0.0, each by its learner's row kernel, which reads its inputs from
        ``row`` by name, as floats whatever their type.
        """
        present = {s for s, v in row.items() if v is not None and v == v}  # NaN != NaN
        total = 0.0
        names = []
        for m in self.members:
            if m.feature_set <= present:
                total += m.learner._score_row(row, m.features)
                names.append(m.name)
        if not names:
            raise NoApplicableModel("no member has all its inputs available")
        if self.mode == "bagging":
            total = total / len(names)
        return total, names

    def predict(self, row: Mapping[SignalId, float]) -> float:
        """Boosting: sum of the applicable prefix. Bagging: their mean."""
        value, _ = self.predict_with_members(row)
        return value

    def contributions(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Each member's score of every row of a table: ``(contrib, fired)``.

        ``fired[i, k]`` says member k's inputs are all present in row i;
        a member reading a column the table lacks never fires, and the
        table's target is not an input. ``contrib[i, k]`` is member k's
        ``predict_matrix`` value for row i where it fired and 0.0
        elsewhere; each member's column is contiguous.
        """
        features = set(dataset.features())
        fired = np.zeros((dataset.n_rows, len(self.members)), dtype=bool)
        contrib = np.zeros((len(self.members), dataset.n_rows)).T
        for k, member in enumerate(self.members):
            if not features.issuperset(member.features):
                continue
            fired[:, k] = dataset.rows_with(member.features)
            rows = np.flatnonzero(fired[:, k])
            X = dataset.values[np.ix_(rows, [dataset.index(s) for s in member.features])]
            contrib[:, k][rows] = member.learner.predict_matrix(X)
        return contrib, fired

    def predict_dataset(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Every row of a table scored at once: ``(values, fired)``.

        ``fired`` is that of ``contributions``. Row i is scored iff any
        member fired there: in boosting the base then fired too, as it
        reads a subset of every member's inputs. ``values[i]`` sums row
        i's contributions in member order from 0.0, where an added 0.0
        changes nothing, so it is what ``predict`` returns for row i's
        other present signals, bit for bit, and NaN where no member fired.
        """
        contrib, fired = self.contributions(dataset)
        total = np.zeros(dataset.n_rows)
        for column in contrib.T:
            total += column
        scored = fired.any(axis=1)
        if self.mode == "bagging":
            total[scored] /= fired.sum(axis=1)[scored]
        total[~scored] = np.nan
        return total, fired


def _fit_members(
    dataset: Dataset,
    specs: Sequence[SubsetSpec],
    parents: Sequence[Sequence[int]],
    names: Sequence[str],
    config: LearnerConfig,
) -> tuple[EnsembleMember, ...]:
    """Fit one member per spec, in order, on the rows of ``dataset`` where
    its features and the target are present.

    Member k is fit against the target minus the summed predictions of
    the earlier members listed in ``parents[k]``. A member listed there
    scores its own training matrix once, after its fit, into a column
    over the table, 0.0 elsewhere: 8 bytes per row. Member k's parents'
    columns are added in member order from 0.0, as ``predict_dataset``
    adds contributions; each parent fires at all of member k's rows, so
    its residuals have the bits of the parents scored there.
    """
    has_children = {j for prefix in parents for j in prefix}
    contrib: dict[int, np.ndarray] = {}
    members: list[EnsembleMember] = []
    for k, (spec, prefix, name) in enumerate(zip(specs, parents, names)):
        rows = training_rows(dataset, spec)
        X = dataset.values[np.ix_(rows, [dataset.index(s) for s in spec.features])]
        y = dataset.column(dataset.target)[rows]
        if prefix:
            fitted = np.zeros(dataset.n_rows)
            for j in prefix:
                fitted += contrib[j]
            y = y - fitted[rows]
        learner = fit(config, X, y, features=spec.features)
        if k in has_children:
            contrib[k] = np.zeros(dataset.n_rows)
            contrib[k][rows] = learner.predict_matrix(X)
        members.append(EnsembleMember(name, spec.features, learner))
    return tuple(members)


def train_boosting(
    dataset: Dataset, specs: Sequence[SubsetSpec], config: LearnerConfig
) -> EnsembleModel:
    """Fit a residual chain over strictly nested subsets.

    Members are ordered narrowest first; member k >= 1 is fit on its
    subset against the target minus the summed predictions of members
    0..k-1 (all evaluable there because of the nesting). Member 0 keeps
    the role name "base"; residual members keep their subset names.
    """
    return train_boosting_branched(dataset, validate_nested_chain(specs), config)


def train_boosting_branched(
    dataset: Dataset, specs: Sequence[SubsetSpec], config: LearnerConfig
) -> EnsembleModel:
    """Boosting over subsets that all contain the narrowest one.

    Specs are ordered by (size, name) and pass ``check_members`` before
    any fit; the first is the base, named "base", and no other spec may
    be named "base". Member k is fit against every earlier member whose
    features it has, exactly those that fire at its rows, so a chain
    trains as in ``train_boosting``. Two branches that do not contain
    each other both fire on a row with both their signals, each fit
    without the other's correction.
    """
    if not specs:
        raise ValueError("branched boosting needs at least one subset")
    ordered = sorted(specs, key=lambda s: (len(s.features), s.name))
    check_members("boosting", dataset.target, ordered)
    parents = [
        [j for j in range(k) if ordered[j].feature_set <= spec.feature_set]
        for k, spec in enumerate(ordered)
    ]
    names = ["base"] + [spec.name for spec in ordered[1:]]
    if "base" in names[1:]:
        raise InvalidModel(
            "two members would be named 'base': the narrowest subset "
            f"{ordered[0].name!r} and the subset 'base'"
        )
    members = _fit_members(dataset, ordered, parents, names, config)
    return EnsembleModel("boosting", dataset.target, members)


def train_bagging(
    dataset: Dataset, specs: Sequence[SubsetSpec], config: LearnerConfig
) -> EnsembleModel:
    """Independent members, one per subset, each predicting the target."""
    if not specs:
        raise ValueError("bagging needs at least one subset")
    check_members("bagging", dataset.target, specs)
    names = [spec.name for spec in specs]
    members = _fit_members(dataset, specs, [()] * len(specs), names, config)
    return EnsembleModel("bagging", dataset.target, members)


def train_conventional(dataset: Dataset, config: LearnerConfig) -> EnsembleModel:
    """Complete-case baseline: listwise deletion, one model on all signals.

    It is a one-member bagging ensemble over every non-target signal.
    """
    if dataset.target is None:
        raise ValueError("train_conventional requires a dataset with a target")
    spec = SubsetSpec("conventional", dataset.features())
    try:
        return train_bagging(dataset, [spec], config)
    except EmptySubset:
        raise EmptyTrainingSet("no row is free of missing values") from None


# --- evaluation ---------------------------------------------------------------

@dataclass(frozen=True)
class MetricRow:
    n: int
    mae: float | None
    r2: float | None  # None means undefined (zero target variance)
    n_no_model: int = 0

    def to_dict(self) -> dict:
        return {"n": self.n, "mae": self.mae, "r2": self.r2, "n_no_model": self.n_no_model}

    def cells(self) -> tuple[str, str]:
        """The MAE and R-squared as report text: "n/a" twice when no row
        was scored, else three decimals, and "undef" for an undefined R2."""
        if self.n == 0:
            return "n/a", "n/a"
        return f"{self.mae:.3f}", "undef" if self.r2 is None else f"{self.r2:.3f}"


@dataclass(frozen=True)
class StratifiedMetrics:
    """Per-stratum and overall accuracy.

    Rows are assigned to the most specific matching stratum (largest
    feature set first). Rows without a present target, without any
    matching stratum, or without any applicable member are excluded from
    the metrics and reported as counts.
    """

    strata: tuple[tuple[str, MetricRow], ...]
    overall: MetricRow
    skipped_missing_target: int
    skipped_no_stratum: int

    def stratum(self, name: str) -> MetricRow:
        for n, row in self.strata:
            if n == name:
                return row
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "strata": {name: row.to_dict() for name, row in self.strata},
            "overall": self.overall.to_dict(),
            "skipped_missing_target": self.skipped_missing_target,
            "skipped_no_stratum": self.skipped_no_stratum,
        }


def _metric_row(y: np.ndarray, pred: np.ndarray, n_no_model: int) -> MetricRow:
    if not y.size:
        return MetricRow(0, None, None, n_no_model)
    mae = float(np.mean(np.abs(y - pred)))
    sst = float(np.sum((y - y.mean()) ** 2))
    sse = float(np.sum((y - pred) ** 2))
    if not np.isfinite([mae, sst, sse]).all():
        raise NonFinite("the errors or the target spread overflow float64")
    if sst == 0.0:
        return MetricRow(y.size, mae, None, n_no_model)
    return MetricRow(y.size, mae, 1.0 - sse / sst, n_no_model)


def evaluate(
    model: EnsembleModel, dataset: Dataset, strata: Sequence[SubsetSpec]
) -> StratifiedMetrics:
    """MAE and R-squared per availability stratum plus an overall row.

    R-squared uses each stratum's own target mean; a constant-target
    stratum reports it as undefined (None) while the MAE is still
    computed. The dataset's target must be the model's, and stratum
    names must not repeat. A scored row whose prediction is not finite,
    or metrics that overflow, raise NonFinite.
    """
    if dataset.target is None:
        raise ValueError("evaluate requires a dataset with a target")
    if dataset.target != model.target:
        raise ValueError(
            f"the model predicts {model.target!r}, not the target {dataset.target!r}"
        )
    names = [s.name for s in strata]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"repeated stratum name {name!r}")
    has_target = dataset.rows_with([dataset.target])
    # Each row goes to the first stratum, largest feature set first, whose
    # signals are all present.
    assigned = np.full(dataset.n_rows, -1)
    for spec in sorted(strata, key=lambda s: (-len(s.features), s.name)):
        if not spec.feature_set <= set(dataset.signals):
            continue
        match = has_target & (assigned < 0) & dataset.rows_with(spec.features)
        assigned[match] = names.index(spec.name)
    pred, fired = model.predict_dataset(dataset)
    no_model = ~fired.any(axis=1)
    overflow = np.flatnonzero(~no_model & ~np.isfinite(pred))
    if overflow.size:
        row = overflow[0]
        raise NonFinite(f"row {row}: the prediction {float(pred[row])} is not finite")
    y = dataset.column(dataset.target)

    rows = []
    all_rows = []
    for spec in strata:  # report in the caller's stratum order
        in_stratum = assigned == names.index(spec.name)
        scored = np.flatnonzero(in_stratum & ~no_model)
        n_no_model = int(np.count_nonzero(in_stratum & no_model))
        rows.append((spec.name, _metric_row(y[scored], pred[scored], n_no_model)))
        all_rows.append(scored)
    scored = np.concatenate([np.empty(0, dtype=np.intp), *all_rows])
    overall = _metric_row(
        y[scored], pred[scored], int(np.count_nonzero((assigned >= 0) & no_model))
    )
    return StratifiedMetrics(
        tuple(rows),
        overall,
        int(np.count_nonzero(~has_target)),
        int(np.count_nonzero(has_target & (assigned < 0))),
    )


def train_test_split_rows(
    n_rows: int, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pseudo-random row split; indices are returned sorted."""
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError("test_fraction must be within [0, 1]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    n_test = int(round(n_rows * test_fraction))
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return train, test


# --- persistence --------------------------------------------------------------

def model_to_dict(model: EnsembleModel) -> dict:
    return {
        "mode": model.mode,
        "target": model.target,
        "members": [
            {
                "name": m.name,
                "features": list(m.features),
                "learner": learner_to_dict(m.learner),
            }
            for m in model.members
        ],
    }


def model_from_dict(d: dict) -> EnsembleModel:
    """Inverse of ``model_to_dict``; any other document raises InputError."""
    try:
        docs = d["members"]
        target, *names = signal_names([d["target"]] + [m["name"] for m in docs])
        members = tuple(
            EnsembleMember(
                name, signal_names(m["features"]), learner_from_dict(m["learner"])
            )
            for name, m in zip(names, docs)
        )
        return EnsembleModel(d["mode"], target, members)
    except KeyError as exc:
        raise InputError(f"malformed model: missing field {exc}") from None
    except (TypeError, ValueError, DomainError) as exc:
        raise InputError(f"malformed model: {exc}") from None


def save_model(model: EnsembleModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> EnsembleModel:
    return model_from_dict(read_json(path, InputError, "malformed model"))
