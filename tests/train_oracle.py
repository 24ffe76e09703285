"""Reference trainers: one hand-written member loop per ensemble kind.

``routeboost.ensemble`` trains every ensemble through one shared member
loop. Each trainer there must build exactly the model these loops build
(``model_to_dict`` compared with ``==``) and raise the same exception
type on the same bad input. ``materialize`` is the reference row
selection the loops were written against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from routeboost.data import Dataset
from routeboost.ensemble import EnsembleMember, EnsembleModel
from routeboost.errors import (
    EmptySubset,
    EmptyTrainingSet,
    NotNested,
    UnknownSignal,
    UnknownTarget,
)
from routeboost.learners import LearnerConfig, fit
from routeboost.subsetting import SubsetSpec, validate_nested_chain


def materialize(dataset: Dataset, spec: SubsetSpec) -> Dataset:
    """Rows where every feature and the target are present.

    The result contains zero missing cells. Raises EmptySubset when no
    row qualifies; an empty subset is reported, never silently used.
    """
    if dataset.target is None:
        raise UnknownTarget("materialize requires a dataset with a target")
    for s in spec.features:
        if s not in dataset.signals:
            raise UnknownSignal(f"subset {spec.name!r}: unknown signal {s!r}")
    wanted = set(spec.features) | {dataset.target}
    idx = [dataset.index(s) for s in dataset.signals if s in wanted]
    rows = np.flatnonzero((~np.isnan(dataset.values[:, idx])).all(axis=1))
    if rows.size == 0:
        raise EmptySubset(f"subset {spec.name!r} has no complete rows")
    return dataset.project(wanted, rows)


def _training_matrix(sub: Dataset, features: Sequence[str]) -> np.ndarray:
    return np.column_stack([sub.column(f) for f in features])


def _prefix_predictions(
    members: Sequence[EnsembleMember], sub: Dataset
) -> np.ndarray:
    """Summed predictions of already-fitted members on a materialized subset."""
    total = np.zeros(sub.n_rows)
    for member in members:
        X = _training_matrix(sub, member.features)
        total += np.array(
            [member.learner.predict_one(X[i]) for i in range(sub.n_rows)]
        )
    return total


def train_boosting(
    dataset: Dataset, specs: Sequence[SubsetSpec], config: LearnerConfig
) -> EnsembleModel:
    """Fit a residual chain over strictly nested subsets.

    Members are ordered narrowest first; member k >= 1 is fit on its
    subset against the target minus the summed predictions of members
    0..k-1 (all evaluable there because of the nesting). Member 0 keeps
    the role name "base"; residual members keep their subset names.
    """
    chain = validate_nested_chain(specs)
    members: list[EnsembleMember] = []
    for k, spec in enumerate(chain):
        sub = materialize(dataset, spec)
        X = _training_matrix(sub, spec.features)
        y = sub.column(sub.target).copy()
        if members:
            y -= _prefix_predictions(members, sub)
        learner = fit(config, X, y, features=spec.features)
        name = "base" if k == 0 else spec.name
        members.append(EnsembleMember(name, spec.features, learner))
    return EnsembleModel("boosting", dataset.target, tuple(members))


def train_boosting_branched(
    dataset: Dataset, specs: Sequence[SubsetSpec], config: LearnerConfig
) -> EnsembleModel:
    """Base plus one residual member per branch.

    The narrowest spec (by size, then name) is the base and must lie
    inside every other spec. Each branch is fit against the summed
    predictions of every earlier member whose features are all among
    its own: exactly the earlier members that fire at each of its rows.
    """
    if not specs:
        raise ValueError("branched boosting needs at least one subset")
    ordered = sorted(specs, key=lambda s: (len(s.features), s.name))
    base_spec, branch_specs = ordered[0], ordered[1:]
    for spec in branch_specs:
        if not base_spec.feature_set <= spec.feature_set:
            raise NotNested(
                f"branch {spec.name!r} does not contain the base features"
            )
    base_sub = materialize(dataset, base_spec)
    base_learner = fit(
        config,
        _training_matrix(base_sub, base_spec.features),
        base_sub.column(base_sub.target),
        features=base_spec.features,
    )
    members = [EnsembleMember("base", base_spec.features, base_learner)]
    for spec in branch_specs:
        sub = materialize(dataset, spec)
        inside = [m for m in members if m.feature_set <= spec.feature_set]
        y = sub.column(sub.target) - _prefix_predictions(inside, sub)
        learner = fit(
            config, _training_matrix(sub, spec.features), y, features=spec.features
        )
        members.append(EnsembleMember(spec.name, spec.features, learner))
    return EnsembleModel("boosting", dataset.target, tuple(members))


def train_bagging(
    dataset: Dataset, specs: Sequence[SubsetSpec], config: LearnerConfig
) -> EnsembleModel:
    """Independent members, one per subset, each predicting the target."""
    if not specs:
        raise ValueError("bagging needs at least one subset")
    members = []
    for spec in specs:
        sub = materialize(dataset, spec)
        learner = fit(
            config,
            _training_matrix(sub, spec.features),
            sub.column(sub.target),
            features=spec.features,
        )
        members.append(EnsembleMember(spec.name, spec.features, learner))
    return EnsembleModel("bagging", dataset.target, tuple(members))


def complete_case_rows(dataset: Dataset) -> np.ndarray:
    """Rows with every signal (target included) present."""
    return np.flatnonzero((~np.isnan(dataset.values)).all(axis=1))


def train_conventional(dataset: Dataset, config: LearnerConfig) -> EnsembleModel:
    """Complete-case baseline: listwise deletion, one model on all signals."""
    if dataset.target is None:
        raise ValueError("train_conventional requires a dataset with a target")
    rows = complete_case_rows(dataset)
    if rows.size == 0:
        raise EmptyTrainingSet("no row is free of missing values")
    features = tuple(s for s in dataset.signals if s != dataset.target)
    sub = dataset.project(dataset.signals, rows)
    learner = fit(
        config,
        _training_matrix(sub, features),
        sub.column(dataset.target),
        features=features,
    )
    member = EnsembleMember("conventional", features, learner)
    return EnsembleModel("bagging", dataset.target, (member,))
