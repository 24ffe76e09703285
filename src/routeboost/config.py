"""Run configuration: one JSON document merged with the CLI flags.

``load_run_config`` builds a ``RunConfig`` in one pass: the field
defaults, then the config file, then every flag whose value is not
None, then one value check. A flag's argparse ``dest`` is the name of
the ``RunConfig`` or ``LearnerConfig`` field it sets; repeatable flags
extend the file's list. Every failure is a ``ConfigError`` (exit 2).

Recognized keys (all optional unless a command needs them):

    data, target          input CSV path and target signal
    groups                {"group name": ["signal", ...]}
    segments              {"segment name": ["group name", ...]}
    strategy              "grouped" (the default) | "routes" | "auto"
    include_base_signals  bool, grouped strategy signal-inclusion option
    min_support           float, auto route detection threshold
    uncommon_policy       "drop" | "merge_common"
    learner               {"kind", "ridge_lambda", "tree_max_depth",
                           "tree_min_leaf", "standardize"}
    mode                  "boosting" | "bagging"
    seed                  int, drives the train/test split and generation
    test_fraction         float in [0, 1]
    coalesce              ["MERGED=SRC1,SRC2", ...]
    model_out, manifest_out, report_out, predictions_out, table_out
                          output paths used by the commands
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .data import is_integer, is_name_list, is_number, read_json
from .ensemble import ENSEMBLE_MODES
from .errors import ConfigError
from .learners import LearnerConfig
from .subsetting import StrategyOptions

@dataclass
class RunConfig:
    data: str | None = None
    target: str | None = None
    groups: dict[str, list[str]] | None = None
    segments: dict[str, list[str]] | None = None
    strategy: str | None = None  # None: not named, so StrategyOptions' default
    include_base_signals: bool = StrategyOptions.include_base_signals
    min_support: float = StrategyOptions.min_support
    uncommon_policy: str = StrategyOptions.uncommon_policy
    learner: dict[str, Any] = field(default_factory=dict)
    mode: str = "boosting"
    seed: int = 0
    test_fraction: float = 0.3
    coalesce: list[str] = field(default_factory=list)
    model_out: str | None = None
    manifest_out: str | None = None
    report_out: str | None = None
    predictions_out: str | None = None
    table_out: str | None = None

    def strategy_options(self) -> StrategyOptions:
        """The subsetting fields of the same names, checked."""
        options = {k: getattr(self, k) for k in StrategyOptions.__dataclass_fields__}
        if self.strategy is None:
            del options["strategy"]
        return StrategyOptions(**options)

    def learner_config(self) -> LearnerConfig:
        unknown = set(self.learner) - set(LearnerConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown learner options: {sorted(unknown)}")
        try:
            return LearnerConfig(**self.learner)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def check(self) -> None:
        """Raise ConfigError for a setting no command can run with."""
        if self.mode not in ENSEMBLE_MODES:
            raise ConfigError(
                f"mode must be one of {list(ENSEMBLE_MODES)}, got {self.mode!r}"
            )
        if not 0.0 <= self.test_fraction <= 1.0:
            raise ConfigError(
                f"test_fraction must be within [0, 1], got {self.test_fraction!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self.strategy_options()
        self.learner_config()


def load_run_config(
    path: str | Path | None, flags: Mapping[str, Any] | None = None
) -> RunConfig:
    """Defaults, then the file at ``path``, then the non-None ``flags``.

    Flags that name no RunConfig or LearnerConfig field are ignored.
    """
    config = RunConfig()
    if path is not None:
        doc = read_json(path, ConfigError, "malformed config")
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = set(doc) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        for key, value in doc.items():
            _check_type(path, key, value)
            setattr(config, key, value)
    for key, value in (flags or {}).items():
        if value is None:
            continue
        if key in LearnerConfig.__dataclass_fields__:
            config.learner[key] = value
        elif key in RunConfig.__dataclass_fields__:
            if isinstance(value, list):  # a repeatable flag extends the file's list
                value = getattr(config, key) + value
            setattr(config, key, value)
    config.check()
    return config


# Whether a JSON value fits a RunConfig or LearnerConfig field annotation.
_JSON_TYPES = {
    "str": lambda value: isinstance(value, str),
    "bool": lambda value: isinstance(value, bool),
    "int": is_integer,
    "float": is_number,
    "list[str]": is_name_list,
    "dict[str, Any]": lambda value: isinstance(value, dict),
    "dict[str, list[str]]": lambda value: isinstance(value, dict),
}


def _check_type(path, key: str, value: Any) -> None:
    """Raise ConfigError unless ``value`` fits the annotation of
    ``RunConfig.key``, and each known ``learner`` option its field's."""
    fields = [(RunConfig, key, value)]
    if key == "learner" and isinstance(value, dict):
        known = LearnerConfig.__dataclass_fields__
        fields += [(LearnerConfig, k, v) for k, v in value.items() if k in known]
    for owner, key, value in fields:
        kind = owner.__dataclass_fields__[key].type
        if value is None and kind.endswith(" | None"):
            continue
        if not _JSON_TYPES[kind.removesuffix(" | None")](value):
            raise ConfigError(f"{path}: {key!r} must be {kind}, got {value!r}")
        if kind.startswith("dict[str, list[str]]"):
            what = "group" if key == "segments" else "signal"
            for name, members in value.items():
                if not is_name_list(members):
                    raise ConfigError(
                        f"{path}: {key} {name!r} is not a list of {what} names"
                    )


def parse_coalesce(directive: str) -> tuple[str, list[str]]:
    """Parse "MERGED=SRC1,SRC2" into (merged, sources)."""
    if "=" not in directive:
        raise ConfigError(f"coalesce directive {directive!r} must look like NEW=A,B")
    merged, _, rest = directive.partition("=")
    sources = [s for s in rest.split(",") if s]
    if not merged or not sources:
        raise ConfigError(f"coalesce directive {directive!r} must look like NEW=A,B")
    return merged, sources
