"""Command-line interface.

Subcommands: analyze, subset, train, predict, evaluate, generate, and
benchmark. Exit codes: 0 success, 1 domain error (e.g. boosting subsets
without a common base), 2 input/config error, 3 internal error (a fault
in routeboost). All randomness flows from --seed
(default 0); reruns with the same inputs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    always_available_signals,
    pattern_summary,
    route_frequencies,
)
from .benchmark import benchmark_learner_config, run_benchmark, train_proposed
from .config import RunConfig, load_run_config, parse_coalesce
from .data import (
    Dataset,
    coalesce_signals,
    is_name_list,
    load_dataset,
    load_table,
    read_json,
    unique_rows,
    write_csv,
    write_json,
)
from .ensemble import evaluate, load_model, save_model
from .errors import DomainError, InputError, InvalidLayout
from .subsetting import (
    SubsetSpec,
    build_subset_specs,
    resolve_groups,
    subset_rows,
)
from .synthgen import GenSpec, default_layout, generate, layout_from_dict


def _load_input(config: RunConfig, need_target: bool = True) -> Dataset:
    if not config.data:
        raise InputError("no input data file given (use --data or the config)")
    if need_target:
        if not config.target:
            raise InputError("no target signal given (use --target or the config)")
        dataset = load_dataset(config.data, config.target)
    else:
        dataset = load_table(config.data)
    for directive in config.coalesce:
        merged, sources = parse_coalesce(directive)
        dataset = coalesce_signals(dataset, merged, sources)
    return dataset


def _spec_manifest(dataset: Dataset, specs: list[SubsetSpec]) -> list[dict]:
    return [
        {
            "name": s.name,
            "features": list(s.features),
            "n_rows": int(subset_rows(dataset, s).size),
        }
        for s in specs
    ]


def _strata_from_manifest(manifest) -> list[SubsetSpec]:
    """Strata from a subset manifest: a list of {"name", "features"} objects."""
    if not isinstance(manifest, list):
        raise InputError("malformed strata manifest: expected a list of subsets")
    strata = []
    for entry in manifest:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and is_name_list(entry.get("features"))
        ):
            raise InputError(
                "malformed strata manifest: each entry needs a name and a list "
                f"of signal names, got {entry!r}"
            )
        try:
            strata.append(SubsetSpec(entry["name"], tuple(entry["features"])))
        except ValueError as exc:
            raise InputError(f"malformed strata manifest: {exc}") from None
    return strata


# --- subcommands -----------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, vars(args))
    dataset = _load_input(config)
    groups = resolve_groups(dataset, config.groups)
    report = {
        "n_rows": dataset.n_rows,
        "signals": list(dataset.signals),
        "target": dataset.target,
        "patterns": [
            {"signals": sorted(p.present), "count": p.count}
            for p in pattern_summary(dataset)
        ],
        "groups": [{"name": g.name, "members": list(g.members)} for g in groups],
        "always_available": sorted(always_available_signals(dataset)),
        "routes": [
            {"groups": sorted(r.groups_present), "count": r.count}
            for r in route_frequencies(dataset, groups)
        ],
    }

    print(f"rows: {report['n_rows']}  signals: {len(report['signals'])}")
    print("\navailability patterns (count desc):")
    for p in report["patterns"]:
        print(f"  {p['count']:>7}  {{{', '.join(p['signals'])}}}")
    print("\nsignal groups:")
    for g in report["groups"]:
        print(f"  {g['name']}: {', '.join(g['members'])}")
    print(f"\nalways available: {{{', '.join(report['always_available'])}}}")
    print("\nroute frequencies (count desc):")
    for r in report["routes"]:
        print(f"  {r['count']:>7}  {{{', '.join(r['groups']) or '<none>'}}}")
    if config.report_out:
        write_json(config.report_out, report)
    return 0


def cmd_subset(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, vars(args))
    dataset = _load_input(config)
    specs, _ = build_subset_specs(dataset, config.strategy_options())
    manifest = _spec_manifest(dataset, specs)
    for entry in manifest:
        print(
            f"{entry['name']}: {entry['n_rows']} rows x "
            f"{len(entry['features'])} features ({', '.join(entry['features'])})"
        )
    if config.manifest_out:
        write_json(config.manifest_out, manifest)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, vars(args))
    dataset = _load_input(config)
    specs, _ = build_subset_specs(dataset, config.strategy_options())
    learner = config.learner_config()
    model = train_proposed(dataset, specs, learner, config.mode)
    manifest = _spec_manifest(dataset, specs)
    for entry in manifest:
        print(f"member subset {entry['name']}: {entry['n_rows']} training rows")
    if not config.model_out:
        raise InputError("no model output path (use --model-out or the config)")
    save_model(model, config.model_out)
    print(
        f"saved {config.mode} model with {len(model.members)} members "
        f"to {config.model_out}"
    )
    if config.manifest_out:
        write_json(config.manifest_out, manifest)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, vars(args))
    model = load_model(args.model)
    table = _load_input(config, need_target=False)
    out = config.predictions_out
    if not out:
        raise InputError("no predictions output path (use --out or the config)")
    values, fired = model.predict_dataset(table)
    scored = fired.any(axis=1)
    # The members and reason cells of each fired pattern, once per pattern.
    first, inverse = unique_rows(fired)
    names = [m.name for m in model.members]
    cells = np.empty((first.size, 2), dtype=object)
    for k, row_fired in enumerate(fired[first].tolist()):
        if any(row_fired):
            cells[k] = (",".join(n for n, f in zip(names, row_fired) if f), "")
        else:
            cells[k] = ("", "no-applicable-model")
    predictions = np.array(list(map(repr, values.tolist())), dtype=object)
    predictions[~scored] = ""
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["prediction", "members", "reason"])
        writer.writerows(zip(predictions, *cells[inverse].T))
    n_ok = int(np.count_nonzero(scored))
    print(f"predicted {n_ok}/{table.n_rows} rows -> {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, vars(args))
    model = load_model(args.model)
    config.target = config.target or model.target
    dataset = _load_input(config)
    if dataset.target != model.target:
        raise InputError(
            f"the model predicts {model.target!r}, not the target {dataset.target!r}"
        )
    if args.strata:
        doc = read_json(args.strata, InputError, "malformed strata manifest")
        strata = _strata_from_manifest(doc)
    else:
        strata = [SubsetSpec(m.name, m.features) for m in model.members]
    try:
        metrics = evaluate(model, dataset, strata)
    except ValueError as exc:  # repeated stratum names
        raise InputError(f"malformed strata manifest: {exc}") from None

    names = [name for name, _ in metrics.strata] + ["overall"]
    rows = [row for _, row in metrics.strata] + [metrics.overall]
    width = max(10, max(len(n) for n in names) + 2)
    print("".ljust(8) + "".join(n.title().rjust(width) for n in names))
    cells = [r.cells() + (str(r.n),) for r in rows]
    for k, label in enumerate(("MAE", "R2", "n")):
        print(label.ljust(8) + "".join(c[k].rjust(width) for c in cells))
    print(
        f"skipped: {metrics.skipped_missing_target} missing target, "
        f"{metrics.skipped_no_stratum} without stratum, "
        f"{metrics.overall.n_no_model} without applicable model"
    )
    if config.report_out:
        write_json(config.report_out, metrics.to_dict())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_run_config(None, vars(args))
    if args.layout:
        doc = read_json(args.layout, InvalidLayout, "malformed layout document")
        layout = layout_from_dict(doc)
    else:
        layout = default_layout()
    dataset = generate(GenSpec(layout, args.rows, config.seed))
    write_csv(dataset, config.data)
    print(f"wrote {dataset.n_rows} rows x {len(dataset.signals)} signals to {config.data}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, vars(args))
    if args.synthetic:
        layout = default_layout()
        dataset = generate(GenSpec(layout, args.rows, config.seed))
        if config.segments is None and config.strategy is None:
            # Neither a flag nor the config names a strategy: route segments
            # straight from the layout, one group per unit.
            config.strategy = "routes"
            config.groups = {
                u.name: [s.name for s in u.signals] for u in layout.units
            }
            config.segments = {r.name: list(r.units) for r in layout.routes}
    else:
        dataset = _load_input(config)

    learner = benchmark_learner_config(**config.learner)
    report = run_benchmark(
        dataset,
        config.strategy_options(),
        learner,
        mode=config.mode,
        seed=config.seed,
        test_fraction=config.test_fraction,
    )
    print(report.table())
    if config.report_out:
        write_json(config.report_out, report.to_dict())
    if config.table_out:
        Path(config.table_out).write_text(report.table() + "\n", encoding="utf-8")
    return 0


# --- parser ------------------------------------------------------------------


def _add_common_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config; flags override its fields")
    p.add_argument("--data", help="input CSV file")
    p.add_argument("--target", help="target signal name")
    p.add_argument(
        "--coalesce",
        action="append",
        metavar="NEW=A,B",
        help="fuse interchangeable signals before any analysis (repeatable)",
    )


def _add_strategy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=["grouped", "routes", "auto"])
    p.add_argument(
        "--group-signals-only",
        action="store_const",
        const=False,
        dest="include_base_signals",
        help="grouped strategy: subsets use only the group's own signals",
    )
    p.add_argument("--min-support", type=float)
    p.add_argument("--uncommon-policy", choices=["drop", "merge_common"])


def _add_learner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learner", dest="kind", choices=["mean", "ridge", "tree"])
    p.add_argument("--ridge-lambda", type=float)
    p.add_argument("--tree-max-depth", type=int)
    p.add_argument("--tree-min-leaf", type=int)
    p.add_argument("--standardize", action="store_const", const=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routeboost",
        description="Route-aware ensemble regression for data with systematic missing values",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="summarize missingness structure")
    _add_common_data_flags(p)
    p.add_argument("--out", dest="report_out", help="write the JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("subset", help="build subset specs and report them")
    _add_common_data_flags(p)
    _add_strategy_flags(p)
    p.add_argument(
        "--out", dest="manifest_out", help="write the subset manifest (JSON) here"
    )
    p.set_defaults(func=cmd_subset)

    p = sub.add_parser("train", help="train an ensemble model")
    _add_common_data_flags(p)
    _add_strategy_flags(p)
    _add_learner_flags(p)
    p.add_argument("--mode", choices=["boosting", "bagging"])
    p.add_argument("--model-out")
    p.add_argument("--manifest-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict rows with a saved model")
    _add_common_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", dest="predictions_out", help="write predictions (CSV) here")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="stratified MAE/R2 of a saved model")
    _add_common_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--strata", help="subset manifest defining the strata")
    p.add_argument("--out", dest="report_out", help="write metrics JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="generate a synthetic plant dataset")
    p.add_argument("--out", dest="data", required=True)
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--layout", help="JSON layout file (default: built-in plant)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "benchmark", help="compare the ensemble against the complete-case baseline"
    )
    _add_common_data_flags(p)
    _add_strategy_flags(p)
    _add_learner_flags(p)
    p.add_argument("--mode", choices=["boosting", "bagging"])
    p.add_argument("--synthetic", action="store_true", help="use generated plant data")
    p.add_argument("--rows", type=int, default=10000)
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--out-json", dest="report_out")
    p.add_argument("--out-table", dest="table_out")
    p.set_defaults(func=cmd_benchmark)

    for sp in sub.choices.values():
        sp.add_argument("--seed", type=int, help="seed for splits and generation")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Non-finite results are reported by the checks that find them,
        # not by NumPy warnings on the way.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
