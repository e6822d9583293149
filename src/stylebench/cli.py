"""Command-line entry point.

Subcommands: ``synth`` writes a generated dataset, ``stats`` prints the
descriptive tables, ``split`` materializes the temporal split, ``train``
fits and serializes one model, ``evaluate`` runs the full pipeline, and
``report`` re-renders tables from a canonical report.json.

Exit codes: 0 success, 1 usage, 2 data error, 3 internal error. Each
value flag sets the config key it is stored under, over the config
file's value. ``synth``, ``split``, ``train`` and ``evaluate`` write a
manifest beside their output: the command, its resolved config or split
boundary, and the digests of the files it read or wrote.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import typing
from datetime import datetime
from pathlib import Path

from . import als as als_mod
from . import forest as forest_mod
from .data import (
    Dataset,
    dataset_stats,
    format_timestamp,
    load_events,
    parse_timestamp,
    read_json_object,
    segment_users,
    sidecar_paths,
    temporal_split,
    write_events,
)
from .errors import DataError, InvalidReport, StylebenchError
from .harness import (
    CONFIG_KEYS,
    REPORT_FILES,
    REPORT_FORMATS,
    EvalConfig,
    EvaluationReport,
    check_forest_inputs,
    check_payload,
    fit_cb_forest,
    fit_factor_model,
    render_report,
    run_evaluation,
    typed_config_value,
)
from .metrics import GRADING_MODES
from .synth import SynthConfig, generate_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# flat config key -> SynthConfig field; the synth_segment_* keys fill
# segment_targets in (new, view, sale) order
_SYNTH_KEYS = {
    "synth_users": "n_users",
    "synth_items": "n_items",
    "synth_months": "months",
    "synth_boundary_month": "boundary_month",
    "synth_skew": "popularity_skew",
    "synth_sparsity": "target_sparsity",
    "synth_latent_dim": "latent_dim",
}
_SEGMENT_KEYS = ("synth_segment_new", "synth_segment_view", "synth_segment_sale")
_PATH_KEYS = {"data", "out"}
# every key a --config file may hold, whichever command reads it; a value
# flag's dest is one of them
_CONFIG_KEYS = CONFIG_KEYS.keys() | _SYNTH_KEYS.keys() | set(_SEGMENT_KEYS) | _PATH_KEYS


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse usage failures to exit code 1
        raise _UsageError(message)


def _settings(args) -> dict:
    """The run's flat settings: the ``--config`` file's keys, checked
    against every command's table, with each value flag given laid over
    the key it is stored under."""
    raw = {}
    if args.config is not None:
        p = Path(args.config)
        raw = read_json_object(p, "config")
        unknown = raw.keys() - _CONFIG_KEYS
        if unknown:
            raise DataError(f"config {p}: unknown keys {sorted(unknown)}")
        for key in raw.keys() & _PATH_KEYS:
            if not isinstance(raw[key], str):
                raise DataError(f"config {p}: key {key!r} must be str, got {raw[key]!r}")
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    return {**raw, **flags}


def _report_formats(text: str) -> list[str]:
    formats = [f.strip() for f in text.split(",") if f.strip()]
    unknown = set(formats) - set(REPORT_FORMATS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown report formats {sorted(unknown)}")
    if not formats:
        raise argparse.ArgumentTypeError("no report format given")
    return formats


def _synth_config(settings: dict) -> SynthConfig:
    """Generator config from the ``synth_*`` keys and ``seed`` of the
    settings."""
    hints = typing.get_type_hints(SynthConfig)
    try:
        given = {
            name: typed_config_value(key, settings[key], hints[name])
            for key, name in {**_SYNTH_KEYS, "seed": "seed"}.items()
            if key in settings
        }
        given["segment_targets"] = tuple(
            typed_config_value(key, settings[key], float) if key in settings else default
            for key, default in zip(_SEGMENT_KEYS, SynthConfig.segment_targets)
        )
        return SynthConfig(**given)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _eval_config(settings: dict, boundary: datetime) -> EvalConfig:
    given = {k: v for k, v in settings.items() if k in CONFIG_KEYS}
    try:
        return EvalConfig.from_dict({**given, "boundary": boundary})
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _out(value, is_dir: bool = True) -> Path:
    """The ``--out`` path, checked before any work: a directory, or for
    ``train`` a file, that may not yet exist but is not the other kind,
    and whose nearest existing ancestor is a directory."""
    path = Path(_require(value, "--out"))
    if path.exists():
        if path.is_dir() != is_dir:
            raise _UsageError(f"--out {path} is {'not ' if is_dir else ''}a directory")
    else:
        ancestor = next(p for p in path.parents if p.exists())
        if not ancestor.is_dir():
            raise _UsageError(f"--out {path}: {ancestor} is not a directory")
    return path


def _refuse_overwrite(settings: dict, source: str | None, written: list[Path]) -> None:
    """Refuse, before any input is read, a run that would write one of
    ``written`` over ``source`` (its config file, or the report ``report``
    renders), its ``--data`` file or one of that file's sidecars."""
    data = settings.get("data")
    read = [Path(source)] if source else []
    if data:
        read += [Path(data), *sidecar_paths(data)]
    resolved = {path.resolve() for path in read}
    for path in written:
        if path.resolve() in resolved:
            raise _UsageError(f"--out would write over the input file {path}")


def _inputs(settings: dict, config: str | None) -> tuple[Path, Dataset, datetime]:
    """Data path, dataset and split boundary of a data command, given its
    settings and config file. The boundary is the ``--boundary`` flag's
    (parsed to a datetime), else the config's, else the one the
    generator or split manifest next to the data file records."""
    data_path = Path(_require(settings.get("data"), "--data"))
    data = load_events(data_path)
    value, source = settings.get("boundary"), f"config {config}"
    if isinstance(value, datetime):
        return data_path, data, value
    manifest = data_path.parent / "manifest.json"
    if not value and manifest.exists():
        value = read_json_object(manifest, "manifest").get("boundary")
        source = f"manifest {manifest}"
    if not value:
        raise DataError(
            "no split boundary: pass --boundary, set it in the config, "
            "or keep the generator or split manifest next to the data file"
        )
    try:
        return data_path, data, parse_timestamp(typed_config_value("boundary", value, str))
    except ValueError as exc:
        raise DataError(f"{source}: {exc}") from None


def _write_manifest(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _input_digests(data_path: Path) -> dict:
    paths = [data_path, *(side for side in sidecar_paths(data_path) if side.exists())]
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    settings = _settings(args)
    cfg = _synth_config(settings)
    out_dir = _out(settings.get("out") or "synth_out")
    data = generate_dataset(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "interactions.csv"
    write_events(data, data_path)
    _write_manifest(
        out_dir / "manifest.json",
        {
            "command": "synth",
            "boundary": format_timestamp(cfg.boundary),
            "synth_config": dataclasses.asdict(cfg),
            "files": _input_digests(data_path),
        },
    )
    print(f"wrote {data.n_events} events to {data_path}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    _, data, boundary = _inputs(_settings(args), args.config)
    split = temporal_split(data, boundary)
    stats = dataset_stats(split, segment_users(split))
    print(f"boundary: {format_timestamp(boundary)}")
    for side, label in (("train", "train:"), ("test", "test: ")):
        s = stats[side]
        print(
            f"{label} users={s['users']} products={s['products']} "
            f"sales={s['sales']}({s['sales_pct']:.2f}%) "
            f"views={s['views']}({s['views_pct']:.2f}%) "
            f"unobserved={s['unobserved']}({s['unobserved_pct']:.1f}%)"
        )
    for name, seg_stats in stats["test"]["segments"].items():
        print(f"  {name}: {seg_stats['users']} ({seg_stats['pct']:.1f}%)")
    return EXIT_OK


def _cmd_split(args) -> int:
    settings = _settings(args)
    out_dir = _out(settings.get("out"))
    train_path, test_path = out_dir / "train.csv", out_dir / "test.csv"
    _refuse_overwrite(settings, args.config, [
        out_dir / "manifest.json", train_path, test_path,
        *sidecar_paths(train_path), *sidecar_paths(test_path),
    ])
    _, data, boundary = _inputs(settings, args.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    split = temporal_split(data, boundary)
    write_events(split.train, train_path)
    write_events(split.test, test_path)
    _write_manifest(
        out_dir / "manifest.json",
        {
            "command": "split",
            "boundary": format_timestamp(boundary),
            "files": {**_input_digests(train_path), **_input_digests(test_path)},
        },
    )
    print(
        f"train: {split.train.n_events} events, "
        f"test: {split.test.n_events} events"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    settings = _settings(args)
    out_path = _out(settings.get("out"), is_dir=False)
    # beside the model and named after it: a model written into the data
    # directory keeps the generator's manifest.json
    manifest_path = out_path.with_name(f"{out_path.stem}.manifest.json")
    _refuse_overwrite(settings, args.config, [out_path, manifest_path])
    data_path, data, boundary = _inputs(settings, args.config)
    cfg = _eval_config(settings, boundary)
    train = temporal_split(data, boundary).train
    if args.algo == "forest":
        check_forest_inputs(cfg, data, train)
    confidence, model = fit_factor_model(cfg, train)
    if args.algo == "forest":
        model = fit_cb_forest(cfg, train, confidence, model)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    (als_mod.save_model if args.algo == "als" else forest_mod.save_forest)(model, out_path)
    _write_manifest(
        manifest_path,
        {
            "command": "train",
            "algo": args.algo,
            "config": cfg.to_dict(),
            "inputs": _input_digests(data_path),
        },
    )
    print(f"wrote {args.algo} model to {out_path}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    settings = _settings(args)
    out_dir = _out(settings.get("out") or "eval_out")
    data_path, data, boundary = _inputs(settings, args.config)
    cfg = _eval_config(settings, boundary)
    report = run_evaluation(cfg, data)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = render_report(report, out_dir)
    _write_manifest(
        out_dir / "manifest.json",
        {
            "command": "evaluate",
            "boundary": format_timestamp(boundary),
            "config": cfg.to_dict(),
            "inputs": _input_digests(data_path),
        },
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    report_path = Path(args.report)
    out_dir = _out(args.out or report_path.parent)
    _refuse_overwrite({}, args.report, [
        out_dir / name for f in args.format for name in REPORT_FILES[f]
    ])
    payload = read_json_object(report_path, "report")
    try:
        check_payload(payload, f"report {report_path}")
    except InvalidReport as exc:
        raise DataError(str(exc)) from None
    written = render_report(EvaluationReport(payload), out_dir, formats=args.format)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _require(value, flag: str):
    if value in (None, ""):
        raise _UsageError(f"{flag} is required")
    return value


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="stylebench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *, seeded, data, out=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat JSON config file")
        if seeded:
            p.add_argument("--seed", type=int, help="master seed")
        if data:
            p.add_argument("--data", help="interactions file")
            p.add_argument("--boundary", type=parse_timestamp, help="RFC 3339 split boundary")
        if out:
            p.add_argument("--out", help=out)
        return p

    # a value flag's dest is the config key it sets
    p_synth = command("synth", "generate a synthetic dataset", seeded=True, data=False,
                      out="output directory")
    p_synth.add_argument("--users", dest="synth_users", type=int, help="user pool size")
    p_synth.add_argument("--items", dest="synth_items", type=int, help="catalog size")
    p_synth.add_argument("--skew", dest="synth_skew", type=float, help="popularity Zipf exponent")

    command("stats", "print descriptive statistics", seeded=False, data=True)
    command("split", "write the temporal split", seeded=False, data=True, out="output directory")

    p_train = command("train", "fit and serialize one model", seeded=True, data=True,
                      out="model output path")
    p_train.add_argument("--algo", choices=("als", "forest"), required=True)
    p_train.add_argument("--threads", type=int, help="worker cap")

    p_eval = command("evaluate", "run the full evaluation pipeline", seeded=True, data=True,
                     out="report output directory")
    p_eval.add_argument("--k", type=int, help="recommendation list length")
    p_eval.add_argument("--threads", type=int, help="worker cap")
    p_eval.add_argument("--grading", choices=GRADING_MODES)

    p_report = sub.add_parser("report", help="re-render tables from report.json")
    p_report.add_argument("--report", required=True, help="canonical report.json")
    p_report.add_argument("--out", help="output directory (default: alongside input)")
    p_report.add_argument("--format", type=_report_formats, default="csv,markdown")

    return parser


_COMMANDS = {
    "synth": _cmd_synth,
    "stats": _cmd_stats,
    "split": _cmd_split,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StylebenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
