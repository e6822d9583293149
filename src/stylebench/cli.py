"""Command-line entry point.

Subcommands: ``synth`` writes a generated dataset, ``stats`` prints the
descriptive tables, ``split`` materializes the temporal split, ``train``
fits and serializes one model, ``evaluate`` runs the full pipeline, and
``report`` re-renders tables from a canonical report.json.

Exit codes: 0 success, 1 usage, 2 data error, 3 internal error. Flags
override config-file values; every run writes a manifest with the
resolved config and input digests.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
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
    segment_users,
    sidecar_paths,
    temporal_split,
    write_events,
)
from .errors import DataError, StylebenchError
from .harness import (
    CONFIG_KEYS,
    REPORT_FORMATS,
    REPORT_SHAPE,
    EvalConfig,
    EvaluationReport,
    check_forest_inputs,
    fit_cb_forest,
    fit_factor_model,
    render_report,
    report_entries_shape,
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
# generator flag -> SynthConfig field
_SYNTH_FLAGS = {"users": "n_users", "items": "n_items", "skew": "popularity_skew", "seed": "seed"}
_PATH_KEYS = {"data", "out"}
# every key a --config file may hold, whichever command reads it
_CONFIG_KEYS = CONFIG_KEYS.keys() | _SYNTH_KEYS.keys() | set(_SEGMENT_KEYS) | _PATH_KEYS


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse usage failures to exit code 1
        raise _UsageError(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_config(path: str | None) -> dict:
    """A flat config file, its keys checked against every command's table."""
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise DataError(f"no such config file: {p}")
    raw = _read_object(p, "config")
    unknown = raw.keys() - _CONFIG_KEYS
    if unknown:
        raise DataError(f"config {p}: unknown keys {sorted(unknown)}")
    for key in raw.keys() & _PATH_KEYS:
        if not isinstance(raw[key], str):
            raise DataError(f"config {p}: key {key!r} must be str, got {raw[key]!r}")
    return raw


def _read_object(path: Path, what: str) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, say
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return raw


def _is_number(value) -> bool:
    """Whether ``value`` is an int or float (not a bool) that formats as a
    finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _lacks(node: dict, shape: dict) -> str | None:
    """Dotted path of the first key of ``shape`` that ``node`` lacks, or
    holds as a non-object where ``shape`` wants one (a dict) or as other
    than a finite number where it wants one (``float``)."""
    for key, sub in shape.items():
        if key not in node:
            return key
        if sub is float:
            if not _is_number(node[key]):
                return key
        elif sub is not None:
            if not isinstance(node[key], dict):
                return key
            inner = _lacks(node[key], sub)
            if inner:
                return f"{key}.{inner}"
    return None


def _report_lacks(payload: dict) -> str | None:
    """Dotted path of the first part of a report that render_report reads
    and ``payload`` lacks: a REPORT_SHAPE key, ``config.algorithms`` as a
    list of names, or a key of :func:`report_entries_shape`, each of the
    kind the shape wants."""
    lacking = _lacks(payload, REPORT_SHAPE)
    if lacking:
        return lacking
    algorithms = payload["config"]["algorithms"]
    if not isinstance(algorithms, list) or not all(isinstance(a, str) for a in algorithms):
        return "config.algorithms"
    return _lacks(payload, report_entries_shape(payload))


def _report_formats(text: str) -> list[str]:
    formats = [f.strip() for f in text.split(",") if f.strip()]
    unknown = set(formats) - set(REPORT_FORMATS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown report formats {sorted(unknown)}")
    return formats


def _synth_config(raw: dict, args) -> SynthConfig:
    """Generator config from the ``synth_*`` keys and ``seed`` of a flat
    config, overridden by flags."""
    hints = typing.get_type_hints(SynthConfig)
    try:
        given = {
            name: typed_config_value(key, raw[key], hints[name])
            for key, name in {**_SYNTH_KEYS, "seed": "seed"}.items()
            if key in raw
        }
        given["segment_targets"] = tuple(
            typed_config_value(key, raw[key], float) if key in raw else default
            for key, default in zip(_SEGMENT_KEYS, SynthConfig.segment_targets)
        )
        given.update(
            (name, getattr(args, flag))
            for flag, name in _SYNTH_FLAGS.items()
            if getattr(args, flag, None) is not None
        )
        return SynthConfig(**given)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _eval_config(raw: dict, args, boundary: datetime) -> EvalConfig:
    given = {k: v for k, v in raw.items() if k in CONFIG_KEYS}
    for key in ("seed", "k", "threads", "grading"):
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
    try:
        return EvalConfig.from_dict({**given, "boundary": boundary})
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _out(value, is_dir: bool = True) -> Path:
    """The ``--out`` path, checked before any work: a directory, or for
    ``train`` a file, that may not yet exist but is not the other kind."""
    path = Path(_require(value, "--out"))
    if path.exists() and path.is_dir() != is_dir:
        raise _UsageError(f"--out {path} is {'not ' if is_dir else ''}a directory")
    return path


def _inputs(args, raw: dict) -> tuple[Path, Dataset, datetime]:
    """Data path, dataset and split boundary of a data command, given its
    config. The boundary is the ``--boundary`` flag, else the config's,
    else the one the generator manifest next to the data file records."""
    data_path = Path(_require(args.data or raw.get("data"), "--data"))
    data = load_events(data_path)
    if args.boundary:
        return data_path, data, args.boundary
    value, source = raw.get("boundary"), f"config {args.config}"
    manifest = data_path.parent / "manifest.json"
    if not value and manifest.exists():
        value, source = _read_object(manifest, "manifest").get("boundary"), f"manifest {manifest}"
    if not value:
        raise DataError(
            "no split boundary: pass --boundary, set it in the config, "
            "or keep the generator manifest next to the data file"
        )
    try:
        return data_path, data, parse_timestamp(typed_config_value("boundary", value, str))
    except ValueError as exc:
        raise DataError(f"{source}: {exc}") from None


def _write_manifest(out_dir: Path, payload: dict) -> None:
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _input_digests(data_path: Path) -> dict:
    digests = {data_path.name: _sha256(data_path)}
    for side in sidecar_paths(data_path):
        if side.exists():
            digests[side.name] = _sha256(side)
    return digests


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    raw = _load_config(args.config)
    cfg = _synth_config(raw, args)
    out_dir = _out(args.out or raw.get("out") or "synth_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    data = generate_dataset(cfg)
    data_path = out_dir / "interactions.csv"
    write_events(data, data_path)
    _write_manifest(
        out_dir,
        {
            "command": "synth",
            "boundary": format_timestamp(cfg.boundary),
            "synth_config": dataclasses.asdict(cfg),
            "files": _input_digests(data_path),
        },
    )
    print(f"wrote {len(data.events)} events to {data_path}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    _, data, boundary = _inputs(args, _load_config(args.config))
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
    raw = _load_config(args.config)
    out_dir = _out(args.out or raw.get("out"))
    _, data, boundary = _inputs(args, raw)
    out_dir.mkdir(parents=True, exist_ok=True)
    split = temporal_split(data, boundary)
    write_events(split.train, out_dir / "train.csv")
    write_events(split.test, out_dir / "test.csv")
    print(
        f"train: {len(split.train.events)} events, "
        f"test: {len(split.test.events)} events"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    raw = _load_config(args.config)
    out_path = _out(args.out or raw.get("out"), is_dir=False)
    _, data, boundary = _inputs(args, raw)
    cfg = _eval_config(raw, args, boundary)
    if args.algo == "forest":
        check_forest_inputs(cfg, data)
    train = temporal_split(data, boundary).train
    confidence, model = fit_factor_model(cfg, train)
    if args.algo == "als":
        als_mod.save_model(model, out_path)
    else:
        forest_mod.save_forest(fit_cb_forest(cfg, train, confidence, model), out_path)
    print(f"wrote {args.algo} model to {out_path}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    raw = _load_config(args.config)
    out_dir = _out(args.out or raw.get("out") or "eval_out")
    data_path, data, boundary = _inputs(args, raw)
    cfg = _eval_config(raw, args, boundary)
    report = run_evaluation(cfg, data)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = render_report(report, out_dir)
    _write_manifest(
        out_dir,
        {
            "command": "evaluate",
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
    if not report_path.exists():
        raise DataError(f"no such report file: {report_path}")
    payload = _read_object(report_path, "report")
    lacking = _report_lacks(payload)
    if lacking:
        raise DataError(f"report {report_path} has no valid {lacking!r}")
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

    def common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--seed", type=int, help="master seed")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p_synth)
    p_synth.add_argument("--out", help="output directory")
    p_synth.add_argument("--users", type=int, help="user pool size")
    p_synth.add_argument("--items", type=int, help="catalog size")
    p_synth.add_argument("--skew", type=float, help="popularity Zipf exponent")

    p_stats = sub.add_parser("stats", help="print descriptive statistics")
    common(p_stats)
    p_stats.add_argument("--data", help="interactions file")
    p_stats.add_argument("--boundary", type=parse_timestamp, help="RFC 3339 split boundary")

    p_split = sub.add_parser("split", help="write the temporal split")
    common(p_split)
    p_split.add_argument("--data", help="interactions file")
    p_split.add_argument("--boundary", type=parse_timestamp, help="RFC 3339 split boundary")
    p_split.add_argument("--out", help="output directory")

    p_train = sub.add_parser("train", help="fit and serialize one model")
    common(p_train)
    p_train.add_argument("--data", help="interactions file")
    p_train.add_argument("--boundary", type=parse_timestamp, help="RFC 3339 split boundary")
    p_train.add_argument("--algo", choices=("als", "forest"), required=True)
    p_train.add_argument("--out", help="model output path")
    p_train.add_argument("--threads", type=int, help="worker cap")

    p_eval = sub.add_parser("evaluate", help="run the full evaluation pipeline")
    common(p_eval)
    p_eval.add_argument("--data", help="interactions file")
    p_eval.add_argument("--boundary", type=parse_timestamp, help="RFC 3339 split boundary")
    p_eval.add_argument("--out", help="report output directory")
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
