"""stylebench benchmark: the ``synth`` + ``evaluate`` user path, end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload default --seed 42 --seconds 55 --trace 0

One run of a workload:

1. Set-up: for each of ``DATASETS`` seeds (``--seed`` first), write the
   workload's config JSON and run ``stylebench synth`` (interactions CSV,
   user/item sidecars, manifest), ``SETUP_REPS`` times in one fresh
   process. ``setup_s`` is the median over all reps.
2. Evaluate: run ``stylebench evaluate`` (load, ``run_evaluation``, report
   rendering, manifest) on the datasets in turn, each time in a fresh
   process, until ``--seconds`` are used up (at least once per dataset).
   Every report is validated and must be byte-identical to the other
   reports of its dataset. ``evaluate_s`` is the median over all evaluates.
3. With ``--trace 1``, one more evaluate runs on the ``--seed`` dataset
   with spans recorded around each layer call (see ``child.py``). Its
   per-layer self times are printed as a table, and the per-layer metrics
   replace the end-to-end ones in the result line.

The host is a few cores of a shared machine whose speed swings by up to
1.6x over tens of seconds. So each set-up rep and each evaluate is
bracketed by a fixed calibration workload (``child.calibrate``), and its
wall time is scaled to a host on which that workload takes
``REFERENCE_CAL_S``: ``wall * REFERENCE_CAL_S / mean(calibration before,
calibration after)``. ``evaluate_s`` and ``setup_s`` are medians of these
scaled times. A change to the program moves them exactly as it moves wall
time; the raw wall medians are printed alongside. Per-layer times are raw
wall times of the one traced evaluate.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` evaluate runs, and ``metrics``. Working files
go to ``.bench_run/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import report_problems, scored_pairs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Datasets generated per run, from seeds --seed, --seed + SEED_STRIDE, ...;
# evaluates go round them, so one seed's luck of the draw (forest size,
# candidate items) moves a run's median less.
DATASETS = 3
SEED_STRIDE = 100_000
SETUP_REPS = 2  # per dataset
MIN_EVALUATES = DATASETS
# seconds the calibration workload takes on the reference host
REFERENCE_CAL_S = 0.25
DEADLINE_S = 170.0  # a run must exit within 180 s

END_TO_END = {
    "evaluate_s": "s",
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "peak_rss_mb": "MiB",
}
# name -> unit; a name ending in "_s" is the self time of the span without it
PER_LAYER = {
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "data.load_s": "s",
    "data.split_s": "s",
    "data.events": "count",
    "als.confidence_s": "s",
    "als.fit_s": "s",
    "als.nnz": "count",
    "als.sweeps": "count",
    "forest.augment_s": "s",
    "forest.fit_s": "s",
    "forest.rows": "count",
    "forest.nodes": "count",
    "recommend.mp_s": "s",
    "recommend.cf_s": "s",
    "recommend.cb_s": "s",
    "recommend.cb_pairs": "count",
    "metrics.relevance_s": "s",
    "metrics.ndcg_s": "s",
    "metrics.ad_s": "s",
    "metrics.rp_s": "s",
    "metrics.bootstrap_draws": "count",
    "cli.render_s": "s",
    "harness.unattributed_s": "s",
}


class BenchError(Exception):
    pass


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """Wall seconds scaled to the reference host's speed."""
    return seconds * 2 * REFERENCE_CAL_S / (cal_before + cal_after)


class Child:
    """Runs ``child.py`` steps with capped BLAS threads inside one deadline."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, *args: str) -> tuple[dict | None, str]:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=self.env, text=True, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            # the session holds the child and any forest pool workers
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, "timed out"
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            return None, f"exit code {proc.returncode}: {tail[0]}"
        return json.loads(out.strip().splitlines()[-1]), ""


def child_env(threads: int) -> tuple[dict, dict]:
    """Environment for the program: ``src`` importable, BLAS threads capped.

    Forest pool workers x BLAS threads stays within the cores available.
    """
    nproc = len(os.sched_getaffinity(0))
    blas_threads = max(1, nproc // threads)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env, {"nproc": nproc, "pool_workers": threads, "blas_threads": blas_threads}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum per span name of duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s, covered in zip(spans, child_time):
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"] - covered
    return totals


def layer_metrics(setup_layers: list[dict], trace: dict) -> dict:
    """Per-layer metrics of the traced run; the trace's root span is "evaluate".

    ``harness.unattributed_s`` is the root's self time: the program's own
    code between the layer calls, measured in the same run as the layers.
    """
    spans = self_times(trace["spans"])
    spans["harness.unattributed"] = spans.pop("evaluate")
    for name in ("synth.generate", "synth.write"):
        spans[name] = statistics.median(rep.get(name, 0.0) for rep in setup_layers)
    return {
        metric: spans.get(metric[:-2], 0.0) if unit == "s" else trace["counts"].get(metric, 0)
        for metric, unit in PER_LAYER.items()
    }


def print_layer_table(values: dict, trace: dict, wall_s: float) -> None:
    present = {s["name"] for s in trace["spans"]} | set(trace["counts"])
    present |= {"synth.generate", "synth.write", "harness.unattributed"}
    traced = sum(s["end"] - s["start"] for s in trace["spans"] if s["name"] == "evaluate")
    print(f"traced evaluate {traced:.3f}s with {len(trace['spans'])} spans; "
          f"untraced median {wall_s:.3f}s wall")
    print(f"{'per-layer metric':<26}{'value':>14}  {'unit':<6}share of the traced evaluate")
    for metric, unit in PER_LAYER.items():
        if (metric[:-2] if unit == "s" else metric) not in present:
            print(f"{metric:<26}{'absent':>14}  {unit}")
            continue
        value = values[metric]
        shown = f"{value:.4f}" if unit == "s" else str(value)
        share = ""
        if unit == "s" and not metric.startswith("synth."):
            share = f"{100 * value / traced:.1f}%"
        print(f"{metric:<26}{shown:>14}  {unit:<6}{share}")


def run(name: str, config: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    if not (ROOT / "src" / "stylebench" / "__init__.py").is_file():
        raise BenchError(f"no stylebench sources under {ROOT / 'src'}")
    work = ROOT / ".bench_run" / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env, host = child_env(int(config.get("threads", 1)))
    child = Child(env, time.monotonic() + DEADLINE_S)

    datasets = []  # (seed, config path, interactions CSV), the --seed one first
    setups = []
    for j in range(DATASETS):
        data_seed = seed + j * SEED_STRIDE
        config_path = work / f"config-{data_seed}.json"
        data_dir = work / f"data-{data_seed}"
        setup, err = child.run("synth", json.dumps({**config, "seed": data_seed}, indent=2),
                               str(config_path), str(data_dir), str(SETUP_REPS),
                               *(["--trace"] if trace else []))
        if setup is None:
            raise BenchError(f"set-up of seed {data_seed} failed: {err}")
        if any(d != setup["digests"][0] for d in setup["digests"]):
            raise BenchError("set-up is not deterministic: generated files differ between reps")
        datasets.append((data_seed, str(config_path), str(data_dir / "interactions.csv")))
        setups.append(setup)
    print(json.dumps({"workload": name, "seed": seed, "dataset_seeds": [d[0] for d in datasets],
                      **host, **setups[0]["versions"]}))

    runs: list[bool] = []  # one entry per evaluate run: passed or failed
    reference: dict[int, str] = {}  # dataset seed -> digest of its first report
    pairs: dict[int, int] = {}  # dataset seed -> scored (user, candidate) pairs

    def evaluate(dataset: tuple, out_dir: Path, *extra: str) -> dict | None:
        data_seed, config_path, data = dataset
        result, err = child.run("evaluate", config_path, data, str(out_dir), *extra)
        if result is not None:
            report = (out_dir / "report.json").read_bytes()
            digest = hashlib.sha256(report).hexdigest()
            payload = json.loads(report)
            problems = report_problems(payload)
            first = reference.setdefault(data_seed, digest)
            pairs.setdefault(data_seed, scored_pairs(payload))
            if digest != first:
                problems.append(f"report.json {digest} differs from {first}")
            if problems:
                err = "; ".join(problems[:5])
                result = None
        runs.append(result is not None)
        if result is not None:
            result["scaled"] = scaled(result["seconds"], *result["calibration"])
        status = (f"{result['scaled']:.3f}s scaled, {result['seconds']:.3f}s wall, "
                  f"calibration {result['calibration'][0]:.3f}/{result['calibration'][1]:.3f}s"
                  if result else f"FAILED: {err}")
        print(f"evaluate {len(runs)} seed {data_seed}{' (traced)' if extra else ''}: {status}")
        return result

    timed: list[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        result = evaluate(datasets[len(runs) % DATASETS], work / f"eval-{len(runs)}")
        if result is not None:
            timed.append(result)
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_EVALUATES and elapsed + last > seconds:
            break
        if child.remaining() < 3 * last:
            break
    if not timed:
        raise BenchError("every evaluate run failed")
    evaluate_s = statistics.median(r["scaled"] for r in timed)
    setup_s = statistics.median(
        scaled(t, s["calibration"][i], s["calibration"][i + 1])
        for s in setups for i, t in enumerate(s["seconds"])
    )
    wall_s = statistics.median(r["seconds"] for r in timed)
    print(f"medians: evaluate {evaluate_s:.3f}s scaled, {wall_s:.3f}s wall; "
          f"set-up {setup_s:.3f}s scaled, "
          f"{statistics.median(t for s in setups for t in s['seconds']):.3f}s wall")

    if trace:
        trace_path = work / "trace.json"
        run_id = f"{name}-seed{seed}-{os.getpid()}"
        traced = evaluate(datasets[0], work / "traced", "--trace", str(trace_path), name, run_id)
        if traced is None:
            raise BenchError("traced evaluate run failed")
        spans = json.loads(trace_path.read_text(encoding="utf-8"))
        metrics = layer_metrics([rep for s in setups for rep in s["layers"]], spans)
        print_layer_table(metrics, spans, wall_s)
        units = PER_LAYER
    else:
        metrics = {
            "evaluate_s": evaluate_s,
            "setup_s": setup_s,
            "pairs_per_s": statistics.mean(pairs.values()) / evaluate_s,
            "peak_rss_mb": statistics.median(r["peak_rss_kib"] for r in timed) / 1024,
        }
        units = END_TO_END
    for data_seed, digest in reference.items():
        print(f"report_sha256 seed {data_seed}: {digest}")
    print(f"{len(timed)} timed evaluate runs")
    failed = runs.count(False)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
