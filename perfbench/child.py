"""One benchmark step in a fresh process: set-up or one evaluation.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py synth CONFIG_TEXT CONFIG OUT_DIR REPS [--trace]
    python3 perfbench/child.py evaluate CONFIG DATA OUT_DIR [--trace TRACE_JSON WORKLOAD RUN_ID]

Both steps go through ``stylebench.cli.dispatch``, the code path of the
``stylebench synth`` and ``stylebench evaluate`` commands, and print one
JSON line of results last. With tracing on, the step wraps the public
functions the pipeline calls, one layer per ``src/stylebench`` module,
and records a span around each call plus counts taken from the call's
arguments and results. The program itself is unchanged; its own glue
code is what the spans do not cover.

Every timed call is bracketed by ``calibrate()``, a fixed piece of work
whose duration tells how fast the host runs at that moment; ``run.py``
uses it to take the shared host's speed swings out of the timings.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager


def _grow_tree(x, y, idx, depth: int) -> int:
    """Nodes of a regression tree grown by exhaustive split search."""
    if depth >= 7 or idx.size < 100:
        return 1
    import numpy as np

    best = (-1.0, 0, 0.0)
    for f in range(0, x.shape[1], 2):
        col = x[idx, f]
        order = np.argsort(col, kind="stable")
        cs = np.cumsum(y[idx][order])
        n = np.arange(1, idx.size)
        score = cs[:-1] ** 2 / n + (cs[-1] - cs[:-1]) ** 2 / (idx.size - n)
        j = int(np.argmax(score))
        if score[j] > best[0]:
            best = (float(score[j]), f, col[order[j]])
    go_left = x[idx, best[1]] <= best[2]
    left, right = idx[go_left], idx[~go_left]
    if left.size == 0 or right.size == 0:
        return 1
    return 1 + _grow_tree(x, y, left, depth + 1) + _grow_tree(x, y, right, depth + 1)


def calibrate() -> float:
    """Seconds taken by a fixed mix of work shaped like the program's.

    Three parts, each matched to what the workloads spend time on: growing
    a small regression tree (forest fit), sorting, prefix sums and gathers
    on a cache-sized array with a plain Python loop (scoring and metrics),
    and dict and set bookkeeping (the harness). Together they follow the
    host's speed swings closer than any one of them. The input is the
    same on every call, so only the host's speed moves the result.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.random((20_000, 8)), rng.random(20_000)
    v = rng.random(1 << 16)
    gather = rng.integers(0, v.size, v.size)
    start = time.perf_counter()
    for _ in range(2):
        _grow_tree(x, y, np.arange(y.size), 0)
    for _ in range(5):
        order = np.argsort(v, kind="stable")
        np.cumsum(v[order])
        v[gather].sum()
        acc = 0
        for i in range(60_000):
            acc += i & 7
    seen, tally = set(range(50_000)), {}
    for i in range(600_000):
        if i in seen:
            tally[i % 9973] = tally.get(i % 9973, 0) + 1
    sorted(tally.items())
    return time.perf_counter() - start


class Tracer:
    """Spans and counts kept in memory, written out when the step ends."""

    def __init__(self, workload: str = "", run_id: str = ""):
        self.workload = workload
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, owner, attr: str, span: str | None, counter=None) -> None:
        """Replace ``owner.attr`` by a version that records a span and/or a count.

        ``counter`` is ``(count_name, fn(result, args, kwargs) -> int)``.
        A missing attribute raises, so a renamed layer call fails the
        traced run instead of silently dropping out of the trace.
        """
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            if span is None:
                out = inner(*args, **kwargs)
            else:
                with self.span(span):
                    out = inner(*args, **kwargs)
            if counter is not None:
                self.count(counter[0], counter[1](out, args, kwargs))
            return out

        setattr(owner, attr, traced)


# harness stage name -> layer span; stages not listed are harness glue
_STAGE_SPANS = {
    "temporal_split": "data.split",
    "segment_users": "data.split",
    "popularity": "data.split",
    "relevance": "metrics.relevance",
    "recommend_mp": "recommend.mp",
    "recommend_cf": "recommend.cf",
    "recommend_cb": "recommend.cb",
}


def _bootstrap_draws(out, args, kwargs) -> int:
    resamples = kwargs.get("resamples", args[1] if len(args) > 1 else 1000)
    return resamples * len(args[0])


def instrument_evaluate(tracer: Tracer) -> None:
    from stylebench import als, cli, forest, harness, metrics

    tracer.wrap(cli, "load_events", "data.load",
                ("data.events", lambda out, a, kw: len(out.events)))
    stage = harness._stage

    @contextmanager
    def traced_stage(name):
        with stage(name):
            if name in _STAGE_SPANS:
                with tracer.span(_STAGE_SPANS[name]):
                    yield
            else:
                yield

    harness._stage = traced_stage
    tracer.wrap(als, "build_confidence", "als.confidence",
                ("als.nnz", lambda out, a, kw: out.ratings.nnz))
    tracer.wrap(als, "fit_als", "als.fit",
                ("als.sweeps", lambda out, a, kw: len(out.loss_trace)))
    tracer.wrap(forest, "augment_labels", "forest.augment",
                ("forest.rows", lambda out, a, kw: len(out.labels)))
    tracer.wrap(forest, "fit_forest", "forest.fit",
                ("forest.nodes", lambda out, a, kw: sum(t.n_nodes for t in out.trees)))
    tracer.wrap(harness, "score_cb_users", None,
                ("recommend.cb_pairs", lambda out, a, kw: len(a[1]) * len(a[2])))
    for name in ("tie_aware_ndcg_arrays", "random_baseline_ndcg", "micro_average_ndcg"):
        tracer.wrap(harness, name, "metrics.ndcg")
    tracer.wrap(harness, "avg_distinct_sampled", "metrics.ad")
    tracer.wrap(harness, "relative_popularity", "metrics.rp")
    tracer.wrap(metrics, "bootstrap_ci", None, ("metrics.bootstrap_draws", _bootstrap_draws))
    for name in ("render_report", "_input_digests", "_write_manifest"):
        tracer.wrap(cli, name, "cli.render")


def instrument_synth(tracer: Tracer) -> None:
    from stylebench import cli

    tracer.wrap(cli, "generate_dataset", "synth.generate")
    tracer.wrap(cli, "write_events", "synth.write")


def _peak_rss_kib() -> int:
    # the process's own peak plus its largest forest pool worker's
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + workers


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def cmd_synth(text: str, config: str, out_dir: str, reps: int, trace: bool) -> dict:
    """Write the config file and run ``stylebench synth``, ``reps`` times."""
    from stylebench.cli import dispatch

    seed = str(json.loads(text)["seed"])
    tracer = Tracer()
    if trace:
        instrument_synth(tracer)
    seconds, layers, digests = [], [], []
    calibration = [calibrate()]
    for _ in range(reps):
        first = len(tracer.spans)
        start = time.perf_counter()
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        # the generator takes its seed from the flag, not from the config file
        rc = dispatch(["synth", "--config", config, "--out", out_dir, "--seed", seed])
        seconds.append(time.perf_counter() - start)
        if rc != 0:
            raise SystemExit(rc)
        calibration.append(calibrate())
        per_rep: dict[str, float] = {}
        for s in tracer.spans[first:]:
            per_rep[s["name"]] = per_rep.get(s["name"], 0.0) + s["end"] - s["start"]
        layers.append(per_rep)
        with open(f"{out_dir}/manifest.json", encoding="utf-8") as fh:
            digests.append(json.load(fh)["files"])
    return {"seconds": seconds, "calibration": calibration, "layers": layers,
            "digests": digests, "versions": _versions()}


def cmd_evaluate(config: str, data: str, out_dir: str, trace: list[str]) -> dict:
    from stylebench.cli import dispatch

    trace_path = trace[0] if trace else None
    tracer = Tracer(*trace[1:])
    if trace_path:
        instrument_evaluate(tracer)
    argv = ["evaluate", "--config", config, "--data", data, "--out", out_dir]
    before = calibrate()
    with tracer.span("evaluate"):
        start = time.perf_counter()
        rc = dispatch(argv)
        seconds = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(rc)
    calibration = [before, calibrate()]
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return {"seconds": seconds, "calibration": calibration, "peak_rss_kib": _peak_rss_kib()}


def main(argv: list[str]) -> None:
    if argv[0] == "synth":
        text, config, out_dir, reps = argv[1], argv[2], argv[3], int(argv[4])
        result = cmd_synth(text, config, out_dir, reps, trace="--trace" in argv[5:])
    elif argv[0] == "evaluate":
        config, data, out_dir = argv[1:4]
        trace = argv[5:8] if argv[4:5] == ["--trace"] else []
        result = cmd_evaluate(config, data, out_dir, trace)
    else:
        raise SystemExit(f"unknown step {argv[0]!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
