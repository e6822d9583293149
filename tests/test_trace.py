"""The benchmark's per-layer tracer still sees every layer of an evaluate.

``perfbench/child.py`` patches the functions each layer calls; a rename or
an inlined call would silently drop that layer out of the benchmark's
per-layer table, so this runs one traced evaluate and checks every span.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from stylebench.cli import EXIT_OK, dispatch

ROOT = Path(__file__).resolve().parents[1]

SPANS = (
    "data.load", "data.split",
    "recommend.mp", "recommend.cf", "recommend.cb",
    "metrics.ndcg", "metrics.ad", "metrics.rp",
    "als.fit", "forest.fit", "cli.render",
)


def test_traced_evaluate_records_every_layer(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth_users": 400, "synth_items": 60, "synth_sparsity": 0.85, "seed": 5,
        "als_factors": 8, "als_iterations": 5, "forest_trees": 10,
        "forest_negatives_per_user": 8,
    }))
    assert dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == EXIT_OK
    trace = tmp_path / "trace.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "evaluate", str(config),
         str(tmp_path / "data" / "interactions.csv"), str(tmp_path / "out"),
         "--trace", str(trace), "smoke", "0"],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(trace.read_text())
    seconds: dict[str, float] = {}
    for span in recorded["spans"]:
        seconds[span["name"]] = seconds.get(span["name"], 0.0) + span["end"] - span["start"]
    for name in SPANS:
        assert seconds.get(name, 0.0) > 0.0, name
    assert recorded["counts"]["recommend.cb_pairs"] > 0
    # one event per line after the header: the generator writes no blank
    # lines or quoted newlines
    lines = (tmp_path / "data" / "interactions.csv").read_text().splitlines()
    assert recorded["counts"]["data.events"] == len(lines) - 1
