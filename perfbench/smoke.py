"""Seconds-long check of the benchmark code on the CLI-test shape.

Runs the tiny ``SMOKE`` workload once untraced and once traced and
asserts that every metric BENCHMARK.json names is emitted with its unit,
that the reports pass validation, and that the workload names match.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys

import run
from workloads import SMOKE, WORKLOADS


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), spec["workloads"]
    for trace, section, ours in ((False, "end_to_end", run.END_TO_END),
                                 (True, "per_layer", run.PER_LAYER)):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert expected == ours, (section, expected, ours)
        result = run.run("smoke", SMOKE, seed=7, seconds=1, trace=trace)
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= run.MIN_EVALUATES + trace, result
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected, (section, emitted)
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), (name, m)
        print(json.dumps(result))
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
