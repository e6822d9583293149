"""Correctness checks on one evaluation's report.json payload."""

from __future__ import annotations

import math

SEGMENTS = ("sale_users", "view_users", "new_users", "average")
# the point estimate and CI ends of each metric cell
FIELDS = {"ndcg": ("value",), "ad": ("point", "ci_low", "ci_high"),
          "rp": ("point", "ci_low", "ci_high")}


def report_problems(payload: dict) -> list[str]:
    """Every violated invariant of the report grid, as readable lines."""
    problems: list[str] = []
    k = payload["config"]["k"]
    algorithms = payload["config"]["algorithms"]
    test = payload["dataset"]["test"]
    ranges = {"ndcg": (0.0, 1.0), "ad": (0.0, 2.0 * k), "rp": (0.0, math.inf)}
    for metric, fields in FIELDS.items():
        lo, hi = ranges[metric]
        for segment in SEGMENTS:
            row = payload["cells"][metric][segment]
            for algo in algorithms:
                where = f"{metric}/{segment}/{algo}"
                if algo not in row:
                    problems.append(f"{where}: cell missing")
                    continue
                cell = row[algo]
                if algo == "CF" and segment in ("new_users", "average"):
                    if cell is not None:
                        problems.append(f"{where}: CF cannot cover new users, cell must be null")
                    continue
                if cell is None:
                    problems.append(f"{where}: cell is null")
                    continue
                for name in fields:
                    v = cell[name]
                    if not (math.isfinite(v) and lo <= v <= hi):
                        problems.append(f"{where}: {name}={v!r} outside [{lo}, {hi}]")
    coverage = payload["coverage"]
    for algo in algorithms:
        c = coverage[algo]
        if c["covered"] + c["uncovered"] != test["users"]:
            problems.append(f"coverage/{algo}: {c} does not add up to {test['users']} test users")
    if "CB" in algorithms and coverage["CB"]["covered"] != test["users"]:
        problems.append(f"coverage/CB: covers {coverage['CB']['covered']} of {test['users']} test users")
    new_users = test["segments"]["new_users"]["users"]
    if "CF" in algorithms and coverage["CF"]["uncovered"] != new_users:
        problems.append(
            f"coverage/CF: {coverage['CF']['uncovered']} uncovered, {new_users} new users"
        )
    return problems


def scored_pairs(payload: dict) -> int:
    """(user, candidate) pairs scored across the strategies that ran."""
    candidates = payload["dataset"]["train"]["products"]
    return sum(c["covered"] * candidates for c in payload["coverage"].values())
