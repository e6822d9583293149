"""Benchmark workloads: flat stylebench config files minus the seed.

Each workload is exactly the config JSON that ``stylebench synth`` and
``stylebench evaluate`` read; the benchmark adds ``"seed"`` from its
``--seed`` argument, so one seed drives both the generator and the
evaluation. Every workload is closed-loop: one evaluation at a time from
one driver process.

Sizes are scaled so that one evaluate takes a few seconds on a 2-core
box, and a run of ``--seconds`` holds enough of them for a steady median:
``default`` uses 1,000 users instead of the paper's 5,000 and grows 25
trees instead of 100, which keeps forest fit plus CB scoring at ~90% of
an evaluate, and ``wide_cf`` uses 8,000 users instead of the 50,000 of
the 10x tier.
"""

from __future__ import annotations

BOUNDARY = "2022-08-28T00:00:00Z"

WORKLOADS: dict[str, dict] = {
    # why: paper-shaped data (1,000 users x 400 items, skew 1.2, 25 trees)
    # with all of MP/CF/CB; forest fit plus CB scoring are ~90% of it, so it
    # exercises the forest.
    "default": {
        "synth_users": 1000,
        "synth_items": 400,
        "synth_skew": 1.2,
        "boundary": BOUNDARY,
        "forest_trees": 25,
        "threads": 1,
    },
    # why: 8,000 users x 2,000 items with MP and CF only; the forest is
    # bypassed, so ingest, ALS, CF scoring, metrics and harness bookkeeping
    # carry the time and any forest change must read "no change" here.
    "wide_cf": {
        "synth_users": 8000,
        "synth_items": 2000,
        "synth_skew": 1.2,
        "boundary": BOUNDARY,
        "algorithms": "MP,CF",
        "threads": 1,
    },
}

# The CLI-test shape, used only by smoke.py to check the benchmark code.
SMOKE = {
    "synth_users": 400,
    "synth_items": 60,
    "synth_sparsity": 0.85,
    "als_factors": 8,
    "als_iterations": 5,
    "forest_trees": 10,
    "forest_negatives_per_user": 8,
    "boundary": BOUNDARY,
    "threads": 1,
}
