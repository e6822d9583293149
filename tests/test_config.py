"""Flat config keys: one table, dataclass defaults, typed values."""

import json
import re
import typing
from pathlib import Path

import pytest

from stylebench.cli import _SEGMENT_KEYS, _SYNTH_KEYS, EXIT_DATA, EXIT_OK, EXIT_USAGE, dispatch
from stylebench.als import AlsConfig
from stylebench.forest import ForestConfig
from stylebench.harness import CONFIG_KEYS, EvalConfig
from stylebench.synth import SynthConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_empty_config_is_dataclass_defaults():
    assert EvalConfig.from_dict({}) == EvalConfig()


def test_to_dict_keys_are_the_table():
    assert list(EvalConfig().to_dict()) == list(CONFIG_KEYS)


def test_round_trip():
    raw = {
        "boundary": "2022-08-28T00:00:00Z", "k": 5, "seed": 3, "grading": "binary",
        "algorithms": ["MP", "CB"], "exclude_purchased": True,
        "bootstrap_resamples": 50, "threads": 2, "als_factors": 4,
        "als_regularization": 0.5, "als_alpha": 10.0, "als_sale_weight": 2.0,
        "als_iterations": 3, "forest_trees": 7, "forest_max_depth": 4,
        "forest_min_leaf": 2, "forest_features_per_split": 2,
        "forest_negatives_per_user": 9,
    }
    assert set(raw) == set(CONFIG_KEYS)
    cfg = EvalConfig.from_dict(raw)
    assert cfg.to_dict() == raw
    assert EvalConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "key, value",
    [
        ("exclude_purchased", "false"),
        ("exclude_purchased", 0),
        ("k", 3.7),
        ("k", 3.0),
        ("k", True),
        ("seed", "5"),
        ("threads", None),
        ("als_regularization", "0.1"),
        ("als_alpha", False),
        ("forest_features_per_split", 2.5),
        ("grading", 1),
        ("algorithms", ["MP", 3]),
        ("algorithms", 5),
        ("boundary", 20220828),
    ],
)
def test_wrong_type_names_the_key(key, value):
    with pytest.raises(ValueError, match=key):
        EvalConfig.from_dict({key: value})


@pytest.mark.parametrize("value", ["", [], "MP,MP", ["CF", "MP", "CF"]])
def test_algorithms_empty_or_repeated_names_the_key(value):
    with pytest.raises(ValueError, match="'algorithms'"):
        EvalConfig.from_dict({"algorithms": value})


def test_int_accepted_for_float_and_null_for_optional():
    cfg = EvalConfig.from_dict({"als_alpha": 40, "forest_features_per_split": None})
    assert cfg.als.alpha == 40.0 and isinstance(cfg.als.alpha, float)
    assert cfg.to_dict()["als_alpha"] == 40.0
    assert cfg.forest.features_per_split is None


def test_readme_lists_every_key():
    text = README.read_text(encoding="utf-8")
    start = text.index("Every command accepts `--config cfg.json`")
    paragraph = text[start : text.index("\n\n", start)]
    listed = set(re.findall(r"`([a-z_]+)`", paragraph))
    assert listed == set(CONFIG_KEYS) | set(_SYNTH_KEYS) | set(_SEGMENT_KEYS)


SHAPE = {"synth_users": 120, "synth_items": 30, "synth_sparsity": 0.85, "seed": 3}


def test_synth_manifest_and_int_skew(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SHAPE, "synth_skew": 1, "synth_segment_view": 0.22}))
    assert dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == EXIT_OK
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["synth_config"] == {
        "n_users": 120, "n_items": 30, "months": 12, "boundary_month": 8,
        "popularity_skew": 1.0, "target_sparsity": 0.85,
        "segment_targets": [0.7, 0.22, 0.08], "latent_dim": 4, "seed": 3,
    }


@pytest.mark.parametrize(
    "key, value",
    [("synth_users", 120.5), ("synth_skew", "1.2"), ("synth_segment_new", None),
     ("seed", True)],
)
def test_synth_wrong_type_is_data_error(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SHAPE, key: value}))
    rc = dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "d")])
    assert rc == EXIT_DATA
    assert key in capsys.readouterr().err


def test_synth_out_of_range_is_data_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SHAPE, "synth_users": 3}))
    rc = dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "d")])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_evaluate_string_bool_is_data_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SHAPE, "exclude_purchased": "false"}))
    assert dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == EXIT_OK
    rc = dispatch([
        "evaluate", "--config", str(config), "--data", str(tmp_path / "d" / "interactions.csv"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == EXIT_DATA
    assert "exclude_purchased" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_bad_config_boundary_is_data_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SHAPE, "boundary": 20220828}))
    assert dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == EXIT_OK
    data = str(tmp_path / "d" / "interactions.csv")
    assert dispatch(["stats", "--config", str(config), "--data", data]) == EXIT_DATA
    assert "boundary" in capsys.readouterr().err
    config.write_text(json.dumps({"boundary": "yesterday"}))
    assert dispatch(["stats", "--config", str(config), "--data", data]) == EXIT_DATA


def test_bad_boundary_flag_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SHAPE))
    assert dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == EXIT_OK
    rc = dispatch([
        "stats", "--data", str(tmp_path / "d" / "interactions.csv"), "--boundary", "yesterday",
    ])
    assert rc == EXIT_USAGE
    assert "--boundary" in capsys.readouterr().err


_OWNERS = {None: EvalConfig, "als": AlsConfig, "forest": ForestConfig}
EVAL_FLOAT_KEYS = [
    key for key, (sub, name) in CONFIG_KEYS.items()
    if typing.get_type_hints(_OWNERS[sub])[name] is float
]
SYNTH_FLOAT_KEYS = [
    key for key, name in _SYNTH_KEYS.items() if typing.get_type_hints(SynthConfig)[name] is float
] + list(_SEGMENT_KEYS)


def test_float_keys():
    assert EVAL_FLOAT_KEYS == ["als_regularization", "als_alpha", "als_sale_weight"]
    assert SYNTH_FLOAT_KEYS == [
        "synth_skew", "synth_sparsity",
        "synth_segment_new", "synth_segment_view", "synth_segment_sale",
    ]


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    config = root / "config.json"
    config.write_text(json.dumps(SHAPE))
    assert dispatch(["synth", "--config", str(config), "--out", str(root / "d")]) == EXIT_OK
    return root / "d" / "interactions.csv"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
@pytest.mark.parametrize("key", EVAL_FLOAT_KEYS + SYNTH_FLOAT_KEYS)
def test_non_finite_float_is_data_error(tmp_path, capsys, small_data, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SHAPE, key: value}))  # NaN, Infinity or an over-long int
    out = tmp_path / "out"
    if key in EVAL_FLOAT_KEYS:
        argv = ["evaluate", "--config", str(config), "--data", str(small_data), "--out", str(out)]
    else:
        argv = ["synth", "--config", str(config), "--out", str(out)]
    assert dispatch(argv) == EXIT_DATA
    assert f"config key {key!r} must be finite float" in capsys.readouterr().err
    assert not out.exists()
