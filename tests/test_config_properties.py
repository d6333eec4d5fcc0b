"""Property: a mutated valid run config exits 0, or exits 2 before any stage runs.

Each base config is small and valid; one mutation deletes a key under
``method.variants``, inserts an unknown key into any object, or swaps any value
for one of another JSON type. ``dckit condense`` must never raise on the result,
and a config error must be reported before the pipeline starts.
"""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dckit import two_blobs
from dckit.cli import main
from tests.conftest import write_csv

DATASET = "<dataset>"  # replaced by the path of a 40-row, 16-feature CSV
BASES = {
    "gm": {"method": "gm", "hidden": [8], "ensemble": 2,
           "variants": {"dp_grad": {"sigma": 0.5}, "kmeans_proxy": {"k": 3, "period": 2}, "contrastive": {}}},
    "bptt": {"method": "bptt", "hidden": [4], "inner_steps": 3, "variants": {"rat_truncation": {"window": 2}}},
    "robdc": {"method": "robdc", "hidden": [4], "inner_steps": 2,
              "variants": {"robust_outer": {"eps": 0.05, "steps": 2}}},
    "krr": {"method": "krr", "variants": {"ridge_robust": {"eps": 0.05, "steps": 2}}},
    "dm": {"method": "dm", "hidden": [8], "image_shape": [1, 4, 4],
           "variants": {"multiform": {"r": 2}, "siamese": {"op": "flip"}}},
}
SWAPS = ("x", True, [1], {"a": 1}, None, 1.5)


def base_config(name):
    return {"dataset": DATASET, "per_class": 1, "seed": 0,
            "method": {**copy.deepcopy(BASES[name]), "outer_steps": 1},
            "eval": {"epochs": 1, "repeats": 1, "hidden_architectures": [[8]]}}


def walk(node, prefix=()):
    """(path, value) of every value below ``node``, through objects and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,), value
        yield from walk(value, prefix + (key,))


def at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def json_type(value):
    return type(value).__name__


@st.composite
def mutated_configs(draw):
    cfg = base_config(draw(st.sampled_from(sorted(BASES))))
    values = list(walk(cfg))
    op = draw(st.sampled_from(["delete", "insert", "swap"]))
    if op == "delete":
        path = draw(st.sampled_from([p for p, _ in values if p[:2] == ("method", "variants") and len(p) > 2]))
        del at(cfg, path[:-1])[path[-1]]
    elif op == "insert":
        path = draw(st.sampled_from([()] + [p for p, v in values if isinstance(v, dict)]))
        at(cfg, path)["unknown_key"] = 1
    else:
        path, old = draw(st.sampled_from(values))
        new = draw(st.sampled_from([v for v in SWAPS if json_type(v) != json_type(old)]
                                   + ([2.0] if json_type(old) == "int" else [])))
        at(cfg, path[:-1])[path[-1]] = copy.deepcopy(new)
    return op, path, cfg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("mutations")
    write_csv(two_blobs(n_per_class=20, dim=16, separation=3.0, seed=5), work / "d.csv")
    return work


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutation=mutated_configs())
def test_mutated_config_exits_zero_or_two_before_any_stage(workdir, mutation):
    op, path, cfg = mutation
    if cfg.get("dataset") == DATASET:
        cfg["dataset"] = str(workdir / "d.csv")
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["condense", "--config", str(workdir / "cfg.json")])
    assert code == 0 or (code == 2 and "[stage " not in err.getvalue()), (op, path, code, err.getvalue())
