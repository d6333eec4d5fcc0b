"""Tests of the benchmark itself, kept out of the library's test collection.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import END, NAME, PARENT, START, SpanTree, Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    make = workloads.WORKLOADS[name].make_data
    x1, y1 = make(7)
    x2, y2 = make(7)
    x3, _ = make(8)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert not np.array_equal(x1, x3)
    files = {}
    for sub in ("a", "b"):
        workloads.write_inputs(workloads.WORKLOADS[name], 7, tmp_path / sub)
        files[sub] = [(tmp_path / sub / f).read_bytes() for f in ("dataset.csv", "config.json")]
    assert files["a"] == files["b"]


def _span(name, start, end, parent, run_id=0):
    return [name, start, end, parent, run_id, None]


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        _span("a", 0.0, 10.0, -1),  # 0
        _span("b", 1.0, 4.0, 0),    # 1
        _span("b", 2.0, 3.0, 1),    # 2: b calling itself
        _span("c", 5.0, 9.0, 0),    # 3
        _span("d", 6.0, 7.0, 3),    # 4
        _span("d", 7.5, 8.0, 3),    # 5
    ]
    t = SpanTree(spans)
    assert t.self_time("a") == pytest.approx(10.0 - 3.0 - 4.0)
    assert t.self_time("b") == pytest.approx((3.0 - 1.0) + 1.0)
    assert t.self_time("c") == pytest.approx(4.0 - 1.0 - 0.5)
    assert t.self_time("d") == pytest.approx(1.5)
    assert t.inclusive("b") == pytest.approx(3.0)  # the recursive call counts once
    assert t.calls("d") == 2
    assert t.calls_under("d", "a") == 2
    assert t.calls_under("d", "c", direct=True) == 2
    assert t.calls_under("b", "b") == 1
    assert t.calls_under("d", "b") == 0


def test_run_spans_reindexes_parents():
    tracer = Tracer()
    tracer.spans[:] = [_span("x", 0, 1, -1, 1), _span("y", 0, 3, -1, 2), _span("z", 1, 2, 1, 2)]
    spans = tracer.run_spans(2)
    assert [s[NAME] for s in spans] == ["y", "z"]
    assert [s[PARENT] for s in spans] == [-1, 0]
    assert spans[1][END] - spans[1][START] == 1


def test_leftover_wrappers_sees_every_installed_wrapper():
    import dckit.harness  # noqa: F401  (loads every module the tracer wraps)

    tracer = Tracer()
    tracer.install()
    try:
        leftover = tracing.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert "dckit.condense.sgd_train" in leftover and "dckit.harness.condense" in leftover
    assert {f"Mlp.{attr}" for _, attr, _ in tracing.MLP_METHODS} <= set(leftover)
    assert tracing.leftover_wrappers() == []


def _tiny_inputs(tmp_path, kind):
    """A seconds-long config per workload method, on a dataset the test writes itself."""
    rng = np.random.default_rng(3)
    if kind == "gm":
        x = rng.uniform(0.0, 1.0, size=(24, 16))
        method = {"method": "gm", "outer_steps": 3, "ensemble": 1, "hidden": [8], "refresh": 2,
                  "outer_lr": 0.01, "image_shape": [1, 4, 4], "variants": {"multiform": {"r": 2}}}
    else:
        x = rng.normal(size=(24, 3)) + np.repeat([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]], 12, axis=0)
        method = {
            "dm": {"method": "dm", "outer_steps": 4, "ensemble": 2, "hidden": [8], "refresh": 2},
            "mmd": {"method": "mmd", "outer_steps": 4, "outer_lr": 0.05},
            "bptt": {"method": "bptt", "outer_steps": 1, "inner_steps": 2, "hidden": [4]},
        }[kind]
    y = np.repeat([0, 1], 12)
    workloads.write_csv(tmp_path / "dataset.csv", x, y)
    file_cfg = {"dataset": str(tmp_path / "dataset.csv"), "method": method, "per_class": 2,
                "eval": {"repeats": 1, "epochs": 3}, "seed": 5}
    (tmp_path / "config.json").write_text(json.dumps(file_cfg))
    return file_cfg


@pytest.mark.parametrize("kind", ["dm", "mmd", "bptt", "gm"])
def test_counts_repeat_across_traced_runs(tmp_path, kind):
    import dckit.harness

    file_cfg = _tiny_inputs(tmp_path, kind)
    config = str(tmp_path / "config.json")
    dckit.harness.run(run.cli_run_config(config, str(tmp_path / "plain")))
    tracer = Tracer()
    metrics = []
    for run_id in (1, 2):
        out = tmp_path / f"traced{run_id}"
        spans = tracer.traced_call(run_id, dckit.harness.run, run.cli_run_config(config, str(out)))
        assert run.digests(out) == run.digests(tmp_path / "plain")
        assert tracing.stage_mismatches(spans, json.loads((out / "timings.json").read_text())) == []
        metrics.append(tracing.layer_metrics(spans))
    assert tracing.leftover_wrappers() == []
    assert set(metrics[0]) == set(tracing.LAYER_UNITS) - {"cli.import_s", "trace.overhead_s"}
    assert tracing.count_mismatches(metrics) == []
    assert metrics[0]["condense.steps"] == file_cfg["method"]["outer_steps"]
    assert metrics[0]["data.load_dataset.rows"] == 24
    assert metrics[0]["models.backward.calls"] > 0


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


def test_speed_probe_runs_no_dckit_code():
    code = run.PROBE_CODE + "; import sys; print(any(m.startswith('dckit') for m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=run.child_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
    assert run.host_speed(run.PROBE_REFERENCE_S, run.PROBE_REFERENCE_S) == 1.0
    assert run.host_speed(0.5 * run.PROBE_REFERENCE_S, 1.5 * run.PROBE_REFERENCE_S) == 1.0
    assert run.host_speed(2 * run.PROBE_REFERENCE_S, 2 * run.PROBE_REFERENCE_S) == 0.5
