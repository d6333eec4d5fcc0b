import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from dckit import (
    EvalConfig,
    KernelSpec,
    LabeledDataset,
    MethodConfig,
    Mlp,
    RunConfig,
    SyntheticDataset,
    TrainConfig,
    discrepancy_command,
    emit_plots,
    gaussian_spec,
    hierarchy_report,
    load_dataset,
    mmd_squared,
    run,
    save_synthetic,
    sgd_train,
    two_blobs,
)
from dckit import discrepancy, harness
from dckit.cli import main
from dckit.errors import ConfigError, DivergenceError
from dckit.seeding import derive_seed
from tests.conftest import write_csv


@pytest.fixture
def blobs_csv(tmp_path):
    d = two_blobs(n_per_class=40, dim=2, separation=6.0, seed=3)
    p = tmp_path / "blobs.csv"
    write_csv(d, p)
    return p


def quick_run_config(blobs_csv, out_dir, method="dm", **method_kw):
    base = dict(outer_steps=15, outer_lr=0.02, ensemble=2, hidden=(8,), activation="tanh")
    base.update(method_kw)
    return RunConfig(
        dataset=str(blobs_csv),
        method=MethodConfig(method=method, **base),
        eval=EvalConfig(repeats=2, epochs=60, hidden_architectures=((8,),)),
        per_class=1,
        out_dir=str(out_dir),
        seed=11,
    )


def test_run_end_to_end_deterministic(blobs_csv, tmp_path):
    cfg1 = quick_run_config(blobs_csv, tmp_path / "a")
    cfg2 = quick_run_config(blobs_csv, tmp_path / "b")
    run(cfg1)
    run(cfg2)
    for name in ("synthetic.csv", "report.json", "steps.csv", "objective.svg", "accuracy.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_embeds_hyperparameters(blobs_csv, tmp_path):
    cfg = quick_run_config(blobs_csv, tmp_path / "r")
    run(cfg)
    rep = json.loads((tmp_path / "r" / "report.json").read_text())
    method = rep["config"]["method"]
    assert method["outer_lr"] == 0.02 and method["outer_steps"] == 15
    assert rep["config"]["seed"] == 11
    assert rep["discrepancy"]["values"]["w1"] >= 0.0
    # timings live in the sidecar, not the deterministic report
    assert "wall_clock" not in rep
    assert (tmp_path / "r" / "timings.json").exists()


def test_report_describes_an_explicit_kernel(blobs_csv, tmp_path):
    spec = gaussian_spec(0.5)
    run(quick_run_config(blobs_csv, tmp_path / "k", method="mmd", kernel=spec, outer_steps=3))
    rep = json.loads((tmp_path / "k" / "report.json").read_text())
    assert rep["config"]["method"]["kernel"] == json.loads(json.dumps(spec.describe()))


def test_report_bytes_do_not_depend_on_numpy_scalar_fields(blobs_csv, tmp_path):
    # numpy integers, and a float32 that holds its value exactly, are written as the Python numbers they equal
    def config(out, i, f):
        return replace(quick_run_config(blobs_csv, tmp_path / out, outer_steps=i(3), ensemble=i(2), seed=i(4)),
                       per_class=i(2), seed=i(11), eval=EvalConfig(repeats=i(2), epochs=i(20), learning_rate=f(0.125),
                                                                   hidden_architectures=((8,),)))

    for out, i, f in (("py", int, float), ("np", np.int64, np.float32)):
        run(config(out, i, f))
    for name in ("synthetic.csv", "synthetic.csv.meta.json", "steps.csv", "report.json"):
        assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "py" / name).read_bytes()


def test_kcenter_full_size_reproduces_baseline(tmp_path):
    d = two_blobs(n_per_class=20, dim=2, separation=6.0, seed=5)
    p = tmp_path / "d.csv"
    write_csv(d, p)
    cfg = RunConfig(
        dataset=str(p),
        method=MethodConfig(method="kcenter"),
        eval=EvalConfig(repeats=2, epochs=40, hidden_architectures=((8,),)),
        per_class=16,  # the full per-class size of the 80% training split
        out_dir=None,
        seed=4,
    )
    report = run(cfg)
    for entry in report.per_architecture.values():
        assert entry["mean"] == report.baseline_accuracy


def test_evaluate_reports_robust_accuracy():
    d = two_blobs(n_per_class=30, dim=2, separation=6.0, seed=8)
    from dckit import init_synthetic
    from dckit.data import train_eval_split
    from dckit.harness import evaluate

    t_train, t_eval = train_eval_split(d, 0.2, seed=1)
    s = init_synthetic(t_train, 2, "subsample", seed=0)
    rep = evaluate(s, t_train, t_eval, EvalConfig(repeats=1, epochs=40, pgd_eps=0.05,
                                                  hidden_architectures=((8,),)), seed=3)
    assert rep.robust_accuracy is not None
    assert 0.0 <= rep.robust_accuracy <= rep.per_architecture["mlp-8"]["mean"] + 1e-12


def test_evaluate_forwards_the_held_out_split_once_per_model(monkeypatch):
    # accuracy and mean loss of each trained model come from one forward of t_eval
    from dckit import init_synthetic
    from dckit.data import train_eval_split

    d = two_blobs(n_per_class=30, dim=2, separation=2.0, seed=8)
    t_train, t_eval = train_eval_split(d, 0.2, seed=1)
    s = init_synthetic(t_train, 3, "subsample", seed=0)
    cfg = EvalConfig(hidden_architectures=((8,), (4, 3)), repeats=2, epochs=5)
    expected = harness.evaluate(s, t_train, t_eval, cfg, seed=5)
    rows = []
    forward = Mlp._forward
    monkeypatch.setattr(Mlp, "_forward", lambda self, x: rows.append(len(x)) or forward(self, x))
    rep = harness.evaluate(s, t_train, t_eval, cfg, seed=5)
    assert rows == [t_eval.n_samples] * (2 * 2 * 2)  # per architecture and repeat, one S and one T model
    assert rep == expected


def test_evaluate_trains_repeats_as_one_sweep(monkeypatch):
    from dckit import init_synthetic
    from dckit.data import train_eval_split
    from dckit.models import _FlatSgd

    d = two_blobs(n_per_class=30, dim=2, separation=2.0, seed=8)
    t_train, t_eval = train_eval_split(d, 0.2, seed=1)
    s = init_synthetic(t_train, 3, "subsample", seed=0)
    cfg = EvalConfig(hidden_architectures=((8,), (4, 3)), repeats=3, epochs=12, learning_rate=0.2,
                     batch_size=10, pgd_eps=0.2, pgd_steps=4)
    calls = []
    step = _FlatSgd.step
    monkeypatch.setattr(_FlatSgd, "step", lambda self, x, *a: calls.append(x.shape[0]) or step(self, x, *a))
    rep = harness.evaluate(s, t_train, t_eval, cfg, seed=5)
    # per side and architecture, epochs * ceil(n / B) steps, each over all 3 repeats
    sweeps = sum(cfg.epochs * -(-n // cfg.batch_size) for n in (s.n_samples, t_train.n_samples))
    assert (s.n_samples, t_train.n_samples) == (6, 48)
    assert calls == [3] * (len(cfg.hidden_architectures) * sweeps)
    # the values of three sequential trainings per side, so any reordering of seeds or repeats fails
    assert {k: v["accuracies"] for k, v in rep.per_architecture.items()} == {
        "mlp-8": [10 / 12, 9 / 12, 10 / 12], "mlp-4-3": [5 / 12, 6 / 12, 6 / 12]}
    assert rep.baseline_accuracy.hex() == "0x1.a38e38e38e38dp-1"
    assert rep.gd_estimate.hex() == "0x1.bcb3fa5aaf631p-3"
    assert rep.robust_accuracy == 0.375


def test_eval_seeds_are_stage_isolated():
    assert derive_seed(7, "condense") != derive_seed(7, "eval:mlp-16:0")
    assert derive_seed(7, "init") != derive_seed(7, "split")


def test_run_cleans_partial_artifacts(blobs_csv, tmp_path):
    out = tmp_path / "boom"
    cfg = RunConfig(
        dataset=str(blobs_csv),
        method=MethodConfig(method="mmd", outer_steps=2, regime="latent_latent"),
        per_class=1,
        out_dir=str(out),
        seed=0,
        latent_dim=0,  # invalid for the latent regime: triggers a staged ConfigError
    )
    with pytest.raises(ConfigError, match="latent"):
        run(cfg)
    assert not out.exists() or not any(out.iterdir())


def test_discrepancy_command_same_file(blobs_csv):
    rep = discrepancy_command(blobs_csv, blobs_csv, ("mmd", "w1", "hausdorff", "cd"))
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in rep.values.values())


def test_discrepancy_command_dirac_pair(tmp_path):
    (tmp_path / "a.csv").write_text("f0,label\n0.0,0\n")
    (tmp_path / "b.csv").write_text("f0,label\n3.0,0\n")
    rep = discrepancy_command(tmp_path / "a.csv", tmp_path / "b.csv", ("w1",))
    assert rep.values["w1"] == pytest.approx(3.0, abs=1e-12)


def test_discrepancy_command_matches_kernel_oracle(blobs_csv, tmp_path):
    d = load_dataset(blobs_csv)
    other = two_blobs(n_per_class=40, dim=2, separation=6.0, seed=9)
    p2 = tmp_path / "other.csv"
    write_csv(other, p2)
    # the median-heuristic Gaussian kernel of a's rows, from scipy's pairwise distances
    spec = gaussian_spec(1.0 / (2.0 * float(np.median(pdist(d.features))) ** 2))
    rep = discrepancy_command(blobs_csv, p2, ("mmd",))
    expected = np.sqrt(max(mmd_squared(spec, d.features, other.features), 0.0))
    assert rep.values["mmd"] == pytest.approx(float(expected), abs=1e-12)
    assert rep.params["kernel"] == spec.describe()


def test_discrepancy_command_equals_hierarchy_report(blobs_csv, tmp_path):
    other = tmp_path / "other.csv"
    write_csv(two_blobs(n_per_class=30, dim=2, separation=4.0, seed=8), other)
    cmd = discrepancy_command(blobs_csv, other, discrepancy.MODEL_FREE, seed=7)
    hier = hierarchy_report(load_dataset(blobs_csv), load_dataset(other), seed=7)
    assert cmd.values == {name: hier.values[name] for name in discrepancy.MODEL_FREE}


@pytest.mark.parametrize("metrics", [",", " , ", "w1,bogus"], ids=["separators", "blank", "unknown"])
def test_cli_discrepancy_rejects_bad_metrics_before_computing(blobs_csv, tmp_path, capsys, monkeypatch, metrics):
    def computed(*args, **kwargs):
        raise AssertionError("a discrepancy was computed")

    for name in ("_distances", "wasserstein1", "hausdorff_distance", "characteristic_discrepancy", "mmd_squared"):
        monkeypatch.setattr(discrepancy, name, computed)
        monkeypatch.setattr(harness, name, computed, raising=False)  # a copy the CLI layer might import
    out = tmp_path / "d.json"
    argv = ["discrepancy", "--a", str(blobs_csv), "--b", str(blobs_csv), "--metrics", metrics, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in discrepancy.MODEL_FREE)
    assert not out.exists()


@pytest.mark.parametrize("metric", ["mmd", "w1", "hausdorff", "cd"])
def test_cli_discrepancy_dimension_mismatch_exits_two(blobs_csv, tmp_path, capsys, metric):
    other = tmp_path / "wide.csv"
    write_csv(two_blobs(n_per_class=3, dim=3, seed=2), other)
    assert main(["discrepancy", "--a", str(blobs_csv), "--b", str(other), "--metrics", metric]) == 2
    assert "point dimensions differ" in capsys.readouterr().err


def test_emit_plots_empty_log(tmp_path):
    log = tmp_path / "empty.csv"
    log.write_text("step,objective,method_value,grad_norm\n")
    written = emit_plots(None, log, tmp_path / "plots")
    assert all(p.exists() for p in written)
    svg = (tmp_path / "plots" / "objective.svg").read_text()
    assert "<svg" in svg and "polyline" not in svg


def test_emit_plots_monotone_polyline(tmp_path):
    log = tmp_path / "mono.csv"
    log.write_text("step,objective\n" + "".join(f"{i},{10 - i}\n" for i in range(5)))
    emit_plots(None, log, tmp_path / "plots")
    svg = (tmp_path / "plots" / "objective.svg").read_text()
    pts = [tuple(map(float, p.split(","))) for p in svg.split('points="')[1].split('"')[0].split()]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    assert xs == sorted(xs)
    assert ys == sorted(ys)  # objective falls, svg y grows downward


def test_emit_plots_deterministic(tmp_path):
    log = tmp_path / "l.csv"
    log.write_text("step,objective\n0,1.0\n1,0.5\n")
    emit_plots(None, log, tmp_path / "p1")
    emit_plots(None, log, tmp_path / "p2")
    assert (tmp_path / "p1" / "objective.svg").read_bytes() == (tmp_path / "p2" / "objective.svg").read_bytes()


@pytest.mark.parametrize("given", [(), ("--log", "missing.csv"), ("--report", "missing.json")],
                         ids=["no-input", "missing-log", "missing-report"])
def test_cli_plot_needs_an_existing_input(tmp_path, capsys, given):
    argv = ["plot", *(str(tmp_path / a) if a.startswith("missing") else a for a in given),
            "--out", str(tmp_path / "plots")]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "plots").exists()


# --- CLI -----------------------------------------------------------------------------


def test_cli_discrepancy_exit_zero(blobs_csv, capsys):
    assert main(["discrepancy", "--a", str(blobs_csv), "--b", str(blobs_csv)]) == 0
    out = capsys.readouterr().out
    assert "mmd" in out and "w1" in out


def test_cli_condense_loads_no_scipy(blobs_csv, tmp_path):
    # a whole run, report included, in a fresh interpreter: numpy is the only dependency
    configs = []
    for method in ({"method": "mmd", "outer_steps": 3}, {"method": "kmeans"}, {"method": "kcenter"}):
        path = tmp_path / f"{method['method']}.json"
        path.write_text(json.dumps({"dataset": str(blobs_csv), "method": method, "per_class": 2,
                                    "eval": {"epochs": 1, "repeats": 1}, "out_dir": str(tmp_path / method["method"])}))
        configs.append(str(path))
    code = ("import sys\nfrom dckit.cli import main\n"
            "print([main(['condense', '--config', c]) for c in sys.argv[1:]],"
            " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(harness.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, *configs], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split("\n")[-2] == "[0, 0, 0] []"


def test_cli_condense_has_no_steps_flag(blobs_csv, capsys):
    # the outer step count is method.outer_steps in the config file
    with pytest.raises(SystemExit) as exit_:
        main(["condense", "--dataset", str(blobs_csv), "--method", "dm", "--steps", "3"])
    assert exit_.value.code == 2
    assert "--steps" in capsys.readouterr().err


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_artifacts_byte_identical_across_blas_threads(tmp_path):
    # one interpreter per thread count, since BLAS reads these variables when numpy loads; the
    # full-batch 64-unit evaluator's (960, 32) @ (32, 64) products are large enough to be threaded
    rng = np.random.default_rng(5)
    d = LabeledDataset(rng.normal(size=(1200, 32)) + np.repeat(3.0 * np.eye(4, 32), 300, axis=0),
                       np.repeat(np.arange(4), 300), 4)
    write_csv(d, tmp_path / "data.csv")
    methods = ({"method": "krr", "outer_steps": 3}, {"method": "mmd", "outer_steps": 3},
               {"method": "dm", "outer_steps": 3, "hidden": [64]}, {"method": "gm", "outer_steps": 2, "hidden": [64]})
    configs = []
    for method in methods:
        configs.append(str(tmp_path / f"{method['method']}.json"))
        Path(configs[-1]).write_text(json.dumps({
            "dataset": str(tmp_path / "data.csv"), "method": method, "per_class": 2, "seed": 4,
            "out_dir": method["method"],  # relative to the run's working directory
            "eval": {"repeats": 1, "epochs": 5, "batch_size": 1200, "hidden_architectures": [[64]]}}))
    code = "import sys\nfrom dckit.cli import main\nprint([main(['condense', '--config', c]) for c in sys.argv[1:]])"
    src = str(Path(harness.__file__).resolve().parents[1])
    digests = {}
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads-{threads}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": src, **{name: threads for name in BLAS_THREAD_VARIABLES}}
        done = subprocess.run([sys.executable, "-c", code, *configs], cwd=cwd, env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split("\n")[-2] == "[0, 0, 0, 0]"
        digests[threads] = {f"{m['method']}/{name}": hashlib.sha256((cwd / m["method"] / name).read_bytes()).hexdigest()
                            for m in methods for name in ("synthetic.csv", "steps.csv", "report.json")}
    assert digests["1"] == digests["2"]


def test_cli_missing_method_is_config_error(blobs_csv):
    assert main(["condense", "--dataset", str(blobs_csv)]) == 2


def test_cli_unknown_method_is_config_error(blobs_csv):
    assert main(["condense", "--dataset", str(blobs_csv), "--method", "nope"]) == 2


def test_cli_missing_file_is_config_error(tmp_path):
    assert main(["discrepancy", "--a", str(tmp_path / "no.csv"), "--b", str(tmp_path / "no.csv")]) == 2


def bad_input_argv(case, tmp_path, blobs_csv) -> list:
    """The arguments of a CLI call whose input is a directory, not UTF-8 text or malformed."""
    folder, plots = tmp_path / "folder", str(tmp_path / "plots")
    folder.mkdir()

    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    condense = ["condense", "--method", "kmeans"]
    if case == "dataset-dir":
        return [*condense, "--dataset", str(folder)]
    if case == "config-dir":
        return [*condense, "--dataset", str(blobs_csv), "--config", str(folder)]
    if case == "real-dir":
        synthetic = tmp_path / "s.csv"
        write_csv(LabeledDataset(np.full((2, 2), 0.5), np.arange(2), 2), synthetic)
        return ["evaluate", "--synthetic", str(synthetic), "--real", str(folder)]
    if case == "log-dir":
        return ["plot", "--log", str(folder), "--out", plots]
    if case == "dataset-not-utf8":
        (tmp_path / "latin1.csv").write_bytes("f0,f1,label\n0.5,0.5,0\n0.1,0.2,1 \xe9t\xe9\n".encode("latin-1"))
        return [*condense, "--dataset", str(tmp_path / "latin1.csv")]
    if case == "config-not-utf8":
        (tmp_path / "latin1.json").write_bytes('{"eval": {"loss": "\xe9t\xe9"}}'.encode("latin-1"))
        return [*condense, "--dataset", str(blobs_csv), "--config", str(tmp_path / "latin1.json")]
    if case == "sidecar-not-utf8":
        write_csv(LabeledDataset(np.full((2, 2), 0.5), np.arange(2), 2), tmp_path / "s.csv")
        (tmp_path / "s.csv.meta.json").write_bytes('{"origin": "\xe9t\xe9"}'.encode("latin-1"))
        return ["evaluate", "--synthetic", str(tmp_path / "s.csv"), "--real", str(blobs_csv)]
    if case == "log-not-utf8":
        (tmp_path / "steps.csv").write_bytes("step,objective\n0,1.0 \xe9t\xe9\n".encode("latin-1"))
        return ["plot", "--log", str(tmp_path / "steps.csv"), "--out", plots]
    if case == "out-is-a-file":
        return [*condense, "--dataset", str(blobs_csv), "--out", write("taken", "")]
    if case == "report-a-list":
        return ["plot", "--report", write("r.json", "[1, 2]"), "--out", plots]
    if case == "report-entry-without-mean":
        report = {"evaluation": {"per_architecture": {"mlp": {"std": 0.1}}}}
        return ["plot", "--report", write("r.json", json.dumps(report)), "--out", plots]
    assert case == "objective-not-a-number"
    return ["plot", "--log", write("steps.csv", "step,objective\n0,1.0\n1,lots\n"), "--out", plots]


NOT_UTF8 = {"dataset-not-utf8": "latin1.csv", "config-not-utf8": "latin1.json", "sidecar-not-utf8": "s.csv.meta.json",
            "log-not-utf8": "steps.csv"}


@pytest.mark.parametrize("case", ["dataset-dir", "config-dir", "real-dir", "log-dir", *NOT_UTF8,
                                  "out-is-a-file", "report-a-list", "report-entry-without-mean",
                                  "objective-not-a-number"])
def test_cli_bad_files_exit_two_with_one_line(case, tmp_path, blobs_csv, capsys, monkeypatch):
    def stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(harness, "condense", stage)
    monkeypatch.setattr(harness, "_train_stack", stage)
    assert main(bad_input_argv(case, tmp_path, blobs_csv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    if case in NOT_UTF8:  # the message names the file
        assert f"{tmp_path / NOT_UTF8[case]}: 'utf-8' codec can't decode" in err


@pytest.mark.parametrize("reg", ["con", "intra"])
def test_cli_condense_with_a_contrastive_regularizer_at_a_small_tau_is_finite(reg, tmp_path, blobs_csv):
    out = tmp_path / "run"
    cfg = {"dataset": str(blobs_csv), "per_class": 3, "out_dir": str(out),
           "method": {"method": "dm", "hidden": [8], "ensemble": 2, "outer_steps": 5, "reg_tau": 0.001,
                      "regularizers": {reg: 0.1}}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["condense", "--config", str(tmp_path / "cfg.json")]) == 0
    steps = np.genfromtxt(out / "steps.csv", delimiter=",", names=True)
    assert len(steps) == 5 and np.all(np.isfinite(steps["objective"])) and np.all(np.isfinite(steps[f"reg_{reg}"]))
    assert np.isfinite(json.loads((out / "report.json").read_text())["log"]["final_objective"])


def divergent_config(tmp_path, method):
    """CLI config whose absurd mse inner learning rate overflows the inner training."""
    d = two_blobs(n_per_class=10, dim=2, separation=6.0, seed=1)
    p = tmp_path / "d.csv"
    write_csv(d, p)
    cfg = {
        "dataset": str(p),
        "per_class": 1,
        "method": {"method": method, "outer_steps": 1, "outer_lr": 0.1,
                   "inner_steps": 3, "inner_lr": 1e150, "loss": "mse", "hidden": [4]},
    }
    path = tmp_path / f"{method}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_numerical_failure_exit_three(tmp_path):
    # the expert training of the trajectory method overflows
    assert main(["condense", "--config", divergent_config(tmp_path, "trajectory")]) == 3


def test_cli_bptt_divergence_exit_three(tmp_path, capsys):
    # the unrolled inner steps overflow; that is a numerical failure, not a config error
    assert main(["condense", "--config", divergent_config(tmp_path, "bptt")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_divergence_leaks_no_runtime_warning(tmp_path):
    d = two_blobs(30, seed=1)
    cfg = TrainConfig(learning_rate=1e150, epochs=3, loss="mse", seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="epoch"):
            sgd_train(Mlp.init([2, 8, 2], "relu", seed=0), d, cfg)
        for method in ("trajectory", "bptt"):
            assert main(["condense", "--config", divergent_config(tmp_path, method)]) == 3


@pytest.mark.parametrize("bad", [
    {"epochs": -1},
    {"learning_rate": 0},
    {"loss": "bogus"},
    {"learning_rate": float("nan")},
    {"batch_size": 0},
    {"hidden_architectures": []},
], ids=["epochs", "lr-zero", "loss", "lr-nan", "batch-size", "no-architectures"])
def test_cli_eval_config_rejected_before_any_stage(blobs_csv, tmp_path, capsys, bad):
    # only the eval block is invalid, and it must be reported before any stage runs
    cfg = {"dataset": str(blobs_csv), "method": {"method": "kmeans"}, "eval": bad}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["condense", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[stage " not in err


@pytest.mark.parametrize("bad", [
    {"outer_lr": float("nan")},
    {"outer_lr": float("inf")},
    {"outer_steps": 2.5},
    {"ensemble": 1.5},
    {"outer_steps": True},
    {"method": "bptt", "inner_steps": -1},
    {"loss": "bogus"},
    {"inner_batch": 0},
    {"ensemble": 1, "regularizers": {"con": 0.1}},
    {"method": "mmd", "ensemble": 1, "regularizers": {"cos": 0.1}},
    {"method": "bptt", "regularizers": {"div": 5.0}},
    {"method": "krr", "regularizers": {"div": 5.0}},
    {"reg_tau": 0, "regularizers": {"div": 1}},
    {"image_shape": [1, 4, 4], "variants": {"multiform": {"r": 2}}, "regularizers": {"inter": 0.1}},
    {"image_shape": [1, 4, 4], "variants": {"multiform": {"r": 2}}, "regularizers": {"proj": 0.1}},
    {"activation": "bogus"},
    {"method": "curvdc", "curv_lambda": -5},
], ids=["lr-nan", "lr-inf", "steps-float", "ensemble-float", "steps-bool", "inner-steps", "loss", "inner-batch",
        "con-one-model", "cos-one-model", "bptt-regularizer", "krr-regularizer", "reg-tau-zero", "inter-multiform",
        "proj-multiform", "activation", "curv-lambda-negative"])
def test_cli_method_config_rejected_before_any_stage(blobs_csv, tmp_path, capsys, bad):
    cfg = {"dataset": str(blobs_csv), "method": {"method": "dm", **bad}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["condense", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[stage " not in err


@pytest.mark.parametrize("cfg,named", [
    ({"method": {"method": "dm", "bogus": 1}}, "method.bogus"),
    ({"method": {"method": "dm"}, "eval": {"bogus": 1}}, "eval.bogus"),
    ({"method": {"method": "dm"}, "bogus": 1}, "key bogus"),
    ({"method": {"method": "mmd", "kernel": {"gamma": 2.0}}}, "method.kernel.family"),
    ({"method": {"method": "mmd", "kernel": {"family": "gamma_exponential", "typo": 1}}}, "method.kernel.typo"),
    ({"method": {"method": "mmd", "kernel": {"family": "gamma_exponential", "gamma": "2"}}}, "gamma"),
    ({"method": "dm"}, "method must be a JSON object"),
    ({"method": {"method": "dm", "regime": "bogus"}}, "regime must be one of"),
    ({"method": {"method": "dm", "regime": "bogus"}, "latent_dim": 1}, "regime must be one of"),
    ({"method": {"method": "dm"}, "init_mode": "bogus"}, "init_mode must be one of"),
    ({"method": {"method": "dm"}, "normalize": "no"}, "normalize must be true or false"),
    ({"method": {"method": "dm", "seed": 123}}, "method.seed"),  # the run derives it from the top-level seed
    # each scores a row against its class's other synthetic rows, so at one row per class it is exactly 0
    ({"method": {"method": "dm", "ensemble": 2, "regularizers": {"con": 0.1}}}, "regularizer con"),
    ({"method": {"method": "dm", "regularizers": {"intra": 0.1}}, "per_class": 1}, "regularizer intra"),
], ids=["method-key", "eval-key", "top-level-key", "kernel-family", "kernel-key", "gamma-string", "method-type",
        "regime", "regime-latent-dim", "init-mode", "normalize-string", "method-seed", "con-one-row",
        "intra-one-row"])
def test_cli_malformed_config_exit_two(blobs_csv, tmp_path, capsys, cfg, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": str(blobs_csv), **cfg}))
    assert main(["condense", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err and "[stage " not in err


@pytest.mark.parametrize("archs", [((0,),), ((2.5,),)], ids=["zero-width", "fractional-width"])
def test_eval_config_rejects_bad_widths_when_built(archs):
    # library construction runs the checks that the CLI runs on an eval block
    with pytest.raises(ConfigError, match=r"hidden_architectures\[0\]\[0\] must be an integer >= 1"):
        EvalConfig(hidden_architectures=archs)


@pytest.mark.parametrize("build,named", [
    (lambda: RunConfig("x.csv", method={"method": "dm"}), "method must be of type MethodConfig"),
    (lambda: RunConfig("x.csv", method=MethodConfig(method="dm"), eval={"repeats": 1}),
     "eval must be of type EvalConfig"),
    (lambda: RunConfig(3, method=MethodConfig(method="dm")), "dataset must be of type str or PathLike"),
    (lambda: RunConfig("x.csv", method=MethodConfig(method="dm"), out_dir=3), "out_dir must be of type str"),
    (lambda: KernelSpec("pullback", base="gaussian", encoder=object()), "base must be of type KernelSpec"),
    (lambda: MethodConfig(method="mmd", kernel="gaussian"), "kernel must be of type KernelSpec"),
    (lambda: MethodConfig(method="mmd", autoencoder=3), "autoencoder must be of type LinearAutoencoder"),
    (lambda: MethodConfig(method="gm", variants=[]), "variants must be of type dict"),
    (lambda: MethodConfig(method="dm", regularizers=None), "regularizers must be of type dict"),
], ids=["run-method-dict", "run-eval-dict", "run-dataset-int", "run-out-dir-int", "kernel-base-string",
        "method-kernel-string", "method-autoencoder-int", "method-variants-list", "method-regularizers-none"])
def test_object_valued_field_rejected_when_built(build, named):
    # a library caller that passes the wrong object gets a ConfigError naming the field, not an
    # AttributeError from __post_init__ or a stage
    with pytest.raises(ConfigError, match=named):
        build()


@pytest.mark.parametrize("cfg", [
    {"eval": {"epochs": 2.5}},
    {"eval": {"batch_size": 2.5}},
    {"eval": {"repeats": 1.5}},
    {"eval": {"pgd_eps": "x"}},
    {"eval": {"hidden_architectures": [16]}},
    {"per_class": "1"},
    {"method": {"method": "dm", "hidden": 4}},
    {"method": {"method": "dm", "image_shape": 4}},
    {"method": {"method": "gm", "variants": {"dp_grad": 1}}},
    {"method": {"method": "dm", "regularizers": {"div": "0.1"}}},
], ids=["epochs-float", "batch-size-float", "repeats-float", "pgd-eps-string", "architectures-flat",
        "per-class-string", "hidden-scalar", "image-shape-scalar", "variant-scalar", "reg-weight-string"])
def test_cli_wrongly_typed_value_exit_two(blobs_csv, tmp_path, capsys, cfg):
    cfg = {"dataset": str(blobs_csv), "method": {"method": "kmeans"}, **cfg}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["condense", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[stage " not in err


_IMG = {"image_shape": [1, 4, 4]}


@pytest.mark.parametrize("method,named", [
    ({"method": "gm", "variants": {"dp_grad": {"sigam": 5}}}, "variants.dp_grad.sigam"),
    ({"method": "gm", "variants": {"contrastive": {"foo": 1}}}, "variants.contrastive.foo"),
    ({"method": "gm", "variants": {"curvature": {"rh0": 0.1}}}, "variants.curvature.rh0"),
    ({"method": "gm", "variants": {"kmeans_proxy": {"k": "x"}}}, "variants.kmeans_proxy.k"),
    ({"method": "bptt", "variants": {"rat_truncation": {"window": "x"}}}, "variants.rat_truncation.window"),
    ({"method": "krr", "variants": {"ridge_robust": {"steps": "x"}}}, "variants.ridge_robust.steps"),
    ({"method": "dm", **_IMG, "variants": {"multiform": {"r": "x"}}}, "variants.multiform.r"),
    ({"method": "gm", "variants": {"kmeans_proxy": {"period": 0}}}, "variants.kmeans_proxy.period"),
    ({"method": "bptt", "variants": {"rat_truncation": {}}}, "variants.rat_truncation.window"),
    ({"method": "robdc", "variants": {"robust_outer": {"steps": 1.5}}}, "variants.robust_outer.steps"),
    ({"method": "bptt", "variants": {"robust_outer": {"eps": 0.3}}}, "variants.robust_outer"),
    ({"method": "bptt", "inner_steps": 2, "variants": {"rat_truncation": {"window": 9}}},
     "variants.rat_truncation.window"),
    ({"method": "dm", **_IMG, "variants": {"multiform": {"r": 0}}}, "variants.multiform.r"),
    ({"method": "dm", **_IMG, "variants": {"multiform": {"r": 3}}}, "variants.multiform.r"),
    ({"method": "dm", **_IMG, "variants": {"siamese": {"op": "bogus"}}}, "variants.siamese.op"),
    ({"method": "mmd", "variants": {"dp_merf": {}}}, "variants.dp_merf"),
    *[({"method": "gm", **_IMG, "variants": {"curvature": {}, image: {}}},
       f"variants.curvature scores untransformed rows and excludes variants.{image}")
      for image in ("multiform", "channel_multiform", "siamese")],
], ids=["dp_grad-typo", "contrastive-key", "curvature-typo", "proxy-k-string", "rat-window-string",
        "ridge-steps-string", "multiform-r-string", "proxy-period-zero", "rat-window-missing",
        "robust-steps-float", "robust-outer-on-bptt", "rat-window-above-inner-steps", "multiform-r-zero",
        "multiform-r-not-dividing", "siamese-op", "dp_merf-without-rff", "curvature-with-multiform",
        "curvature-with-channel_multiform", "curvature-with-siamese"])
def test_cli_variant_config_rejected_before_any_stage(tmp_path, capsys, method, named):
    data = tmp_path / "d16.csv"
    write_csv(two_blobs(n_per_class=20, dim=16, separation=3.0, seed=2), data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": str(data), "method": method, "eval": {"epochs": 1, "repeats": 1}}))
    assert main(["condense", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err and "[stage " not in err


@pytest.mark.parametrize("method", ["gm", "dm", "bptt", "kmeans"])
def test_cli_kernel_on_a_method_without_one_exits_two(blobs_csv, tmp_path, capsys, monkeypatch, method):
    # only mmd, krr and dp_merf read method.kernel; elsewhere it would be ignored
    kernel = {"family": "gamma_exponential", "scale": 0.5}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": str(blobs_csv), "method": {"method": method, "kernel": kernel},
                                "out_dir": str(tmp_path / "out")}))
    staged = []
    for name in ("load_dataset", "condense"):
        monkeypatch.setattr(harness, name, lambda *a, name=name, **k: staged.append(name))
    assert main(["condense", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "method.kernel" in err and "[stage " not in err
    assert staged == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", [
    {"method": "dm", "image_shape": [1, 3, 3], "variants": {"multiform": {"r": 3}}},
    {"method": "dm", "image_shape": [1, 2, 2], "variants": {"channel_multiform": {}}},
    {"method": "dm", "image_shape": [1, 2, 2], "variants": {"siamese": {}}},
], ids=["multiform", "channel_multiform", "siamese"])
def test_cli_image_shape_must_match_feature_count(tmp_path, capsys, monkeypatch, method):
    # checked right after load: no later stage runs and the message names no stage
    data = tmp_path / "d16.csv"
    write_csv(two_blobs(n_per_class=20, dim=16, separation=3.0, seed=2), data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": str(data), "method": method, "eval": {"epochs": 1, "repeats": 1},
                                "out_dir": str(tmp_path / "out")}))
    staged = []
    for name in ("normalize_features", "train_eval_split", "init_synthetic", "condense"):
        monkeypatch.setattr(harness, name, lambda *a, name=name, **k: staged.append(name))
    assert main(["condense", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "method.image_shape" in err and "16" in err
    assert "[stage " not in err and staged == []


@pytest.mark.parametrize("fresh", [True, False], ids=["fresh-out-dir", "existing-out-dir"])
def test_run_removes_plots_and_made_dirs_after_late_failure(blobs_csv, tmp_path, monkeypatch, fresh):
    def broken_svg(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("dckit.harness.bar_svg", broken_svg)
    out = tmp_path / "nested" / "out" if fresh else tmp_path / "out"
    if not fresh:
        out.mkdir()
        (out / "keep.txt").write_text("unrelated\n")
    with pytest.raises(OSError, match="disk full"):
        run(quick_run_config(blobs_csv, out, outer_steps=2))
    if fresh:
        assert not (tmp_path / "nested").exists()
    else:
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]


def test_cli_flag_overrides_config(blobs_csv, tmp_path, capsys):
    cfg = {
        "dataset": str(blobs_csv),
        "seed": 1,
        "per_class": 1,
        "method": {"method": "kmeans"},
        "eval": {"repeats": 1, "epochs": 30, "hidden_architectures": [[8]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["condense", "--config", str(path), "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "seed=2" in out


def test_cli_plot_command(tmp_path, blobs_csv):
    out = tmp_path / "run"
    cfg = {
        "dataset": str(blobs_csv),
        "per_class": 1,
        "method": {"method": "kmeans"},
        "eval": {"repeats": 1, "epochs": 30, "hidden_architectures": [[8]]},
        "out_dir": str(out),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["condense", "--config", str(path)]) == 0
    assert main(["plot", "--report", str(out / "report.json"), "--log", str(out / "steps.csv"),
                 "--out", str(tmp_path / "plots")]) == 0
    assert (tmp_path / "plots" / "objective.svg").exists()


def test_cli_evaluate_command(tmp_path, blobs_csv):
    out = tmp_path / "run"
    cfg = {
        "dataset": str(blobs_csv),
        "per_class": 1,
        "method": {"method": "kmeans"},
        "eval": {"repeats": 1, "epochs": 30, "hidden_architectures": [[8]]},
        "out_dir": str(out),
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["condense", "--config", str(tmp_path / "cfg.json")]) == 0
    assert main(["evaluate", "--synthetic", str(out / "synthetic.csv"), "--real", str(blobs_csv),
                 "--repeats", "2", "--out", str(tmp_path / "eval.json")]) == 0
    payload = json.loads((tmp_path / "eval.json").read_text())
    assert 0.0 <= payload["baseline_accuracy"] <= 1.0


def raw_blobs_csv(tmp_path, dim=2):
    """Two blobs far from [0, 1], so normalization changes every feature."""
    rng = np.random.default_rng(4)
    feats = np.vstack([rng.normal(50.0, 3.0, size=(40, dim)), rng.normal(50.0, 3.0, size=(40, dim)) + 12.0])
    path = tmp_path / f"raw{dim}.csv"
    write_csv(LabeledDataset(features=feats, labels=np.repeat([0, 1], 40), class_count=2), path)
    return path


def kmeans_run(tmp_path, eval_block):
    """``dckit condense`` of a kmeans run at seed 4 on the raw blobs; returns (raw CSV, out dir)."""
    raw, out = raw_blobs_csv(tmp_path), tmp_path / "run"
    cfg = {"dataset": str(raw), "method": {"method": "kmeans"}, "eval": eval_block, "out_dir": str(out), "seed": 4}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["condense", "--config", str(tmp_path / "cfg.json")]) == 0
    return raw, out


@pytest.mark.parametrize("eval_block", [{}, {"repeats": 2, "epochs": 60}], ids=["default", "repeats2-epochs60"])
def test_cli_evaluate_reproduces_the_run_evaluation(tmp_path, eval_block):
    # no flag but the paths: the seed and the eval block come from the run record in the sidecar
    raw, out = kmeans_run(tmp_path, eval_block)
    assert main(["evaluate", "--synthetic", str(out / "synthetic.csv"), "--real", str(raw),
                 "--out", str(tmp_path / "eval.json")]) == 0
    report = json.loads((out / "report.json").read_text())
    assert json.loads((tmp_path / "eval.json").read_text()) == report["evaluation"]
    sidecar = json.loads((out / "synthetic.csv.meta.json").read_text())
    assert (sidecar["run_seed"], sidecar["eval"]) == (4, report["config"]["eval"])


def test_cli_discrepancy_reads_back_the_run(tmp_path):
    # the raw real CSV and the run's synthetic set: a is scaled and split as the run did
    raw, out = kmeans_run(tmp_path, {"repeats": 1, "epochs": 5})
    names = ("mmd", "w1", "hausdorff", "cd")
    argv = ["discrepancy", "--a", str(raw), "--b", str(out / "synthetic.csv"), "--metrics", ",".join(names)]
    assert main([*argv, "--out", str(tmp_path / "d.json")]) == 0
    assert main([*argv, "--seed", "7", "--out", str(tmp_path / "d7.json")]) == 0
    report = json.loads((out / "report.json").read_text())["discrepancy"]
    got, got7 = (json.loads((tmp_path / name).read_text()) for name in ("d.json", "d7.json"))
    assert got["values"] == {name: report["values"][name] for name in names}
    assert got["params"]["seed"] == report["params"]["seed"] and got7["params"]["seed"] == 7


def evaluate_spy(monkeypatch) -> list:
    """The (EvalConfig, seed) of every ``harness.evaluate`` call from now on; none trains a model."""
    seen = []

    def spy(s, t_train, t_eval, eval_cfg, seed):
        seen.append((eval_cfg, seed))
        return harness.EvalReport(per_architecture={}, baseline_accuracy=0.0, gd_estimate=0.0, discrepancy=None)

    monkeypatch.setattr(harness, "evaluate", spy)
    return seen


def test_cli_evaluate_flags_override_the_run_record(tmp_path, monkeypatch):
    raw, out = kmeans_run(tmp_path, {"repeats": 2, "epochs": 20, "pgd_eps": 0.05})
    seen = evaluate_spy(monkeypatch)
    paths = ["evaluate", "--synthetic", str(out / "synthetic.csv"), "--real", str(raw)]
    assert main(paths) == 0
    assert main([*paths, "--repeats", "1", "--seed", "7"]) == 0
    assert main([*paths, "--pgd-eps", "0"]) == 0
    recorded = EvalConfig(repeats=2, epochs=20, pgd_eps=0.05)
    assert seen == [(recorded, 4), (replace(recorded, repeats=1), 7), (replace(recorded, pgd_eps=0.0), 4)]


def test_cli_evaluate_without_a_run_record_uses_the_default_protocol(tmp_path, blobs_csv, monkeypatch):
    seen = evaluate_spy(monkeypatch)
    synthetic = tmp_path / "s.csv"
    write_csv(LabeledDataset(features=np.full((2, 2), 0.5), labels=np.arange(2), class_count=2), synthetic)
    assert main(["evaluate", "--synthetic", str(synthetic), "--real", str(blobs_csv)]) == 0
    assert seen == [(EvalConfig(), 0)]  # 3 repeats: the flag no longer has a default of its own


MALFORMED_RECORDS = {
    "repeats-zero": {"eval": {"repeats": 0}},
    "unknown-key": {"eval": {"bogus": 1}},
    "not-an-object": {"eval": [2, 60]},
    "zero-width": {"eval": {"hidden_architectures": [[0]]}},
    "seed-float": {"run_seed": 1.5},
    "seed-bool": {"run_seed": True},
    "per-class-text": {"per_class_size": "one"},
    "per-class-zero": {"per_class_size": 0},
    "norm-one-entry": {"normalization": {"mins": [0.0], "ranges": [1.0]}},
    "norm-no-ranges": {"normalization": {"mins": [0.0, 0.0]}},
    "norm-extra-key": {"normalization": {"mins": [0.0, 0.0], "ranges": [1.0, 1.0], "scale": 2}},
    "norm-negative-range": {"normalization": {"mins": [0.0, 0.0], "ranges": [1.0, -1.0]}},
    "norm-text-entry": {"normalization": {"mins": [0.0, "0"], "ranges": [1.0, 1.0]}},
    "norm-not-an-object": {"normalization": [[0.0, 0.0], [1.0, 1.0]]},
}


def malformed_run(tmp_path, record):
    """A two-row synthetic set over the blobs' 2 features whose sidecar carries ``record``."""
    synthetic = tmp_path / "s.csv"
    save_synthetic(SyntheticDataset(np.full((2, 2), 0.5), np.arange(2), per_class_size=1, origin="edited",
                                    meta=record), synthetic)
    return synthetic


@pytest.mark.parametrize("record", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS)
def test_cli_evaluate_rejects_a_malformed_run_record_before_training(tmp_path, blobs_csv, capsys, monkeypatch,
                                                                      record):
    def trained(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(harness, "_train_stack", trained)
    synthetic = malformed_run(tmp_path, record)
    assert main(["evaluate", "--synthetic", str(synthetic), "--real", str(blobs_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{synthetic}.meta.json" in err and err.count("\n") == 1


@pytest.mark.parametrize("record", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS)
def test_cli_discrepancy_rejects_a_malformed_run_record_before_computing(tmp_path, blobs_csv, capsys, monkeypatch,
                                                                         record):
    def computed(*args, **kwargs):
        raise AssertionError("a discrepancy was computed")

    monkeypatch.setattr(harness, "model_free", computed)
    synthetic = malformed_run(tmp_path, {"run_seed": 0, **record})  # a run record: a is read back
    assert main(["discrepancy", "--a", str(blobs_csv), "--b", str(synthetic)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{synthetic}.meta.json" in err and err.count("\n") == 1


@pytest.mark.parametrize("dim,classes", [(3, 2), (2, 3)], ids=["features", "classes"])
def test_cli_evaluate_shape_mismatch_exits_before_training(tmp_path, capsys, monkeypatch, dim, classes):
    def trained(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(harness, "_train_stack", trained)
    synthetic = tmp_path / "s.csv"
    write_csv(LabeledDataset(features=np.full((classes, 2), 0.5), labels=np.arange(classes),
                             class_count=classes), synthetic)
    assert main(["evaluate", "--synthetic", str(synthetic), "--real", str(raw_blobs_csv(tmp_path, dim=dim))]) == 2
    assert "the synthetic set has" in capsys.readouterr().err


@pytest.mark.parametrize("regime, calls", [("input_input", 1), ("input_latent", 1), ("latent_input", 2)])
def test_mmd_run_chooses_the_default_bandwidth_once_per_t(regime, calls, blobs_csv, tmp_path, monkeypatch):
    # an mmd run that matches in the input space takes the median-heuristic kernel of T's rows,
    # which is the report's kernel too; a latent match takes its kernel from the encoded rows
    import dckit.kernels

    seen = []
    median = dckit.kernels.median_heuristic
    monkeypatch.setattr(dckit.kernels, "median_heuristic", lambda x: seen.append(x) or median(x))
    config = tmp_path / "mmd.json"
    config.write_text(json.dumps({"dataset": str(blobs_csv), "per_class": 2, "latent_dim": 1, "out_dir": str(tmp_path / "out"),
                                  "method": {"method": "mmd", "outer_steps": 2, "regime": regime},
                                  "eval": {"epochs": 1, "repeats": 1}}))
    assert main(["condense", "--config", str(config)]) == 0
    assert len(seen) == calls
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    kernel = dckit.kernels.median_heuristic_spec(seen[-1]).describe()
    assert report["discrepancy"]["params"]["kernel"] == kernel
    assert (report["log"]["meta"]["kernel"] == kernel) == (calls == 1)
