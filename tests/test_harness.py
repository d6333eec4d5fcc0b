import json
import warnings

import numpy as np
import pytest

from dckit import (
    EvalConfig,
    MethodConfig,
    Mlp,
    RunConfig,
    TrainConfig,
    discrepancy_command,
    emit_plots,
    gaussian_spec,
    load_dataset,
    mmd_squared,
    run,
    save_dataset,
    sgd_train,
    two_blobs,
)
from dckit.cli import main
from dckit.errors import ConfigError, DivergenceError
from dckit.seeding import derive_seed


@pytest.fixture
def blobs_csv(tmp_path):
    d = two_blobs(n_per_class=40, dim=2, separation=6.0, seed=3)
    p = tmp_path / "blobs.csv"
    save_dataset(d, p)
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


def test_kcenter_full_size_reproduces_baseline(tmp_path):
    d = two_blobs(n_per_class=20, dim=2, separation=6.0, seed=5)
    p = tmp_path / "d.csv"
    save_dataset(d, p)
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
    save_dataset(other, p2)
    spec = gaussian_spec(1.0)
    rep = discrepancy_command(blobs_csv, p2, ("mmd",), kernel=spec)
    expected = np.sqrt(max(mmd_squared(spec, d.features, other.features), 0.0))
    assert rep.values["mmd"] == pytest.approx(float(expected), abs=1e-12)


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


# --- CLI -----------------------------------------------------------------------------


def test_cli_discrepancy_exit_zero(blobs_csv, capsys):
    assert main(["discrepancy", "--a", str(blobs_csv), "--b", str(blobs_csv)]) == 0
    out = capsys.readouterr().out
    assert "mmd" in out and "w1" in out


def test_cli_missing_method_is_config_error(blobs_csv):
    assert main(["condense", "--dataset", str(blobs_csv)]) == 2


def test_cli_unknown_method_is_config_error(blobs_csv):
    assert main(["condense", "--dataset", str(blobs_csv), "--method", "nope"]) == 2


def test_cli_missing_file_is_config_error(tmp_path):
    assert main(["discrepancy", "--a", str(tmp_path / "no.csv"), "--b", str(tmp_path / "no.csv")]) == 2


def divergent_config(tmp_path, method):
    """CLI config whose absurd mse inner learning rate overflows the inner training."""
    d = two_blobs(n_per_class=10, dim=2, separation=6.0, seed=1)
    p = tmp_path / "d.csv"
    save_dataset(d, p)
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
], ids=["epochs", "lr-zero", "loss", "lr-nan", "batch-size"])
def test_cli_eval_config_rejected_before_any_stage(blobs_csv, tmp_path, capsys, bad):
    # only the eval block is invalid, and it must be reported before any stage runs
    cfg = {"dataset": str(blobs_csv), "method": {"method": "kmeans"}, "eval": bad}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["condense", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[stage " not in err


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
