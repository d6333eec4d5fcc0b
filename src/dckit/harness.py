"""Run orchestration: condense, train-on-synthetic evaluation, reports, and plots.

Determinism contract: identical (config, seed) produces byte-identical synthetic
CSVs and report JSON. Wall-clock timings therefore go to a separate sidecar file
that is excluded from that guarantee.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .condense import MethodConfig, StepLog, condense
from .data import (
    LabeledDataset,
    SyntheticDataset,
    init_synthetic,
    load_dataset,
    normalize_features,
    save_synthetic,
    train_eval_split,
)
from .discrepancy import (
    DiscrepancyReport,
    ModelBatch,
    characteristic_discrepancy,
    hausdorff_distance,
    hierarchy_report,
    wasserstein1,
)
from .errors import CondensationError, ConfigError
from .kernels import KernelSpec, median_heuristic_spec, mmd_squared
from .models import Mlp, TrainConfig, pgd_attack, sgd_train
from .plots import bar_svg, bars_csv, polyline_svg, series_csv
from .seeding import derive_seed
from .spaces import fit_linear_autoencoder


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol: architectures to train on S, repeats, trainer settings.

    The default single-hidden-layer evaluator generalizes far better from very
    small synthetic sets than deeper nets while training identically on full data.
    """

    hidden_architectures: tuple = ((16,),)
    repeats: int = 3
    epochs: int = 200
    learning_rate: float = 0.1
    batch_size: int = 32
    loss: str = "cross_entropy"
    pgd_eps: float = 0.0
    pgd_steps: int = 10

    def __post_init__(self):
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        # the trainer's own rules, checked now rather than after condensation
        TrainConfig(self.learning_rate, self.epochs, self.batch_size, self.loss)


@dataclass(frozen=True)
class RunConfig:
    """One end-to-end run; every field that affects a number lands in the report."""

    dataset: str | LabeledDataset
    method: MethodConfig
    eval: EvalConfig = field(default_factory=EvalConfig)
    per_class: int = 1
    init_mode: str = "subsample"
    normalize: bool = True
    latent_dim: int = 0
    out_dir: str | None = None
    seed: int = 0


@dataclass
class EvalReport:
    """Accuracies of models trained on S, the full-data baseline, and discrepancies."""

    per_architecture: dict
    baseline_accuracy: float
    gd_estimate: float
    discrepancy: DiscrepancyReport | None
    robust_accuracy: float | None = None
    wall_clock: dict = field(default_factory=dict)

    def accuracies(self) -> dict:
        return {k: v["mean"] for k, v in self.per_architecture.items()}


def _canonical_order(features: np.ndarray, labels: np.ndarray):
    """Stable class-grouped ordering so identical multisets train identically."""
    order = np.argsort(labels, kind="stable")
    return features[order], labels[order]


def _train_fresh(hidden, features, labels, class_count, eval_cfg: EvalConfig, seed: int) -> Mlp:
    x, y = _canonical_order(np.asarray(features), np.asarray(labels))
    m = Mlp.init((x.shape[1], *hidden, class_count), "relu", seed=seed)
    cfg = TrainConfig(
        learning_rate=eval_cfg.learning_rate,
        epochs=eval_cfg.epochs,
        batch_size=eval_cfg.batch_size,
        loss=eval_cfg.loss,
        seed=seed,
    )
    trained, _ = sgd_train(m, (x, y), cfg)
    return trained


def evaluate(
    s: SyntheticDataset,
    t_train: LabeledDataset,
    t_eval: LabeledDataset,
    eval_cfg: EvalConfig,
    seed: int = 0,
) -> EvalReport:
    """Train fresh models on S (R repeats per architecture) and score them on held-out T.

    The baseline trains the same architectures with the same derived seeds on the
    full training split, so an identity condensation reproduces it exactly.
    """
    per_arch: dict = {}
    baseline_accs = []
    gd_terms = []
    robust_accs = []
    for hidden in eval_cfg.hidden_architectures:
        name = "mlp-" + "-".join(str(w) for w in hidden)
        accs = []
        for r in range(eval_cfg.repeats):
            rseed = derive_seed(seed, f"eval:{name}:{r}")
            m_s = _train_fresh(hidden, s.features, s.labels, s.class_count, eval_cfg, rseed)
            m_t = _train_fresh(hidden, t_train.features, t_train.labels, t_train.class_count, eval_cfg, rseed)
            accs.append(m_s.accuracy(t_eval.features, t_eval.labels))
            baseline_accs.append(m_t.accuracy(t_eval.features, t_eval.labels))
            loss_s = m_s.mean_loss(t_eval.features, t_eval.labels, eval_cfg.loss)
            loss_t = m_t.mean_loss(t_eval.features, t_eval.labels, eval_cfg.loss)
            gd_terms.append(abs(loss_s - loss_t))
            if eval_cfg.pgd_eps > 0:
                adv = pgd_attack(m_s, t_eval.features, t_eval.labels, eval_cfg.pgd_eps,
                                 steps=eval_cfg.pgd_steps, loss=eval_cfg.loss)
                robust_accs.append(m_s.accuracy(adv, t_eval.labels))
        per_arch[name] = {
            "accuracies": [float(a) for a in accs],
            "mean": float(np.mean(accs)),
            "std": float(np.std(accs)),
        }
    return EvalReport(
        per_architecture=per_arch,
        baseline_accuracy=float(np.mean(baseline_accs)),
        gd_estimate=float(np.mean(gd_terms)),
        discrepancy=None,
        robust_accuracy=float(np.mean(robust_accs)) if robust_accs else None,
    )


def _resolve_dataset(cfg: RunConfig) -> LabeledDataset:
    if isinstance(cfg.dataset, LabeledDataset):
        return cfg.dataset
    return load_dataset(cfg.dataset)


class _StageTimer:
    def __init__(self):
        self.timings: dict[str, float] = {}

    def run(self, name: str, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except CondensationError as e:
            raise type(e)(f"[stage {name}] {e}") from e
        self.timings[name] = time.perf_counter() - start
        return result


def run(cfg: RunConfig) -> EvalReport:
    """Full pipeline: load, normalize, init, condense, evaluate, report, artifacts.

    On error, any partially written artifacts in out_dir are removed and the
    failing stage is named in the raised exception.
    """
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    created = []
    timer = _StageTimer()
    try:
        d = timer.run("load", lambda: _resolve_dataset(cfg))
        if cfg.normalize:
            d = timer.run("normalize", lambda: normalize_features(d))
        t_train, t_eval = timer.run(
            "split", lambda: train_eval_split(d, 0.2, seed=derive_seed(cfg.seed, "split"))
        )
        method = cfg.method
        if method.regime != "input_input" and method.autoencoder is None:
            if not 1 <= cfg.latent_dim < d.n_features:
                raise ConfigError("latent regimes need 1 <= latent_dim < n_features")
            ae = timer.run("autoencoder", lambda: fit_linear_autoencoder(t_train, cfg.latent_dim))
            method = MethodConfig(**{**method.__dict__, "autoencoder": ae})
        method = MethodConfig(**{**method.__dict__, "seed": derive_seed(cfg.seed, "condense")})
        s0 = timer.run(
            "init",
            lambda: init_synthetic(t_train, cfg.per_class, cfg.init_mode, seed=derive_seed(cfg.seed, "init")),
        )
        s_star, log = timer.run("condense", lambda: condense(method, t_train, s0))
        report = timer.run(
            "evaluate", lambda: evaluate(s_star, t_train, t_eval, cfg.eval, seed=cfg.seed)
        )
        batch = ModelBatch(
            tuple(
                Mlp.init((d.n_features, 32, d.class_count), "relu", seed=derive_seed(cfg.seed, f"hier:{i}"))
                for i in range(4)
            )
        )
        report.discrepancy = timer.run(
            "hierarchy",
            lambda: hierarchy_report(t_train, s_star, batch, seed=derive_seed(cfg.seed, "freq") % (2**32)),
        )
        report.wall_clock = dict(timer.timings)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            if d.norm is not None:
                from dataclasses import replace

                s_star = replace(s_star, meta={**s_star.meta, "normalization": d.norm.to_dict()})
            s_path = out_dir / "synthetic.csv"
            save_synthetic(s_star, s_path)
            created += [s_path, s_path.with_suffix(".csv.meta.json")]
            log_path = out_dir / "steps.csv"
            log.to_csv(log_path)
            created.append(log_path)
            report_path = out_dir / "report.json"
            report_path.write_text(_report_json(cfg, s_star, log, report))
            created.append(report_path)
            timings_path = out_dir / "timings.json"
            timings_path.write_text(json.dumps({k: round(v, 6) for k, v in timer.timings.items()}, sort_keys=True, indent=2) + "\n")
            created.append(timings_path)
            emit_plots(report_path, log_path, out_dir)
        return report
    except Exception:
        for p in created:
            Path(p).unlink(missing_ok=True)
        raise


def _method_dict(m: MethodConfig) -> dict:
    out = {}
    for k, v in m.__dict__.items():
        if k == "kernel" and v is not None:
            out[k] = v.describe()
        elif k == "autoencoder":
            out[k] = None if v is None else {"latent_dim": v.latent_dim}
        else:
            out[k] = v
    return out


def _report_json(cfg: RunConfig, s_star: SyntheticDataset, log: StepLog, report: EvalReport) -> str:
    payload = {
        "config": {
            "dataset": cfg.dataset if isinstance(cfg.dataset, str) else "<in-memory>",
            "per_class": cfg.per_class,
            "init_mode": cfg.init_mode,
            "normalize": cfg.normalize,
            "latent_dim": cfg.latent_dim,
            "seed": cfg.seed,
            "method": _method_dict(cfg.method),
            "eval": dict(cfg.eval.__dict__),
        },
        "synthetic": {
            "origin": s_star.origin,
            "per_class_size": s_star.per_class_size,
            "class_count": s_star.class_count,
            "rows": int(s_star.n_samples),
        },
        "log": {
            "steps": len(log.rows),
            "final_objective": log.rows[-1]["objective"] if log.rows else None,
            "nonincreasing_fraction": log.meta.get("nonincreasing_fraction"),
            "meta": {k: v for k, v in log.meta.items() if k != "nonincreasing_fraction"},
        },
        "evaluation": {
            "per_architecture": report.per_architecture,
            "baseline_accuracy": report.baseline_accuracy,
            "gd_estimate": report.gd_estimate,
            "robust_accuracy": report.robust_accuracy,
        },
        "discrepancy": json.loads(report.discrepancy.to_json()) if report.discrepancy else None,
    }
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return list(v)
    raise TypeError(f"not JSON serializable: {type(v)}")


DISCREPANCY_SELECTORS = ("mmd", "w1", "hausdorff", "cd")


def discrepancy_command(
    path_a, path_b, selectors=("mmd", "w1", "hausdorff"), kernel: KernelSpec | None = None,
    freq_count: int = 128, seed: int = 0, out_path=None,
) -> DiscrepancyReport:
    """Standalone discrepancy tool over two dataset CSVs; prints and optionally writes JSON."""
    a = load_dataset(path_a)
    b = load_dataset(path_b)
    values: dict[str, float] = {}
    params: dict = {"a": str(path_a), "b": str(path_b)}
    for sel in selectors:
        if sel == "mmd":
            spec = kernel if kernel is not None else median_heuristic_spec(a.features)
            params["kernel"] = spec.describe()
            values["mmd"] = float(np.sqrt(max(mmd_squared(spec, a.features, b.features), 0.0)))
        elif sel == "w1":
            values["w1"] = wasserstein1(a.features, b.features)
        elif sel == "hausdorff":
            values["hausdorff"] = hausdorff_distance(a.features, b.features)
        elif sel == "cd":
            params["freq_count"] = freq_count
            params["freq_seed"] = seed
            values["cd"] = characteristic_discrepancy(
                a.features, b.features, sample_count=freq_count, seed=seed
            )
        else:
            raise ConfigError(f"unknown selector {sel!r}; pick from {DISCREPANCY_SELECTORS}")
    report = DiscrepancyReport(values=values, params=params)
    if out_path is not None:
        Path(out_path).write_text(report.to_json() + "\n")
    return report


def emit_plots(report_path, steplog_path, out_dir) -> list:
    """Objective-vs-step and accuracy-bar outputs as CSV plus deterministic SVG."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    objectives = []
    if steplog_path is not None and Path(steplog_path).exists():
        with open(steplog_path) as fh:
            header = fh.readline().strip().split(",")
            if "objective" in header:
                col = header.index("objective")
                for line in fh:
                    parts = line.rstrip("\n").split(",")
                    if len(parts) > col and parts[col]:
                        objectives.append(float(parts[col]))
    written = []
    series_csv(objectives, out_dir / "objective.csv")
    polyline_svg(objectives, out_dir / "objective.svg", title="objective vs step")
    written += [out_dir / "objective.csv", out_dir / "objective.svg"]
    labels, values = [], []
    if report_path is not None and Path(report_path).exists():
        rep = json.loads(Path(report_path).read_text())
        eval_part = rep.get("evaluation", {})
        for name, entry in sorted(eval_part.get("per_architecture", {}).items()):
            labels.append(name)
            values.append(entry["mean"])
        if eval_part.get("baseline_accuracy") is not None:
            labels.append("baseline")
            values.append(eval_part["baseline_accuracy"])
    bars_csv(labels, values, out_dir / "accuracy.csv")
    bar_svg(labels, values, out_dir / "accuracy.svg", title="train-on-synthetic accuracy")
    written += [out_dir / "accuracy.csv", out_dir / "accuracy.svg"]
    return written
