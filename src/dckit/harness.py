"""Run orchestration: condense, train-on-synthetic evaluation, reports, and plots.

Determinism contract: identical (config, seed) produces byte-identical synthetic
CSVs and report JSON. Wall-clock timings therefore go to a separate sidecar file
that is excluded from that guarantee.
"""
from __future__ import annotations

import csv
import json
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .condense import MethodConfig, StepLog, condense
from .data import (
    INIT_MODES,
    LabeledDataset,
    NormParams,
    SyntheticDataset,
    _json_default,
    _read_sidecar,
    init_synthetic,
    load_dataset,
    load_synthetic,
    normalize_features,
    read_json,
    save_synthetic,
    train_eval_split,
)
from .discrepancy import CF_FREQUENCIES, DiscrepancyReport, ModelBatch, hierarchy_report, model_free
from .errors import (ARCHITECTURES, CondensationError, ConfigError, ParseError, ShapeError, check_fields, check_keys,
                     check_number)
from .kernels import KernelSpec
from .models import TRAIN_FIELDS, Mlp, TrainConfig, _loss_value_and_grad, pgd_attack, sgd_train_stack
from .plots import bar_svg, bars_csv, polyline_svg, series_csv
from .seeding import derive_seed
from .spaces import fit_linear_autoencoder


EVAL_FIELDS = {"hidden_architectures": (ARCHITECTURES, 1), "repeats": (int, 1), "pgd_eps": (float, 0),
               "pgd_steps": (int, 0), **{k: TRAIN_FIELDS[k] for k in ("learning_rate", "epochs", "batch_size", "loss")}}


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
        check_fields(self, EVAL_FIELDS)


RUN_FIELDS = {"dataset": ((str, os.PathLike, LabeledDataset), None), "method": (MethodConfig, None),
              "eval": (EvalConfig, None), "per_class": (int, 1), "init_mode": (INIT_MODES, None),
              "normalize": (bool, None), "latent_dim": (int, 0), "out_dir": ((str, os.PathLike), None),
              "seed": (int, None)}


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

    def __post_init__(self):
        check_fields(self, RUN_FIELDS)
        if self.out_dir:  # the artifacts are written after every stage: refuse a file now
            out = Path(self.out_dir)
            existing = next(p for p in (out, *out.parents) if p.exists())
            if not existing.is_dir():
                raise ConfigError(f"out_dir {self.out_dir} is not a directory: {existing} is a file")
        for name in ("con", "intra"):  # each scores a row against its class's other synthetic rows
            if self.per_class == 1 and name in self.method.regularizers:
                raise ConfigError(f"regularizer {name} is exactly 0 at one synthetic row per class: "
                                  "it needs per_class >= 2")


@dataclass
class EvalReport:
    """Accuracies of models trained on S, the full-data baseline, and discrepancies."""

    per_architecture: dict
    baseline_accuracy: float
    gd_estimate: float
    discrepancy: DiscrepancyReport | None
    robust_accuracy: float | None = None
    wall_clock: dict = field(default_factory=dict)


def _train_stack(hidden, data, eval_cfg: EvalConfig, seeds) -> list:
    """One fresh relu network per seed (its init and shuffling seed), trained on data's class-sorted
    rows as one ``sgd_train_stack``: bit for bit as separate ``sgd_train`` runs."""
    order = np.argsort(data.labels, kind="stable")  # class-grouped, so identical multisets train identically
    x, y = np.asarray(data.features)[order], np.asarray(data.labels)[order]
    fresh = [Mlp.init((x.shape[1], *hidden, data.class_count), "relu", seed=r) for r in seeds]
    cfg = TrainConfig(learning_rate=eval_cfg.learning_rate, epochs=eval_cfg.epochs,
                      batch_size=eval_cfg.batch_size, loss=eval_cfg.loss)
    return sgd_train_stack(fresh, (x, y), cfg, seeds)[0]


def _scores(m: Mlp, data: LabeledDataset, loss: str) -> tuple[float, float]:
    """The accuracy and mean loss of m on data, from one forward of its rows: the values of
    ``m.accuracy`` and ``m.mean_loss``."""
    logits, _ = m.forward_batch(data.features)
    y = np.asarray(data.labels, dtype=np.int64)
    return float(np.mean(np.argmax(logits, axis=1) == y)), _loss_value_and_grad(logits, y, loss)[0]


def evaluate(
    s: SyntheticDataset,
    t_train: LabeledDataset,
    t_eval: LabeledDataset,
    eval_cfg: EvalConfig,
    seed: int = 0,
) -> EvalReport:
    """Train fresh models on S (R repeats per architecture) and score them on held-out T.

    The baseline trains the same architectures with the same derived seeds on the
    full training split, so an identity condensation reproduces it exactly. The R
    repeats of one architecture train as one stack per side (``_train_stack``).
    """
    per_arch: dict = {}
    baseline_accs = []
    gd_terms = []
    robust_accs = []
    for hidden in eval_cfg.hidden_architectures:
        name = "mlp-" + "-".join(str(w) for w in hidden)
        seeds = [derive_seed(seed, f"eval:{name}:{r}") for r in range(eval_cfg.repeats)]
        trained_s, trained_t = (_train_stack(hidden, data, eval_cfg, seeds) for data in (s, t_train))
        accs = []
        for m_s, m_t in zip(trained_s, trained_t):
            (acc_s, loss_s), (acc_t, loss_t) = (_scores(m, t_eval, eval_cfg.loss) for m in (m_s, m_t))
            accs.append(acc_s)
            baseline_accs.append(acc_t)
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

    On error, every artifact it writes into out_dir and every directory it made
    are removed, and the failing stage is named in the raised exception.
    """
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    created, made_dirs = [], []
    timer = _StageTimer()
    try:
        d = timer.run("load", lambda: cfg.dataset if isinstance(cfg.dataset, LabeledDataset)
                      else load_dataset(cfg.dataset))
        cfg.method.check_image_shape(d.n_features)  # before any stage works on the data
        if cfg.normalize:
            d = timer.run("normalize", lambda: normalize_features(d))
        t_train, t_eval = timer.run("split", lambda: _split(d, cfg.seed))
        fitted = {}
        if cfg.method.regime != "input_input" and cfg.method.autoencoder is None:
            if not 1 <= cfg.latent_dim < d.n_features:
                raise ConfigError("latent regimes need 1 <= latent_dim < n_features")
            fitted["autoencoder"] = timer.run("autoencoder", lambda: fit_linear_autoencoder(t_train, cfg.latent_dim))
        method = replace(cfg.method, seed=derive_seed(cfg.seed, "condense"), **fitted)
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
        # an mmd run under the default kernel that matches in the input space chose the
        # median-heuristic kernel of t_train's rows, the report's default, so the report takes
        # the kernel the run logged rather than choosing it again
        shared = method.method == "mmd" and method.kernel is None and method.regime.startswith("input_")
        kernel = KernelSpec(**log.meta["kernel"]) if shared else None
        report.discrepancy = timer.run(
            "hierarchy",
            lambda: hierarchy_report(t_train, s_star, batch, seed=_freq_seed(cfg.seed), kernel=kernel),
        )
        report.wall_clock = dict(timer.timings)
        if out_dir is not None:
            made_dirs = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # deepest first
            out_dir.mkdir(parents=True, exist_ok=True)
            # the run's seed and eval block, which `evaluate_command` reads back
            record = json.loads(json.dumps({"run_seed": cfg.seed, "eval": vars(cfg.eval)}, default=_json_default))
            if d.norm is not None:
                record["normalization"] = d.norm.to_dict()
            s_star = replace(s_star, meta={**s_star.meta, **record})
            s_path, log_path, report_path, timings_path = (
                out_dir / name for name in ("synthetic.csv", "steps.csv", "report.json", "timings.json"))
            created = [s_path, s_path.with_suffix(".csv.meta.json"), log_path, report_path, timings_path,
                       *(out_dir / name for name in _PLOT_FILES)]
            save_synthetic(s_star, s_path)
            log.to_csv(log_path)
            report_path.write_text(_report_json(cfg, s_star, log, report))
            timings_path.write_text(json.dumps({k: round(v, 6) for k, v in timer.timings.items()}, sort_keys=True, indent=2) + "\n")
            emit_plots(report_path, log_path, out_dir)
        return report
    except Exception:
        for p in created:
            Path(p).unlink(missing_ok=True)
        for p in made_dirs:  # a directory that holds other files stays
            with suppress(OSError):
                p.rmdir()
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


def _split(d: LabeledDataset, seed: int):
    """The run's (train, eval) split of the loaded and normalized dataset."""
    return train_eval_split(d, 0.2, seed=derive_seed(seed, "split"))


def _freq_seed(seed: int) -> int:
    """The seed of the run's characteristic-discrepancy frequencies."""
    return derive_seed(seed, "freq") % (2**32)


def _evaluation_block(report: EvalReport) -> dict:
    """The ``evaluation`` block of report.json, which ``evaluate_command`` also writes."""
    return {
        "per_architecture": report.per_architecture,
        "baseline_accuracy": report.baseline_accuracy,
        "gd_estimate": report.gd_estimate,
        "robust_accuracy": report.robust_accuracy,
    }


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
            "eval": vars(cfg.eval),
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
        "evaluation": _evaluation_block(report),
        "discrepancy": json.loads(report.discrepancy.to_json()) if report.discrepancy else None,
    }
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


def discrepancy_command(path_a, path_b, selectors, freq_count: int = CF_FREQUENCIES, seed: int | None = None,
                        out_path=None) -> DiscrepancyReport:
    """Standalone discrepancy tool over two dataset CSVs; optionally writes the report JSON.

    The values are ``model_free`` of the two feature sets, as in the run's report (mmd under a's
    median-heuristic kernel). When b is a run's synthetic set (its sidecar holds the run record),
    a is read back as that run's train split (``_read_back``) and cd's frequencies come from the
    run's seed unless ``seed`` is given."""
    if "run_seed" in _read_sidecar(path_b):
        b, _, run_seed, a, _ = _read_back(path_b, path_a)
        seed = _freq_seed(run_seed) if seed is None else seed
    else:
        a, b = load_dataset(path_a), load_dataset(path_b)
        seed = 0 if seed is None else seed
    values, params = model_free(a.features, b.features, selectors, None, freq_count, seed)
    report = DiscrepancyReport(values=values, params={"a": str(path_a), "b": str(path_b), **params})
    if out_path is not None:
        Path(out_path).write_text(report.to_json() + "\n")
    return report


def _read_back(synthetic_path, real_path, seed: int | None = None):
    """A saved synthetic set and the real dataset as its run saw them, from the run record in
    the set's sidecar: (s, recorded eval block, seed, train split, eval split).

    A set without a record gets ``EvalConfig()`` and seed 0; ``seed`` replaces the recorded
    one when given. The real rows are scaled by the recorded normalization and split with
    the seed. A malformed record raises ConfigError naming the sidecar, another width or
    class count ShapeError.
    """
    s = load_synthetic(synthetic_path)
    try:
        recorded = EvalConfig(**check_keys(s.meta.get("eval", {}), EvalConfig, "eval"))
        check_number("run_seed", s.meta.get("run_seed", 0), integer=True)
        norm = _norm_params(s.meta["normalization"], s.n_features) if "normalization" in s.meta else None
    except ConfigError as e:
        raise ConfigError(f"the run record in {synthetic_path}.meta.json: {e}") from None
    seed = s.meta.get("run_seed", 0) if seed is None else seed
    d = load_dataset(real_path)
    if (s.n_features, s.class_count) != (d.n_features, d.class_count):
        raise ShapeError(f"the synthetic set has {s.n_features} features and {s.class_count} classes, "
                         f"the real dataset {d.n_features} and {d.class_count}")
    if norm is not None:
        d = LabeledDataset(features=norm.apply(d.features), labels=d.labels, class_count=d.class_count, norm=norm)
    return s, recorded, seed, *_split(d, seed)


def _norm_params(record, n_features: int) -> NormParams:
    """The recorded normalization: an object with exactly ``mins`` and ``ranges``, each a list of
    n_features finite numbers, the ranges >= 0; ConfigError otherwise."""
    if not isinstance(record, dict) or set(record) != {"mins", "ranges"}:
        raise ConfigError(f"normalization must be an object with exactly mins and ranges, got {record!r}")
    for key, values in record.items():
        if not isinstance(values, list) or len(values) != n_features:
            raise ConfigError(f"normalization.{key} must be a list of {n_features} numbers, got {values!r}")
        for v in values:
            check_number(f"normalization.{key} entries", v, low=0 if key == "ranges" else None)
    return NormParams(**{k: np.asarray(v, dtype=np.float64) for k, v in record.items()})


def evaluate_command(synthetic_path, real_path, out_path, seed: int | None = None, **overrides) -> EvalReport:
    """Score a saved synthetic set as ``run`` did, from the run record in its sidecar
    (``_read_back``); ``overrides``, EvalConfig fields, replace the recorded ones when given.
    ``out_path`` (if given) receives report.json's ``evaluation`` block.
    """
    s, recorded, seed, t_train, t_eval = _read_back(synthetic_path, real_path, seed)
    report = evaluate(s, t_train, t_eval, replace(recorded, **overrides), seed=seed)
    if out_path is not None:
        Path(out_path).write_text(json.dumps(_evaluation_block(report), sort_keys=True, indent=2) + "\n")
    return report


_PLOT_FILES = ("objective.csv", "objective.svg", "accuracy.csv", "accuracy.svg")


def emit_plots(report_path, steplog_path, out_dir) -> list:
    """Objective-vs-step and accuracy-bar outputs as CSV plus deterministic SVG.

    Either input may be None (its plots come out empty), not both; a given path must exist.
    A non-finite objective or accuracy, or a log that is not UTF-8, raises an error naming its file.
    """
    if report_path is None and steplog_path is None:
        raise ConfigError("plots need a report.json (--report) or a steps.csv (--log)")
    objectives, labels, values = [], [], []
    if steplog_path is not None:
        try:
            with open(steplog_path, newline="") as fh:
                texts = [row["objective"] for row in csv.DictReader(fh) if row.get("objective")]
            objectives = [float(v) for v in texts]
        except UnicodeDecodeError as e:
            raise ParseError(f"{steplog_path}: {e}") from None
        except ValueError as e:
            raise ConfigError(f"{steplog_path}: an objective is not a number: {e}") from None
        for v in objectives:
            check_number(f"{steplog_path}: objective", v)
    if report_path is not None:
        report = read_json(report_path)
        eval_part = report.get("evaluation", {}) if isinstance(report, dict) else None
        archs = eval_part.get("per_architecture", {}) if isinstance(eval_part, dict) else None
        if not isinstance(archs, dict):
            raise ConfigError(f"{report_path}: expected a report object with an evaluation.per_architecture object")
        for name, entry in sorted(archs.items()):
            mean = entry.get("mean") if isinstance(entry, dict) else None
            check_number(f"{report_path}: per_architecture.{name}.mean", mean)
            labels.append(name)
            values.append(mean)
        if eval_part.get("baseline_accuracy") is not None:
            check_number(f"{report_path}: baseline_accuracy", eval_part["baseline_accuracy"])
            labels.append("baseline")
            values.append(eval_part["baseline_accuracy"])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / name for name in _PLOT_FILES]
    series_csv(objectives, written[0])
    polyline_svg(objectives, written[1], title="objective vs step")
    bars_csv(labels, values, written[2])
    bar_svg(labels, values, written[3], title="train-on-synthetic accuracy")
    return written
