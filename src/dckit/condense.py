"""Condensation objectives: outer-loop optimizers over the synthetic set, regularizers,
coreset selectors, and the privacy/robustness variants.

``VARIANTS`` is the one table of method variants: the methods each applies to
and each parameter's kind, lower bound and default. ``MethodConfig`` resolves it
at construction, so condensation reads only checked values with defaults filled
in (``cfg.variant(name)`` gives the defaults of a variant the run does not set).

Every gradient method is a problem builder that returns ``(v0, objective, log,
project, finish)``: ``objective(v, step) -> (value, grad, extra_log_fields)`` over
the synthetic variables ``v``, and ``finish(v)`` turns the final variables into
(synthetic set, log). ``condense`` picks the builder by method name and runs
``_descend``, the one outer loop that logs, steps, projects and checks the variables; the
coresets are selected directly. Matching objectives (dm/gm/mmd/moment/sam) follow the
per-class convention and approximate the hypothesis-space supremum by averaging over a
periodically refreshed model ensemble (one member for the kernel families). Each splits
into T-side statistics, built for every member by ``t_stat`` in ``_matching_problem`` from
each class's T rows (transformed once when the statistics are built) and kept in its one
cache ``t_stats`` until an ensemble or k-means proxy refresh (rebuilt every step under
siamese and channel_multiform, whose transforms depend on the step), and S-side terms with
an analytic outer gradient. gm, dm, moment and sam cache (C, ...) arrays of the statistics
themselves, dm, moment and sam stacked over the members; mmd keeps its T rows stacked by
class with their mean k(T_y, T_y), and a mean-embedding run one embedding per class. Every
method transforms S as one (C, m, d) stack of its class batches, and one function,
``s_terms``, yields every member's values and gradient against it in the ensemble's order:
dm, moment and sam from one sweep of the stack through the whole ensemble's stacked weights,
gm from three sweeps per member, mmd from one ``kernels.mmd_squared_and_grad_s`` call on the
stack (one per group of classes with equal T counts). The objective adds every member's
pulled-back gradient, and gm's curvature term, into one (C, m, d) buffer and writes it to S's
rows once. An mmd under random features, like any dp_merf run, matches mean embeddings and
takes its S gradient from the random-feature pullback. dm, moment and sam share
``discrepancy._feature_gap``, and gm ``discrepancy._gradient_gap``, with the discrepancy
report. The regularizers score the rows the ensemble sees, and their exact gradients join the
S-side ones. krr, and mmd under a feature map or a pullback encoder, reach the kernel through
``kernels.gram_and_vjp``, which gives a Gram matrix and its VJP from one evaluation of each
point set: a kernel is a gamma-exponential, a feature map Phi with its pullback, or a
pullback-encoder. The unrolled bilevel flavors (bptt/robdc/curvdc, trajectory) take one
exact adjoint sweep (``_unroll_adjoint``) back through the SGD tape of ``_unroll``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .augment import (
    SIAMESE_OPS,
    ImageBatch,
    _apply_siamese,
    _mixing_matrices,
    channel_multi_formation,
    channel_multi_formation_vjp,
    draw_siamese_params,
    multi_formation,
    multi_formation_vjp,
    siamese_vjp,
)
from .data import LabeledDataset, SyntheticDataset, one_hot, per_class_partition
from .discrepancy import _feature_gap, _feature_stats, _gradient_gap
from .errors import (
    POSITIVE,
    WIDTHS,
    CapacityError,
    ConfigError,
    ContextError,
    DivergenceError,
    DomainError,
    ShapeError,
    SolveError,
    check_fields,
    check_value,
)
from .kernels import (
    KernelSpec,
    _as_points,
    _feature_map,
    _nfk_features,
    _squared_norms,
    gram_and_vjp,
    gram_matrix,
    gram_mean,
    kernel_or_default,
    mmd_squared_and_grad_s,
    random_feature_map,
    sq_distances,
)
from .models import (
    ACTIVATIONS,
    LOSSES,
    Mlp,
    TrainConfig,
    _FlatSgd,
    _check_labels,
    _forward_sweep,
    _loss_value_and_grad,
    _loss_workspace,
    _reverse_sweep,
    _sweep_workspace,
    _tangent_sweep,
    epoch_batches,
    loss_hvp,
    max_eigenvalue,
    pgd_attack,
    sgd_train,
    sgd_train_stack,
)
from .seeding import derive_seed, derived_rng
from .spaces import REGIMES, LinearAutoencoder, regime_maps

MATCHING_METHODS = ("dm", "gm", "mmd", "moment", "sam")
METHODS = (*MATCHING_METHODS, "krr", "trajectory", "bptt", "cig_ridge", "kcenter", "kmeans", "robdc", "curvdc")
_REQUIRED = object()  # the default of a parameter that every use of its variant must set
# variant -> (methods it applies to, whether it transforms images,
#             {parameter: (kind, lower bound, default)}); kind is int, float or a tuple
# of the allowed values. The image variants run in this order within a step.
VARIANTS = {
    "siamese": (MATCHING_METHODS, True, {"op": (SIAMESE_OPS, None, "shift")}),
    "multiform": (MATCHING_METHODS, True, {"r": (int, 1, 2)}),
    "channel_multiform": (MATCHING_METHODS, True, {}),
    "contrastive": (("gm",), False, {}),
    "curvature": (("gm",), False, {"rho": (float, 0, 0.01)}),
    # k None keeps min(16, the class's row count) centers
    "kmeans_proxy": (("gm",), False, {"k": (int, 1, None), "period": (int, 1, 10)}),
    "dp_merf": (("dm", "mmd"), False, {"sigma": (float, 0, 0.0)}),
    "dp_grad": (("gm",), False, {"sigma": (float, 0, 0.0)}),
    "robust_outer": (("robdc",), False, {"eps": (float, 0, 0.0), "steps": (int, 0, 5)}),
    "ridge_robust": (("krr",), False, {"eps": (float, 0, 0.0), "steps": (int, 0, 5)}),
    "rat_truncation": (("bptt", "robdc", "curvdc"), False, {"window": (int, 1, _REQUIRED)}),
}
_IMAGE_VARIANTS = tuple(name for name, (_, image, _) in VARIANTS.items() if image)
REGULARIZERS = ("intra", "inter", "rep", "div", "con", "cos", "dis", "proj")
# MethodConfig's fields as (kind, lower bound), the kinds of ``errors.check_value``; as
# EvalConfig, RunConfig, KernelSpec and TrainConfig do with their own tables, its
# ``__post_init__`` checks them with ``errors.check_fields`` and keeps only the rules
# between fields.
FIELDS = {
    "method": (METHODS, None), "outer_steps": (int, 1), "outer_lr": (POSITIVE, None), "refresh": (int, 1),
    "ensemble": (int, 1), "kernel": (KernelSpec, None), "ridge_lambda": (float, 0), "inner_steps": (int, 0),
    "inner_lr": (POSITIVE, None), "inner_batch": (int, 1), "loss": (LOSSES, None), "hidden": (WIDTHS, 1),
    "activation": (ACTIVATIONS, None), "provenance": (("random_init", "pretrained"), None),
    "pretrain_epochs": (int, 0), "variants": (dict, None), "regularizers": (dict, None), "reg_tau": (POSITIVE, None),
    "regime": (REGIMES, None), "autoencoder": (LinearAutoencoder, None), "image_shape": (WIDTHS, 1),
    "curv_lambda": (float, 0), "curv_iters": (int, 1), "seed": (int, None),
}


def _resolve_variant(method: str, name: str, params) -> dict:
    """The ``params`` of variant ``name`` for ``method``, checked against the variant's
    table entry and with its defaults filled in."""
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant variants.{name}; pick from {tuple(VARIANTS)}")
    methods, _, spec = VARIANTS[name]
    if method not in methods:
        raise ConfigError(f"variants.{name} applies to {methods}, not to {method!r}")
    if not isinstance(params, dict):
        raise ConfigError(f"variants.{name} takes an object of parameters, got {params!r}")
    for key in params:
        if key not in spec:
            raise ConfigError(f"unknown variant parameter variants.{name}.{key}; "
                              f"{name} takes {sorted(spec) or 'no parameters'}")
    resolved = {}
    for key, (kind, low, default) in spec.items():
        path, value = f"variants.{name}.{key}", params.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{path} is required")
        if value is not default:  # the table's defaults are valid as written
            value = check_value(path, value, kind, low)
            value = value if isinstance(kind, tuple) else kind(value)
        resolved[key] = value
    return resolved


@dataclass(frozen=True)
class MethodConfig:
    """One condensation run: method, outer loop, ensemble, variants, regularizer weights."""

    method: str
    outer_steps: int = 100
    outer_lr: float = 0.5
    refresh: int = 10
    ensemble: int = 3
    kernel: KernelSpec | None = None
    ridge_lambda: float = 1e-3
    inner_steps: int = 10
    inner_lr: float = 0.1
    inner_batch: int = 32
    loss: str = "cross_entropy"
    hidden: tuple = (64, 64)
    activation: str = "relu"
    provenance: str = "random_init"
    pretrain_epochs: int = 1
    variants: dict = field(default_factory=dict)
    regularizers: dict = field(default_factory=dict)
    reg_tau: float = 1.0
    regime: str = "input_input"
    autoencoder: object = None
    image_shape: tuple | None = None
    curv_lambda: float = 0.01
    curv_iters: int = 8
    seed: int = 0

    def __post_init__(self):
        check_fields(self, FIELDS)
        object.__setattr__(self, "variants", {name: _resolve_variant(self.method, name, params)
                                              for name, params in self.variants.items()})
        for name, weight in self.regularizers.items():
            if name not in REGULARIZERS:
                raise ConfigError(f"unknown regularizer {name!r}")
            check_value(f"regularizer {name!r} weight", weight, float, 0)
            if name in ("con", "cos") and self.ensemble < 2:
                raise ConfigError(f"regularizer {name!r} compares models and needs ensemble >= 2")
            if name in ("inter", "intra", "con", "cos", "dis", "proj") and "multiform" in self.variants:
                raise ConfigError(f"regularizer {name!r} works on untransformed rows and excludes variants.multiform")
        if self.image_shape is not None and len(self.image_shape) != 3:
            raise ConfigError(f"image_shape must be (c, h, w), got {self.image_shape!r}")
        if self.method == "robdc" and "robust_outer" not in self.variants:
            raise ConfigError("robdc needs the robust_outer variant (eps may be 0 for the degenerate ladder)")
        if image := [v for v in _IMAGE_VARIANTS if v in self.variants]:
            if self.image_shape is None:
                raise ConfigError("image variants need image_shape=(c, h, w)")
            if self.regime != "input_input":
                raise ConfigError("image variants only run in the input_input regime")
            if self.provenance == "pretrained":
                raise ConfigError("image variants require random_init model provenance")
            if "dp_merf" in self.variants:
                raise ConfigError("dp_merf uses a fixed feature embedding and excludes image variants")
            if "curvature" in self.variants:
                raise ConfigError(f"variants.curvature scores untransformed rows and excludes variants.{image[0]}")
        if "multiform" in self.variants and any(h_w % self.variants["multiform"]["r"] for h_w in self.image_shape[1:]):
            raise ConfigError(f"variants.multiform.r must divide the image height and width {self.image_shape[1:]}")
        if "rat_truncation" in self.variants and self.variants["rat_truncation"]["window"] > self.inner_steps:
            raise ConfigError(f"variants.rat_truncation.window must lie in [1, inner_steps={self.inner_steps}]")
        if "dp_merf" in self.variants and (self.kernel is None or self.kernel.family != "random_feature"):
            raise ConfigError("variants.dp_merf needs a random_feature kernel spec")
        if self.kernel is not None and self.method not in ("mmd", "krr") and "dp_merf" not in self.variants:
            raise ConfigError(f"method.kernel applies to mmd, krr and variants.dp_merf; {self.method!r} uses no kernel")
        if self.regime != "input_input" and self.method not in MATCHING_METHODS:
            raise ConfigError("latent regimes are wired for the matching methods only")
        if self.regularizers and self.method not in MATCHING_METHODS:
            raise ConfigError(f"regularizers apply to the matching methods {MATCHING_METHODS}, not to {self.method!r}")

    def check_image_shape(self, n_features: int) -> None:
        """Raise ``ShapeError`` unless the image variants' c*h*w equals the data's feature count."""
        if any(name in self.variants for name in _IMAGE_VARIANTS) and math.prod(self.image_shape) != n_features:
            raise ShapeError(f"method.image_shape {self.image_shape} needs {math.prod(self.image_shape)} "
                             f"features, the data has {n_features}")

    def variant(self, name: str) -> dict:
        """The resolved parameters of variant ``name``, or its table defaults when it is unset."""
        return self.variants[name] if name in self.variants else {k: p[2] for k, p in VARIANTS[name][2].items()}


_TUNED = {
    "dm": {"outer_lr": 0.01, "outer_steps": 300, "ensemble": 3, "hidden": (32,), "refresh": 30},
    "gm": {"outer_lr": 0.01, "outer_steps": 150, "ensemble": 3, "hidden": (32,), "refresh": 25},
    "mmd": {"outer_lr": 0.05, "outer_steps": 300},
    "moment": {"outer_lr": 0.01, "outer_steps": 200, "ensemble": 3, "hidden": (32,), "refresh": 25},
    "sam": {"outer_lr": 0.01, "outer_steps": 200, "ensemble": 3, "hidden": (32,), "refresh": 25},
    "krr": {"outer_lr": 0.2, "outer_steps": 300, "ridge_lambda": 1e-3},
}


def tuned_config(method: str, **overrides) -> "MethodConfig":
    """MethodConfig with desk-scale learning rates that are stable on the toy fixtures."""
    base = dict(_TUNED.get(method, {}))
    base.update(overrides)
    return MethodConfig(method=method, **base)


@dataclass
class StepLog:
    """Per-step objective values emitted by every condensation run."""

    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, **kwargs):
        self.rows.append(kwargs)

    def objectives(self) -> np.ndarray:
        return np.asarray([r["objective"] for r in self.rows], dtype=np.float64)

    def nonincreasing_fraction(self) -> float:
        obj = self.objectives()
        if obj.size < 2:
            return 1.0
        return float(np.mean(np.diff(obj) <= 1e-12))

    def to_csv(self, path) -> None:
        keys = ["step", "objective", "method_value", "grad_norm"]
        extra = sorted({k for r in self.rows for k in r} - set(keys))
        header = keys + extra
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for r in self.rows:
                fh.write(",".join(repr(r[k]) if k in r else "" for k in header) + "\n")


def _descend(cfg: MethodConfig, v0: np.ndarray, objective, log: StepLog, project) -> np.ndarray:
    """The outer loop: cfg.outer_steps projected gradient steps on ``objective``.

    ``objective(v, step)`` returns (value, grad, extra); each step logs the value,
    ``method_value = value`` and ``grad_norm = ||grad||`` unless ``extra`` sets them.
    """
    v = v0
    for step in range(cfg.outer_steps):
        value, grad, extra = objective(v, step)
        log.append(**{"step": step, "objective": value, "method_value": value,
                      "grad_norm": float(np.linalg.norm(grad)), **extra})
        v = project(v - cfg.outer_lr * grad)
        if not np.all(np.isfinite(v)):
            raise DivergenceError(f"synthetic variables non-finite at outer step {step}")
    log.meta["nonincreasing_fraction"] = log.nonincreasing_fraction()
    return v


def _clip01(v: np.ndarray) -> np.ndarray:
    return np.clip(v, 0.0, 1.0)


def _synthetic(s0: SyntheticDataset, features, name: str, meta: dict) -> SyntheticDataset:
    return SyntheticDataset(features=features, labels=s0.labels, per_class_size=s0.per_class_size,
                            origin=f"condense:{name}", class_count=s0.class_count, meta=meta)


def _finish(s0: SyntheticDataset, name: str, meta: dict, log: StepLog):
    """The ``finish`` of a problem whose variables are the synthetic features themselves."""
    return lambda v: (_synthetic(s0, v, name, meta), log)


# ---------------------------------------------------------------------------
# privacy plumbing
# ---------------------------------------------------------------------------


def dp_noise_calibration(eps: float, delta: float, sensitivity: float) -> float:
    """Gaussian-mechanism noise scale sigma = sensitivity sqrt(2 ln(1.25/delta)) / eps."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    if sensitivity <= 0:
        raise DomainError("sensitivity must be positive")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / eps


# ---------------------------------------------------------------------------
# coreset selectors
# ---------------------------------------------------------------------------


def kcenter_covering(points: np.ndarray, m: int, method: str = "auto"):
    """Covering-radius minimizing subset of the points (the coreset regime).

    Exact brute force when C(|T|, m) <= 1e5, else the greedy farthest-point
    2-approximation starting from index 0, which takes one distance row per pick.
    Returns (indices, covering radius).
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if not 1 <= m <= n:
        raise CapacityError(f"m must lie in [1, {n}], got {m}")
    if method not in ("auto", "greedy", "exact"):
        raise ConfigError("method must be auto, greedy, or exact")
    use_exact = method == "exact" or (method == "auto" and math.comb(n, m) <= 10**5)
    if use_exact:
        d = np.sqrt(sq_distances(pts, pts))
        best_idx, best_r = None, np.inf
        for combo in itertools.combinations(range(n), m):
            r = d[:, combo].min(axis=1).max()
            if r < best_r - 1e-15:
                best_idx, best_r = combo, r
        return np.asarray(best_idx, dtype=np.int64), float(best_r)
    sel = [0]
    mind = np.sqrt(sq_distances(pts[:1], pts)[0])
    while len(sel) < m:
        nxt = int(np.argmax(mind))
        sel.append(nxt)
        mind = np.minimum(mind, np.sqrt(sq_distances(pts[nxt:nxt + 1], pts)[0]))
    return np.asarray(sel, dtype=np.int64), float(mind.max())


def kmeans_coreset(points: np.ndarray, k: int, iters: int, seed: int = 0):
    """Lloyd's algorithm with k-means++ seeding; empty clusters re-seed to the farthest point.

    Returns (centers, inertia history); inertia is nonincreasing per iteration.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise CapacityError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = pts[rng.integers(n)]
        else:
            centers[j] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    inertias = []
    for _ in range(max(iters, 1)):
        dist2 = sq_distances(pts, centers)
        assign = np.argmin(dist2, axis=1)
        for j in range(k):
            rows = assign == j
            if rows.any():
                centers[j] = pts[rows].mean(axis=0)
            else:
                far = int(np.argmax(dist2.min(axis=1)))
                centers[j] = pts[far]
        inertias.append(float(sq_distances(pts, centers).min(axis=1).sum()))
        if len(inertias) >= 2 and abs(inertias[-2] - inertias[-1]) <= 1e-15:
            break
    return centers, inertias


# ---------------------------------------------------------------------------
# regularizers: each returns its value and its exact gradient on the rows it scores
# ---------------------------------------------------------------------------


@dataclass
class RegContext:
    """What the regularizer formulas need: point sets, models, trajectory."""

    synthetic_features: np.ndarray | None = None
    synthetic_labels: np.ndarray | None = None
    class_count: int = 0
    real_features: np.ndarray | None = None
    real_labels: np.ndarray | None = None
    models: tuple = ()
    trajectory: np.ndarray | None = None  # (K, P) parameter snapshots, as ``sgd_train(record=True)`` gives them
    theta: np.ndarray | None = None
    tau: float = 1.0

    def feat(self, x: np.ndarray):
        """The first model's penultimate feature of the rows x (x itself without models) and its VJP."""
        if not self.models:
            return np.asarray(x, dtype=np.float64), lambda g: g
        return _nfk_features(self.models[0], x)


def _cosine(a: np.ndarray, b: np.ndarray):
    """The cosine matrix of the rows of a and b, and its VJP: coef -> the gradients of
    sum(coef * cosine) with respect to a and b (a norm below 1e-12 is held at 1e-12)."""
    na, nb = np.linalg.norm(a, axis=-1, keepdims=True), np.linalg.norm(b, axis=-1, keepdims=True)
    ua, ub = a / np.maximum(na, 1e-12), b / np.maximum(nb, 1e-12)

    def vjp(coef):
        return tuple((g - u * np.sum(g * u, axis=1, keepdims=True) * (n > 1e-12)) / np.maximum(n, 1e-12)
                     for g, u, n in ((coef @ ub, ua, na), (coef.T @ ua, ub, nb)))

    return ua @ ub.T, vjp


def _class_means(h: np.ndarray, y: np.ndarray, c: int):
    """The class means of the rows of h, and the map of a gradient on them back to the rows."""
    counts = np.bincount(y, minlength=c)[:, None]
    return np.stack([h[y == k].mean(axis=0) for k in range(c)]), lambda g: (g / counts)[y]


def _rep(ctx, s, y, c):
    """Minus the mean over S of each row's best cosine similarity to a real row."""
    if ctx.real_features is None:
        raise ContextError("rep needs the real dataset")
    sim, vjp = _cosine(s, np.asarray(ctx.real_features))
    best = np.arange(sim.shape[1]) == sim.argmax(axis=1)[:, None]  # (M, N_T): each row's best real match
    return float(np.mean(-sim.max(axis=1))), vjp(best * (-1.0 / len(s)))[0]


def _div(ctx, s, y, c):
    """The mean over S of each row's best cosine similarity to another synthetic row."""
    if s.shape[0] < 2:
        return 0.0, np.zeros_like(s)
    sim, vjp = _cosine(s, s)
    np.fill_diagonal(sim, -np.inf)
    return float(np.mean(sim.max(axis=1))), sum(vjp(np.eye(len(s))[sim.argmax(axis=1)] / len(s)))


def _inter(ctx, s, y, c):
    """The hinge sum over ordered class pairs of max(tau - ||mu_y1 - mu_y2||, 0) on the class-mean features."""
    h, vjp = ctx.feat(s)
    means, means_vjp = _class_means(h, y, c)
    total, g = 0.0, np.zeros_like(means)
    for y1, y2 in itertools.permutations(range(c), 2):
        diff = means[y1] - means[y2]
        gap = float(np.linalg.norm(diff))
        total += max(ctx.tau - gap, 0.0)
        if 0.0 < gap < ctx.tau:  # an active hinge
            g[y1] -= diff / gap
            g[y2] += diff / gap
    return total, vjp(means_vjp(g))


def _intra(ctx, s, y, c):
    """The mean over S of -log of the softmax weight (temperature tau) of a row's real class-mean
    feature against the row's other same-class synthetic rows: per class k, the cross-entropy of
    target 0 over the scores [h e_k | h h^T] / tau, whose diagonal (a row against itself) is -inf."""
    if ctx.real_features is None or ctx.real_labels is None:
        raise ContextError("intra needs the real dataset")
    emb, _ = _class_means(ctx.feat(ctx.real_features)[0], np.asarray(ctx.real_labels), c)
    h_s, vjp = ctx.feat(s)
    total, g = 0.0, np.zeros_like(h_s)
    for k in np.unique(y):
        rows = y == k
        h = h_s[rows]
        sims = h @ h.T
        np.fill_diagonal(sims, -np.inf)
        value, q = _loss_value_and_grad(np.column_stack([h @ emb[k], sims]) / ctx.tau,
                                        np.zeros(len(h), dtype=np.int64), "cross_entropy")
        weight = len(h) / len(s)
        total += weight * value
        g[rows] = weight * (q[:, :1] * emb[k] + (q[:, 1:] + q[:, 1:].T) @ h) / ctx.tau
    return total, vjp(g)


def _con_cos(ctx, s, y, c, cosine):
    """Per class, the mean over ordered pairs of different models of the row-matched contrastive
    loss (con, temperature tau) or cosine similarity (cos) of their penultimate features."""
    if len(ctx.models) < 2:
        raise ContextError(f"{'cos' if cosine else 'con'} needs at least two models")
    n_h, feats = len(ctx.models), [_nfk_features(m, s) for m in ctx.models]
    ups, total = [np.zeros_like(h) for h, _ in feats], 0.0
    for k in range(c):
        rows = y == k
        for j, l in itertools.permutations(range(n_h), 2):
            a, b = feats[j][0][rows], feats[l][0][rows]
            if cosine:
                scale = 1.0 / (n_h**2 * len(a))
                sim, cos_vjp = _cosine(a, b)
                total += scale * float(np.trace(sim))
                g_a, g_b = cos_vjp(scale * np.eye(len(a)))
            else:  # row i of a against every row of b, its own pairing i the target
                value, q = _loss_value_and_grad(a @ b.T / ctx.tau, np.arange(len(a)), "cross_entropy")
                total += value / n_h**2
                coef = q / (n_h**2 * ctx.tau)
                g_a, g_b = coef @ b, coef.T @ a
            ups[j][rows] += g_a
            ups[l][rows] += g_b
    return total, sum(vjp(up) for (_, vjp), up in zip(feats, ups))


def _dis(ctx, s, y, c):
    """The class-averaged cross-entropy of each real row's class under the softmax of its
    feature's inner products with the synthetic class-mean features."""
    if ctx.real_features is None or ctx.real_labels is None:
        raise ContextError("dis needs the real dataset")
    h_s, vjp = ctx.feat(s)
    proto, proto_vjp = _class_means(h_s, y, c)
    h_t, rl = ctx.feat(ctx.real_features)[0], np.asarray(ctx.real_labels)
    total, g = 0.0, np.zeros_like(proto)
    for k in range(c):
        h = h_t[rl == k]
        value, q = _loss_value_and_grad(h @ proto.T, np.full(len(h), k), "cross_entropy")  # (B, C) scores
        total += value
        g += q.T @ h / c
    return total / c, vjp(proto_vjp(g))


_REG_TERMS = {"rep": _rep, "div": _div, "inter": _inter, "intra": _intra, "dis": _dis,
              "con": partial(_con_cos, cosine=False), "cos": partial(_con_cos, cosine=True)}


def regularizer_eval(reg_id: str, ctx: RegContext):
    """One regularizer's value and its gradient with respect to ``ctx.synthetic_features``
    (0.0 for proj, which scores model parameters); raises ContextError when context is missing.

    inter, intra, con, cos and dis map their gradient back through one reverse sweep per
    model. At a nonsmooth point the gradient is the subgradient of the active branch: the
    first maximizing row in rep and div, only the inter hinges with 0 < gap < tau, and 0 at gap 0.
    """
    if reg_id not in REGULARIZERS:
        raise ConfigError(f"unknown regularizer {reg_id!r}")
    if ctx.tau <= 0:
        raise ConfigError("tau must be positive")
    if reg_id == "proj":
        if ctx.theta is None or ctx.trajectory is None:
            raise ContextError("proj needs theta and an expert trajectory")
        basis = np.asarray(ctx.trajectory).T  # (P, K)
        coef, *_ = np.linalg.lstsq(basis, ctx.theta, rcond=None)
        return float(np.abs(ctx.theta - basis @ coef).sum()), 0.0
    if ctx.synthetic_features is None or ctx.synthetic_labels is None:
        raise ContextError("regularizer needs the synthetic set in context")
    s, y = np.asarray(ctx.synthetic_features, dtype=np.float64), np.asarray(ctx.synthetic_labels)
    return _REG_TERMS[reg_id](ctx, s, y, ctx.class_count or int(y.max()) + 1)


# ---------------------------------------------------------------------------
# kernel ridge regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrrPredictor:
    """Closed-form kernel ridge predictor p(x) = K_{x,S} alpha."""

    spec: KernelSpec
    support: np.ndarray
    alpha: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return gram_matrix(self.spec, x, self.support) @ self.alpha

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self(x), axis=1)


def krr_solve(k_ss: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    try:
        return np.linalg.solve(k_ss + lam * np.eye(k_ss.shape[0]), targets)
    except np.linalg.LinAlgError as e:
        raise SolveError(f"ridge system singular (lambda={lam}): {e}") from None


def krr_fit_targets(spec: KernelSpec, support: np.ndarray, targets: np.ndarray, lam: float) -> KrrPredictor:
    """Ridge fit against explicit real-valued targets (one column per output)."""
    support = np.atleast_2d(np.asarray(support, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape[0] != support.shape[0]:
        raise ShapeError("one target row per support point required")
    alpha = krr_solve(gram_matrix(spec, support, support), targets, lam)
    return KrrPredictor(spec=spec, support=support, alpha=alpha)


def krr_fit(spec: KernelSpec, s: SyntheticDataset, lam: float) -> KrrPredictor:
    """Ridge fit of the synthetic set with one-hot class targets."""
    return krr_fit_targets(spec, s.features, one_hot(s.labels, s.class_count), lam)


def _krr_fit(spec, s, y_s, lam):
    """The ridge fit of S, built once while S holds still (K(S, S) with its VJP, and alpha), as two
    functions of T's rows (x_t, y_t): the fit's mean squared prediction error on T with its gradient
    with respect to S's rows, and its gradient with respect to T's rows. Each Gram matrix's share
    is the VJP that ``gram_and_vjp`` returns with it."""
    g, vjp_ss = gram_and_vjp(spec, s, s)
    alpha = krr_solve(g, y_s, lam)

    def loss_and_grad_s(x_t, y_t):
        k_ts, vjp_ts = gram_and_vjp(spec, x_t, s)
        resid = k_ts @ alpha - y_t
        r = (2.0 / len(y_t)) * resid
        m1 = alpha @ (k_ts.T @ r).T @ np.linalg.inv(g + lam * np.eye(g.shape[0]))
        return float(np.sum(resid**2) / len(y_t)), vjp_ts((alpha @ r.T).T) - vjp_ss(m1 + m1.T)

    def grad_t(x_t, y_t):  # K(S, T)'s VJP at the residual of K(T, S)
        r = (2.0 / len(y_t)) * (gram_matrix(spec, x_t, s) @ alpha - y_t)
        return gram_and_vjp(spec, s, x_t)[1](alpha @ r.T)

    return loss_and_grad_s, grad_t


def _krr_problem(cfg: MethodConfig, t: LabeledDataset, s0: SyntheticDataset):
    """Gradient descent on the ridge-predictor loss over T; RidgeDC when ridge_robust set."""
    spec = kernel_or_default(cfg.kernel, t.features)
    lam = cfg.ridge_lambda if cfg.ridge_lambda > 0 else 1e-8
    y_t = one_hot(t.labels, t.class_count)
    y_s = one_hot(s0.labels, s0.class_count)
    robust = cfg.variant("ridge_robust")
    eps, adv_steps = robust["eps"], robust["steps"]
    delta = np.zeros_like(t.features)

    def objective(s, step):
        nonlocal delta
        loss_and_grad_s, grad_t = _krr_fit(spec, s, y_s, lam)
        if eps > 0:
            step_size = eps / max(adv_steps, 1) * 2.5
            for _ in range(adv_steps):
                g = grad_t(np.clip(t.features + delta, 0.0, 1.0), y_t)
                delta = np.clip(delta + step_size * np.sign(g), -eps, eps)
        x_eff = np.clip(t.features + delta, 0.0, 1.0) if eps > 0 else t.features
        return (*loss_and_grad_s(x_eff, y_t), {})

    log = StepLog(meta={"method": "krr", "kernel": spec.describe(), "lambda": lam, "eps": eps})
    meta = {"kernel": spec.describe(), "lambda": lam, "seed": cfg.seed, "eps": eps}
    return np.array(s0.features, copy=True), objective, log, _clip01, _finish(s0, "krr", meta, log)


# ---------------------------------------------------------------------------
# bilevel flavors
# ---------------------------------------------------------------------------


def _unroll(model: Mlp, theta, s, labels, loss, eta, epochs, where):
    """SGD of size eta on (s, labels) from ``theta`` over ``epochs``, each a list of row batches
    (index arrays, ``np.arange(len(s))`` for a full batch): the iterates [theta, end of epoch 1,
    ...] and per epoch a tape of (rows, theta_k, grad_theta L_k)."""
    net, prev, ends, tapes = _FlatSgd(model, theta, s, labels, loss, eta), theta, [theta], []
    with np.errstate(over="ignore", invalid="ignore"):
        for e, batches in enumerate(epochs):
            tapes.append([])
            for rows in batches:
                net.step(rows, f"{where} {e}")
                tapes[-1].append((rows, prev, net.grad.copy()))
                prev = net.params.copy()
            ends.append(prev)
    return ends, tapes


def _unroll_adjoint(model: Mlp, tapes, adjoints, s, labels, loss, eta):
    """The (s, eta)-gradient of an outer loss whose theta-gradient at the end of epoch e is ``adjoints[e]``:
    one reverse sweep (Maclaurin, Duvenaud & Adams 2015) back through ``_unroll``'s tapes, with one
    tangent sweep over each step's rows at views into its theta_k (the input tangent and the
    Hessian-vector product)."""
    lam, g_s, g_eta = np.zeros(model.param_count), np.zeros_like(s), 0.0
    hvp = np.empty(model.param_count)
    hvp_views = model._split_flat(hvp)
    for tape, adjoint in zip(reversed(tapes), reversed(adjoints)):
        lam += adjoint  # lam is the adjoint of theta_{k+1}
        for rows, theta_k, g_k in reversed(tape):
            g_s[rows] -= eta * model.input_grad_param_tangent(s[rows], labels[rows], loss, lam, grads=hvp_views,
                                                              params=theta_k)
            g_eta -= lam @ g_k
            lam = lam - eta * hvp
    return g_s, g_eta


def _checked(value, grad):
    """(value, grad), or a DivergenceError when either is non-finite."""
    if not (math.isfinite(value) and np.isfinite(grad).all()):
        raise DivergenceError("outer loss or hypergradient became non-finite")
    return value, grad


def _cig_ridge_problem(cfg: MethodConfig, t: LabeledDataset, s0: SyntheticDataset):
    """Implicit-gradient condensation: the implicit-function formula on the convex ridge inner problem."""
    lam = cfg.ridge_lambda if cfg.ridge_lambda > 0 else 1e-6
    y_t = one_hot(t.labels, t.class_count)
    y_s = one_hot(s0.labels, s0.class_count)
    objective = lambda s, step: (*cig_ridge_value_and_grad(s, y_s, t.features, y_t, lam), {})
    log = StepLog(meta={"method": "cig_ridge", "lambda": lam})
    meta = {"lambda": lam, "seed": cfg.seed}
    return np.array(s0.features, copy=True), objective, log, _clip01, _finish(s0, "cig_ridge", meta, log)


def cig_ridge_value_and_grad(s: np.ndarray, y_s: np.ndarray, x_t: np.ndarray, y_t: np.ndarray, lam: float):
    """Outer loss of the convex ridge inner problem and its implicit-function gradient.

    Inner: w* = argmin 0.5 sum_j ||w^T s_j - y_j||^2 + 0.5 lam ||w||^2, solved with
    the explicit inner Hessian H = S^T S + lam I; outer: mean squared error on T.
    """
    n = x_t.shape[0]
    hess = s.T @ s + lam * np.eye(s.shape[1])
    try:
        w = np.linalg.solve(hess, s.T @ y_s)  # (n_dim, C)
    except np.linalg.LinAlgError as e:
        raise SolveError(f"inner ridge Hessian singular: {e}") from None
    resid_t = x_t @ w - y_t
    value = float(np.sum(resid_t**2) / n)
    grad_w = (2.0 / n) * x_t.T @ resid_t  # (n_dim, C)
    v = np.linalg.solve(hess, grad_w)  # (n_dim, C)
    resid_s = s @ w - y_s  # (M, C)
    # dF/ds_j = -sum_c [(s_j . w_c - y_jc) v_c + (s_j . v_c) w_c]
    grad_s = -(resid_s @ v.T + (s @ v) @ w.T)
    return value, grad_s


def _trajectory_problem(cfg, t, s0):
    """Summed distance of the student's epoch snapshots to the expert's through the student's
    minibatch epochs, with its exact S-gradient from one adjoint sweep over the SGD tape."""
    init_seed = derive_seed(cfg.seed, "traj_init")
    widths = (t.n_features, *cfg.hidden, t.class_count)
    m0 = Mlp.init(widths, cfg.activation, seed=init_seed)
    train_cfg = TrainConfig(
        learning_rate=cfg.inner_lr,
        epochs=cfg.inner_steps,
        batch_size=cfg.inner_batch,
        loss=cfg.loss,
        seed=derive_seed(cfg.seed, "traj_train"),
    )
    _, expert_stack = sgd_train(m0, t, train_cfg, record=True)
    theta0, lr = m0.flat_params(), train_cfg.learning_rate

    def objective(s, step):
        ends, tapes = _unroll(m0, theta0, s, s0.labels, cfg.loss, lr, epoch_batches(len(s), train_cfg), "epoch")
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = (np.stack(ends) - expert_stack)[1:]
            dists = np.linalg.norm(diffs, axis=1)
            adjoints = diffs / np.where(dists > 0, dists, 1.0)[:, None]  # the subgradient 0 at distance 0
            g_s, _ = _unroll_adjoint(m0, tapes, adjoints, s, s0.labels, cfg.loss, lr)
        return (*_checked(float(np.sum(dists)), g_s), {})

    log = StepLog(meta={"method": "trajectory", "inner_epochs": cfg.inner_steps})
    meta = {"seed": cfg.seed}
    return np.array(s0.features, copy=True), objective, log, _clip01, _finish(s0, "trajectory", meta, log)


def _bptt_value_and_grad(cfg, t, model, labels, theta_start, s, eta, window):
    """The outer loss after ``window`` full-batch inner steps of size eta on (s, labels) from
    ``theta_start``, and its exact gradient in v = (s.ravel(), eta): one adjoint sweep back
    through the ``_unroll`` tape (2 window P floats). robdc differentiates at the fixed PGD
    point, and curvdc adds curv_lambda times lambda_max of T's loss Hessian (``_sharpness``)."""
    robust = cfg.variant("robust_outer")
    ends, tapes = _unroll(model, theta_start, s, labels, cfg.loss, eta, [(np.arange(len(s)),)] * window, "inner step")
    with np.errstate(over="ignore", invalid="ignore"):
        trained = model.with_params(ends[-1])
        x_adv = pgd_attack(trained, t.features, t.labels, robust["eps"], steps=robust["steps"], loss=cfg.loss)
        value, lam, _ = trained.backward(x_adv, t.labels, cfg.loss, input_part=False)
        if cfg.method == "curvdc":
            curv, danskin, _ = _sharpness(trained, loss_hvp(trained, t.features, t.labels, cfg.loss), t.features,
                                          t.labels, cfg, "curv", cfg.curv_lambda)
            value += cfg.curv_lambda * curv
            lam += danskin
        g_s, g_eta = _unroll_adjoint(model, tapes, [0.0] * (window - 1) + [lam], s, labels, cfg.loss, eta)
    return _checked(value, np.append(g_s.ravel(), g_eta))


def _bptt_problem(cfg, t, s0):
    """BPTT-family condensation: the outer loss differentiated through K full-batch inner steps,
    over v = (s.ravel(), eta)."""
    model = Mlp.init((t.n_features, *cfg.hidden, t.class_count), cfg.activation,
                     seed=derive_seed(cfg.seed, "bptt_init"))
    theta = model.flat_params()
    shape, labels = s0.features.shape, s0.labels
    full = [(np.arange(shape[0]),)]  # an epoch of one SGD step on every row
    rat = "rat_truncation" in cfg.variants
    window = cfg.variants["rat_truncation"]["window"] if rat else cfg.inner_steps
    rng_rat = derived_rng(cfg.seed, "rat")

    def objective(v, step):
        nonlocal theta
        s, eta = v[:-1].reshape(shape), v[-1]
        # after step 0, advance the model one inner step; then RaT-BPTT's steps to the window start
        advance = int(step > 0)
        offset = int(rng_rat.integers(0, cfg.inner_steps - window + 1)) if rat else 0
        ends, _ = _unroll(model, theta, s, labels, cfg.loss, eta, full * (advance + offset), "inner step")
        theta = ends[advance]
        return (*_bptt_value_and_grad(cfg, t, model, labels, ends[-1], s, eta, window), {"eta": float(eta)})

    def project(v):
        return np.append(_clip01(v[:-1]), max(v[-1], 1e-6))

    log = StepLog(meta={"method": cfg.method, "window": window, "eps": cfg.variant("robust_outer")["eps"]})

    def finish(v):
        meta = {"seed": cfg.seed, "eta_final": float(v[-1]), "window": window}
        return _synthetic(s0, v[:-1].reshape(shape), cfg.method, meta), log

    return np.append(s0.features.ravel(), cfg.inner_lr), objective, log, project, finish


# ---------------------------------------------------------------------------
# the matching-objective engine (dm / gm / mmd / moment / sam)
# ---------------------------------------------------------------------------


class _Transforms:
    """Per-step augmentation pipeline with the adjoint chain for the synthetic side."""

    def __init__(self, cfg: MethodConfig, step: int):
        self.cfg = cfg
        self.step = step
        self.ops = [v for v in _IMAGE_VARIANTS if v in cfg.variants]
        self.siamese_params = None
        if "siamese" in cfg.variants:
            op = cfg.variants["siamese"]["op"]
            c, h, w = cfg.image_shape
            self.siamese_params = (op, draw_siamese_params(op, (1, c, h, w), derive_seed(cfg.seed, f"siamese:{step}")))

    def output_dim(self, d: int) -> int:
        """The row width ``apply`` gives rows of width d: multiform adds r^2 channels per channel."""
        if "multiform" not in self.cfg.variants:
            return d
        r = self.cfg.variants["multiform"]["r"]
        return d * (r * r + 1)

    def apply(self, rows: np.ndarray, labels: np.ndarray, side: str, classes):
        """Transform class batches: one (m, d) batch of a single class, or a (k, m, d) stack of
        the batches of k classes. Returns (rows', labels', vjp to the input rows), laid out as
        given. The rows are clipped to [0, 1] once, on entry, and the vjp is zero where a row's
        entry lay outside; every op maps [0, 1] into itself. Row-wise ops and their VJPs run
        once over all rows; channel_multiform draws its mixing matrices per class."""
        if not self.ops:
            return rows, labels, lambda g: g
        c, h, w = self.cfg.image_shape
        raw = np.asarray(rows, dtype=np.float64).reshape(-1, c, h, w)
        data = ImageBatch(np.clip(raw, 0.0, 1.0)).data
        vjps = []  # each op's adjoint, in the order the ops ran
        for op in self.ops:
            if op == "siamese":
                name, params = self.siamese_params
                vjps.append(partial(siamese_vjp, data=data, op=name, params=params))
                data = _apply_siamese(data, name, params)
            elif op == "multiform":
                r = self.cfg.variants["multiform"]["r"]
                vjps.append(partial(multi_formation_vjp, r=r, in_shape=data.shape))
                data = multi_formation(ImageBatch(data), r).data
            else:
                outs, backs = [], []
                for y, part in zip(classes, np.split(data, len(classes))):
                    part = ImageBatch(part)
                    seed = derive_seed(self.cfg.seed, f"channel:{self.step}:{side}:{y}")
                    mixing = _mixing_matrices(part.shape[0], part.shape[1], seed)
                    backs.append(partial(channel_multi_formation_vjp, x=part, mixing=mixing))
                    outs.append(channel_multi_formation(part, mixing=mixing).data)
                vjps.append(lambda g, backs=backs: np.concatenate(
                    [back(g_y) for back, g_y in zip(backs, np.split(g, len(backs)))]))
                data = np.concatenate(outs)
                labels = np.tile(labels, 4)

        def vjp(grad_rows: np.ndarray) -> np.ndarray:
            g = grad_rows.reshape(data.shape)
            for back in reversed(vjps):
                g = back(g)
            return np.where((raw < 0.0) | (raw > 1.0), 0.0, g).reshape(rows.shape)

        return data.reshape(*rows.shape[:-2], -1, data[0].size), labels, vjp


def _make_ensemble(cfg: MethodConfig, input_dim: int, class_count: int, t_matched, t_labels, step: int):
    models = [Mlp.init((input_dim, *cfg.hidden, class_count), cfg.activation,
                       seed=derive_seed(cfg.seed, f"model:{step}:{i}")) for i in range(cfg.ensemble)]
    if cfg.provenance == "pretrained":  # the members train as one stack, each with its own shuffling seed
        train_cfg = TrainConfig(learning_rate=cfg.inner_lr, epochs=cfg.pretrain_epochs,
                                batch_size=cfg.inner_batch, loss=cfg.loss)
        seeds = [derive_seed(cfg.seed, f"pretrain:{step}:{i}") for i in range(cfg.ensemble)]
        models, _ = sgd_train_stack(models, (t_matched, t_labels), train_cfg, seeds)
    return models


def condense(cfg: MethodConfig, t: LabeledDataset, s0: SyntheticDataset):
    """Run one condensation method; returns (synthetic set, per-step objective log).

    Labels stay fixed; only features (or latent coordinates) move. Input-space
    features are clipped to [0, 1] after every step.
    """
    if s0.class_count != t.class_count:
        raise ConfigError("synthetic classes must match the real dataset")
    if cfg.method in ("kcenter", "kmeans"):
        return _condense_coreset(cfg, t, s0)
    problems = {"krr": _krr_problem, "cig_ridge": _cig_ridge_problem, "trajectory": _trajectory_problem,
                **dict.fromkeys(("bptt", "robdc", "curvdc"), _bptt_problem),
                **dict.fromkeys(MATCHING_METHODS, _matching_problem)}
    v0, objective, log, project, finish = problems[cfg.method](cfg, t, s0)
    return finish(_descend(cfg, v0, objective, log, project))


def _condense_coreset(cfg, t, s0):
    part = per_class_partition(t)
    feats, scores = [], []
    for y in range(t.class_count):
        pts = t.features[part[y]]
        if cfg.method == "kcenter":
            idx, radius = kcenter_covering(pts, s0.per_class_size)
            feats.append(pts[np.sort(idx)])
            scores.append(radius)
        else:
            centers, inertias = kmeans_coreset(pts, s0.per_class_size, iters=max(cfg.outer_steps, 10),
                                               seed=derive_seed(cfg.seed, f"kmeans:{y}"))
            feats.append(centers)
            scores.append(inertias[-1])
    objective = float(max(scores) if cfg.method == "kcenter" else sum(scores))
    log = StepLog(meta={"method": cfg.method, "per_class_scores": scores})
    log.append(step=0, objective=objective, method_value=objective, grad_norm=0.0)
    labels = np.repeat(np.arange(t.class_count, dtype=np.int64), s0.per_class_size)
    return SyntheticDataset(features=np.vstack(feats), labels=labels, per_class_size=s0.per_class_size,
                            origin=f"condense:{cfg.method}", class_count=t.class_count, meta={"seed": cfg.seed}), log


def _matching_problem(cfg, t, s0):
    """The matching run as (v0, objective, log, project, finish) for ``_descend``;
    ``finish(v)`` turns the final variables into (synthetic set, log)."""
    to_matched, to_variables, fwd, regime_vjp, to_input = regime_maps(cfg.regime, cfg.autoencoder)
    t_matched, v0 = to_matched(t.features), np.array(to_variables(s0.features), copy=True)
    part_t = per_class_partition(t)
    part_s = per_class_partition(s0)
    classes = range(t.class_count)
    s_labels = s0.labels

    cfg.check_image_shape(t_matched.shape[1])
    kernel = kernel_or_default(cfg.kernel, t_matched) if cfg.method == "mmd" else cfg.kernel
    # the mean-embedding route: mmd with random features, or any dp_merf run
    embed_path = "dp_merf" in cfg.variants or (cfg.method == "mmd" and kernel.family == "random_feature")
    merf_sigma = cfg.variant("dp_merf")["sigma"]
    rng_merf = derived_rng(cfg.seed, "dp_merf")
    dp_sigma = cfg.variant("dp_grad")["sigma"]
    contrastive = "contrastive" in cfg.variants
    rho = cfg.variants["curvature"]["rho"] if "curvature" in cfg.variants else None
    proxy = cfg.variants["kmeans_proxy"] if "kmeans_proxy" in cfg.variants else None

    model_dim = _Transforms(cfg, 0).output_dim(t_matched.shape[1])
    kernel_objective = embed_path or cfg.method == "mmd"
    n_e = 1 if kernel_objective else cfg.ensemble  # the members whose terms the objective averages
    # stack: dm, moment and sam's per-layer (M, 1, in, out) weights and (M, 1, out) biases, views
    # of the ensemble's stacked (M, 1, P) parameters; built by their first step after a refresh
    ensemble = stack = None
    # S's workspace, made at the first step (S's transformed (C, m, d') stack keeps one shape): the
    # stacked sweeps' buffers, or gm's (C, P) S class gradients, which every member and step writes
    # over, with their per-layer views and the loss's buffers
    sweep = None
    t_rows = {y: t_matched[part_t[y]] for y in classes}  # the k-means centers under kmeans_proxy
    # every member's T statistics, as ``t_stat`` builds them; kept until an ensemble or proxy
    # refresh unless the T transform depends on the step (siamese and channel_multiform draw per step)
    t_stats = None
    cache_t = not any(name in cfg.variants for name in ("siamese", "channel_multiform"))
    s_rows = np.stack(part_s)  # (C, m): S's side is one stack of the class batches (per_class_size rows each)
    dp_invocations = grad_draws = 0

    log = StepLog(meta={"method": cfg.method, "regime": cfg.regime,
                        "kernel": kernel.describe() if kernel else None})
    reg_weights = dict(cfg.regularizers)
    expert = None  # the expert trajectory whose subspace proj scores the first member's parameters against
    if "proj" in reg_weights:
        base = Mlp.init((model_dim, *cfg.hidden, t.class_count), cfg.activation,
                        seed=derive_seed(cfg.seed, "proj_expert"))
        tcfg = TrainConfig(learning_rate=cfg.inner_lr, epochs=max(cfg.inner_steps, 1),
                           batch_size=cfg.inner_batch, loss=cfg.loss, seed=derive_seed(cfg.seed, "proj_train"))
        _, expert = sgd_train(base, (t_matched, t.labels), tcfg, record=True)

    def t_stat(tr):
        """Every member's T statistics, as ``s_terms`` reads them, from each class's T rows under
        the step's transforms ``tr``. The kernel families have one member: a list over the
        classes of the dp_merf-noised mean embeddings, or for the Gram route one (classes, (k, A,
        n) stack of their rows, their k means k(T_y, T_y)) per group of the k classes with A T
        rows each, in class order. dm, moment and sam stack each ``_feature_stats`` statistic
        into one (M, C, h) array; gm keeps per member a (C, P) array of the dp_grad-clipped and
        noised class-mean gradients. T forwards run per member and class."""
        nonlocal dp_invocations, grad_draws
        t_side = [tr.apply(t_rows[y], np.full(t_rows[y].shape[0], y, dtype=np.int64), "t", [y])[:2] for y in classes]
        if embed_path:  # sigma 0 adds zeros
            means = [random_feature_map(kernel, rows).mean(axis=0) for rows, _ in t_side]
            return [m + merf_sigma * rng_merf.normal(size=m.shape) for m in means]
        if kernel_objective:
            groups = {}  # T row count -> its classes, in class order
            for y, (rows, _) in enumerate(t_side):
                groups.setdefault(rows.shape[0], []).append(y)
            rows_t = [rows for rows, _ in t_side]
            return [(ys, np.stack([rows_t[y] for y in ys]), [gram_mean(kernel, rows_t[y], rows_t[y]) for y in ys])
                    for ys in groups.values()]
        if cfg.method != "gm":
            members = ([np.stack(stat) for stat in zip(*(_feature_stats(cfg.method, model.forward_batch(rows)[1])
                                                       for rows, _ in t_side))] for model in ensemble)
            return [np.stack(stat) for stat in zip(*members)]
        grad_draws += 1
        rng_grad = derived_rng(cfg.seed, f"dp_grad:{tr.step}") if dp_sigma > 0 else None
        members = []
        for model in ensemble:
            members.append(np.empty((len(t_side), model.param_count)))
            for stat, (rows, labels) in zip(members[-1], t_side):
                model.backward(rows, labels, cfg.loss, out=stat, input_part=False)
                if dp_sigma > 0:  # clip to norm 1, then add Gaussian noise
                    stat /= max(np.linalg.norm(stat), 1.0)
                    stat += dp_sigma * rng_grad.normal(size=stat.shape)
                    dp_invocations += 1
        return members

    def s_terms(stats, rs, ls):
        """Yields every member's S-side terms against ``t_stat``'s statistics, in the ensemble's
        order: (values, gradient with respect to the (C, m, d') stack ``rs`` of S's transformed
        rows). dm, moment and sam take them all from one forward and one reverse sweep of ``rs``
        through the ensemble's stacked weights, into the one workspace, where the gradients live
        until the next step. gm takes each member's from a forward, a reverse and a tangent sweep
        of the stack in the workspace made at the first step: S's loss buffers (its labels checked
        once) and the (C, P) buffer ``g_s``, where the reverse writes S's class gradients, then
        their differences from T's. The reverse also writes each hidden layer's act' over its z
        for the tangent sweep, which runs along the undoubled differences; its (C, m, d') result
        is doubled in place. The sweep is linear in its direction and doubling is exact, so these
        are the bits of sweeping along the doubled differences, without a pass over ``g_s``.
        Contrastive gm gives one value, the kernel families their one member's: the mean
        embeddings by class, and the Gram route from one ``mmd_squared_and_grad_s`` call per group
        of classes with equal T counts (one call when the split leaves them equal)."""
        nonlocal stack, sweep
        if cfg.method == "gm":
            if sweep is None:  # every member has the same widths, so g_s's views serve them all
                _check_labels(ls, t.class_count)
                g_s = np.empty_like(stats[0])
                sweep = g_s, ensemble[0]._split_flat(g_s), _loss_workspace((*ls.shape, t.class_count))
            g_s, grads, loss_out = sweep
            for model, stat in zip(ensemble, stats):
                w, act = model.weights, cfg.activation
                zs, acts = _forward_sweep(w, model.biases, act, rs)
                _, g = _loss_value_and_grad(acts[-1], ls, cfg.loss, loss_out)
                _reverse_sweep(w, act, zs, acts, g, grads=grads, input_part=False,
                               out=([None] * len(w), [None, *zs[:-1]]))
                values, diffs = _gradient_gap(contrastive, stat, g_s)
                direction = grads if diffs is g_s else model._split_flat(diffs)
                gx = _tangent_sweep(w, act, zs, acts, g, cfg.loss, *direction, aps=zs[:-1])
                yield values, np.multiply(gx, 2.0, out=gx)
        elif not kernel_objective:
            if stack is None:
                stack = ensemble[0]._split_flat(np.stack([m.flat_params() for m in ensemble])[:, None])
            weights, biases = stack
            if sweep is None:
                sweep = _sweep_workspace(ensemble[0].widths, (len(ensemble), *rs.shape[:-1]))
            _, forward, reverse = sweep
            zs, acts = _forward_sweep(weights, biases, cfg.activation, rs, forward)
            values, upstream = _feature_gap(cfg.method, stats, acts[1:])  # (M, C) values
            g0 = upstream[-1] if upstream[-1] is not None else np.zeros_like(acts[-1])
            yield from zip(values, _reverse_sweep(weights, cfg.activation, zs, acts, g0, upstream[:-1], out=reverse))
        elif embed_path:
            values, grads = [], []
            for stat, r in zip(stats, rs):
                phi, pullback = _feature_map(kernel, None, r)
                diff = stat - phi.mean(axis=0)
                values.append(float(_squared_norms(diff)))
                grads.append(pullback(diff) * (-2.0 / r.shape[0]))
            yield values, np.stack(grads)
        else:
            values, grads = np.empty(len(rs)), np.empty(rs.shape)
            for ys, rows_t, ktt in stats:
                values[ys], grads[ys] = mmd_squared_and_grad_s(kernel, rows_t, rs[ys], ktt)
            yield values, grads

    def objective(v, step):
        nonlocal ensemble, stack, t_stats
        tr = _Transforms(cfg, step)
        if (not kernel_objective or reg_weights) and (ensemble is None or step % cfg.refresh == 0):
            ensemble, stack = _make_ensemble(cfg, model_dim, t.class_count, t_matched, t.labels, step), None
            if not kernel_objective:  # kernel statistics do not depend on the models
                t_stats = None
        if proxy is not None and step % proxy["period"] == 0:
            for y in classes:
                t_rows[y], _ = kmeans_coreset(
                    t_matched[part_t[y]], proxy["k"] or min(16, part_t[y].size),
                    iters=25, seed=derive_seed(cfg.seed, f"proxy:{step}:{y}"),
                )
            t_stats = None
        if t_stats is None:  # a refresh, or T rows that this step's transform redraws
            t_stats = t_stat(tr)

        s_matched = fwd(v)
        rs, ls, vjp_s = tr.apply(s_matched[s_rows], s_labels[s_rows], "s", classes)
        value = 0.0
        grad_s = np.zeros((*s_rows.shape, s_matched.shape[1]))  # every member's terms, in the ensemble's order
        for i, (values, g) in enumerate(s_terms(t_stats, rs, ls)):
            for val in values:
                value += val / n_e
            grad_s += vjp_s(g) / n_e
            if rho is not None:
                lam, grad_lam = _curvature_penalty(ensemble[i], t_matched, t.labels, s_matched, s_labels, cfg)
                value += 0.5 * rho * lam / n_e
                grad_s += (0.5 * rho / n_e) * grad_lam[s_rows]
        if not cache_t:
            t_stats = None
        grad_matched = np.zeros_like(s_matched)
        grad_matched[s_rows] = grad_s  # s_rows partitions S's rows: one scatter

        reg_values = {}
        if reg_weights:  # scored on the rows the ensemble sees, so their gradients join grad_matched
            ctx = RegContext(s_matched, s_labels, t.class_count, t_matched, t.labels, tuple(ensemble), tau=cfg.reg_tau,
                             trajectory=expert, theta=None if expert is None else ensemble[0].flat_params())
            for name, weight in reg_weights.items():
                reg_values[name], g = regularizer_eval(name, ctx)
                grad_matched += weight * g
        extra = {"method_value": float(value), **{f"reg_{name}": float(x) for name, x in reg_values.items()}}
        return float(value + sum(reg_weights[k] * x for k, x in reg_values.items())), regime_vjp(grad_matched), extra

    def finish(v):
        if "dp_grad" in cfg.variants:
            log.meta["dp_grad"] = {"sigma": dp_sigma, "clip_norm": 1.0, "refreshes": grad_draws,
                                   "mechanism_invocations": dp_invocations}
        meta = {"seed": cfg.seed, "regime": cfg.regime, "kernel": kernel.describe() if kernel else None}
        return _synthetic(s0, np.asarray(to_input(v)), cfg.method, meta), log

    return v0, objective, log, _clip01 if cfg.regime.endswith("_input") else (lambda v: v), finish


def _sharpness(model, hvp, x, y, cfg, salt, scale):
    """lambda_max of the Hessian operator ``hvp`` at the model's parameters theta (``max_eigenvalue``,
    seeded from ``salt``) and, by Danskin's theorem, ``scale`` times the gradient of u^T H(x, y) u at
    its top unit eigenvector u: one central difference of two tangent sweeps of (x, y) along u at
    theta +/- h u, each writing its parameter part (H(theta +/- h u) u) and its input part.
    Returns (lambda_max, parameter part, input part)."""
    lam, u = max_eigenvalue(hvp, model.param_count, iters=cfg.curv_iters, seed=derive_seed(cfg.seed, salt))
    h, theta, sweeps = 1e-5, model.flat_params(), []
    for at in (h, -h):
        hu = np.empty(model.param_count)
        sweeps.append((hu, model.input_grad_param_tangent(x, y, cfg.loss, u, grads=model._split_flat(hu),
                                                          params=theta + at * u)))
    return (lam, *(scale * (plus - minus) / (2 * h) for plus, minus in zip(*sweeps)))


def _curvature_penalty(model, x_t, y_t, x_s, y_s, cfg):
    """lambda^+ of H_T - H_S at the model parameters from exact Hessian-vector products, and its
    x_s-gradient: by Danskin's theorem -grad_{x_s} u^T H_S u at the top unit eigenvector u."""
    hvp_t, hvp_s = loss_hvp(model, x_t, y_t, cfg.loss), loss_hvp(model, x_s, y_s, cfg.loss)
    lam, _, grad_s = _sharpness(model, lambda v: hvp_t(v) - hvp_s(v), x_s, y_s, cfg, "curv_gm", -1.0)
    return lam, grad_s
