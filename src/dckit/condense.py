"""Condensation objectives: outer-loop optimizers over the synthetic set, regularizers,
coreset selectors, and the privacy/robustness variants.

Matching objectives (dm/gm/mmd/moment/sam) follow the per-class convention and
approximate the hypothesis-space supremum by averaging over a periodically
refreshed model ensemble; their outer gradients are analytic. Bilevel flavors
use central finite differences over the synthetic coordinates.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .augment import (
    ImageBatch,
    _mixing_matrices,
    channel_multi_formation,
    channel_multi_formation_vjp,
    draw_siamese_params,
    multi_formation,
    multi_formation_vjp,
    siamese_augment,
    siamese_vjp,
)
from .data import LabeledDataset, SyntheticDataset, one_hot, per_class_partition
from .errors import (
    CapacityError,
    ConfigError,
    ContextError,
    DivergenceError,
    DomainError,
    ShapeError,
    SolveError,
)
from .kernels import (
    KernelSpec,
    _mmd_from_means,
    feature_map_batch,
    feature_map_input_jacobian,
    gram_matrix,
    has_analytic_grad,
    kernel_grad2,
    median_heuristic_spec,
    mmd_squared_grad_s,
)
from .models import (
    Mlp,
    TrainConfig,
    Trajectory,
    _FlatSgd,
    loss_hvp_fd,
    max_eigenvalue,
    lambda_max_estimate,
    pgd_attack,
    per_sample_loss,
    sgd_train,
)
from .seeding import derive_seed, derived_rng

METHODS = (
    "dm",
    "gm",
    "mmd",
    "moment",
    "sam",
    "krr",
    "trajectory",
    "bptt",
    "cig_ridge",
    "kcenter",
    "kmeans",
    "robdc",
    "curvdc",
)
MATCHING_METHODS = ("dm", "gm", "mmd", "moment", "sam")
BILEVEL_METHODS = ("bptt", "trajectory", "cig_ridge", "robdc", "curvdc")
VARIANTS = (
    "siamese",
    "multiform",
    "channel_multiform",
    "contrastive",
    "curvature",
    "kmeans_proxy",
    "dp_merf",
    "dp_grad",
    "robust_outer",
    "ridge_robust",
    "rat_truncation",
)
REGULARIZERS = ("intra", "inter", "rep", "div", "con", "cos", "dis", "proj")
_VARIANT_METHODS = {
    "dp_merf": {"mmd", "dm"},
    "dp_grad": {"gm"},
    "ridge_robust": {"krr"},
    "contrastive": {"gm"},
    "curvature": {"gm"},
    "kmeans_proxy": {"gm"},
    "robust_outer": {"bptt", "robdc"},
    "rat_truncation": {"bptt", "robdc", "curvdc"},
    "siamese": set(MATCHING_METHODS),
    "multiform": set(MATCHING_METHODS),
    "channel_multiform": set(MATCHING_METHODS),
}
_IMAGE_VARIANTS = ("siamese", "multiform", "channel_multiform")


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
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.outer_steps < 1:
            raise ConfigError("outer_steps must be >= 1")
        if self.outer_lr <= 0 or self.inner_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.refresh < 1 or self.ensemble < 1:
            raise ConfigError("refresh and ensemble must be >= 1")
        if self.ridge_lambda < 0:
            raise ConfigError("ridge_lambda must be >= 0")
        if self.provenance not in ("random_init", "pretrained"):
            raise ConfigError("provenance must be random_init or pretrained")
        for name in self.variants:
            if name not in VARIANTS:
                raise ConfigError(f"unknown variant {name!r}")
            allowed = _VARIANT_METHODS.get(name)
            if allowed is not None and self.method not in allowed:
                raise ConfigError(f"variant {name!r} is incompatible with method {self.method!r}")
        for name, params in self.variants.items():
            for key in ("sigma", "eps", "rho"):
                if key in params and params[key] < 0:
                    raise ConfigError(f"variant {name!r}: {key} must be >= 0")
        for name, weight in self.regularizers.items():
            if name not in REGULARIZERS:
                raise ConfigError(f"unknown regularizer {name!r}")
            if weight < 0:
                raise ConfigError("regularizer weights must be >= 0")
        if self.method == "robdc" and "robust_outer" not in self.variants:
            raise ConfigError("robdc needs the robust_outer variant (eps may be 0 for the degenerate ladder)")
        if any(v in self.variants for v in _IMAGE_VARIANTS):
            if self.image_shape is None:
                raise ConfigError("image variants need image_shape=(c, h, w)")
            if self.regime != "input_input":
                raise ConfigError("image variants only run in the input_input regime")
            if self.provenance == "pretrained":
                raise ConfigError("image variants require random_init model provenance")
            if "dp_merf" in self.variants:
                raise ConfigError("dp_merf uses a fixed feature embedding and excludes image variants")
        if self.regime != "input_input" and self.method not in MATCHING_METHODS:
            raise ConfigError("latent regimes are wired for the matching methods only")


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
    2-approximation starting from index 0. Returns (indices, covering radius).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    if not 1 <= m <= n:
        raise CapacityError(f"m must lie in [1, {n}], got {m}")
    d = cdist(pts, pts)
    if method not in ("auto", "greedy", "exact"):
        raise ConfigError("method must be auto, greedy, or exact")
    use_exact = method == "exact" or (method == "auto" and math.comb(n, m) <= 10**5)
    if use_exact:
        best_idx, best_r = None, np.inf
        for combo in itertools.combinations(range(n), m):
            r = d[:, combo].min(axis=1).max()
            if r < best_r - 1e-15:
                best_idx, best_r = combo, r
        return np.asarray(best_idx, dtype=np.int64), float(best_r)
    sel = [0]
    mind = d[0].copy()
    while len(sel) < m:
        nxt = int(np.argmax(mind))
        sel.append(nxt)
        mind = np.minimum(mind, d[nxt])
    return np.asarray(sel, dtype=np.int64), float(mind.max())


def kmeans_coreset(points: np.ndarray, k: int, iters: int = 50, seed: int = 0):
    """Lloyd's algorithm with k-means++ seeding; empty clusters re-seed to the farthest point.

    Returns (centers, inertia history); inertia is nonincreasing per iteration.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
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
        dist2 = cdist(pts, centers, "sqeuclidean")
        assign = np.argmin(dist2, axis=1)
        for j in range(k):
            rows = assign == j
            if rows.any():
                centers[j] = pts[rows].mean(axis=0)
            else:
                far = int(np.argmax(dist2.min(axis=1)))
                centers[j] = pts[far]
        inertias.append(float(cdist(pts, centers, "sqeuclidean").min(axis=1).sum()))
        if len(inertias) >= 2 and abs(inertias[-2] - inertias[-1]) <= 1e-15:
            break
    return centers, inertias


# ---------------------------------------------------------------------------
# regularizers (evaluated exactly as written; gradients in condense go through FD)
# ---------------------------------------------------------------------------


@dataclass
class RegContext:
    """What the regularizer formulas need: point sets, models, prototypes, trajectory."""

    synthetic_features: np.ndarray | None = None
    synthetic_labels: np.ndarray | None = None
    class_count: int = 0
    real_features: np.ndarray | None = None
    real_labels: np.ndarray | None = None
    models: tuple = ()
    class_embeddings: np.ndarray | None = None
    trajectory: Trajectory | None = None
    theta: np.ndarray | None = None
    tau: float = 1.0


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.maximum(np.linalg.norm(a, axis=-1, keepdims=True), 1e-12)
    nb = np.maximum(np.linalg.norm(b, axis=-1, keepdims=True), 1e-12)
    return (a / na) @ (b / nb).T


def _feat(model, x: np.ndarray) -> np.ndarray:
    if model is None:
        return np.asarray(x, dtype=np.float64)
    _, feats = model.forward_batch(x)
    return feats[-2] if len(feats) >= 2 else feats[-1]


def _ctx_synth(ctx: RegContext):
    if ctx.synthetic_features is None or ctx.synthetic_labels is None:
        raise ContextError("regularizer needs the synthetic set in context")
    return np.asarray(ctx.synthetic_features), np.asarray(ctx.synthetic_labels)


def regularizer_eval(reg_id: str, ctx: RegContext) -> float:
    """Evaluate one regularizer exactly as defined; raises ContextError when context is missing."""
    if reg_id not in REGULARIZERS:
        raise ConfigError(f"unknown regularizer {reg_id!r}")
    tau = ctx.tau
    if tau <= 0:
        raise ConfigError("tau must be positive")
    if reg_id == "rep":
        s, _ = _ctx_synth(ctx)
        if ctx.real_features is None:
            raise ContextError("rep needs the real dataset")
        sim = _cosine(s, np.asarray(ctx.real_features))
        return float(np.mean(-sim.max(axis=1)))
    if reg_id == "div":
        s, _ = _ctx_synth(ctx)
        if s.shape[0] < 2:
            return 0.0
        sim = _cosine(s, s)
        np.fill_diagonal(sim, -np.inf)
        return float(np.mean(sim.max(axis=1)))
    if reg_id == "inter":
        s, y = _ctx_synth(ctx)
        model = ctx.models[0] if ctx.models else None
        c = ctx.class_count or int(y.max()) + 1
        means = np.stack([_feat(model, s[y == k]).mean(axis=0) for k in range(c)])
        total = 0.0
        for y1 in range(c):
            for y2 in range(c):
                if y1 == y2:
                    continue
                gap = float(np.linalg.norm(means[y1] - means[y2]))
                total += max(tau - gap, 0.0)
        return total
    if reg_id == "intra":
        s, y = _ctx_synth(ctx)
        model = ctx.models[0] if ctx.models else None
        c = ctx.class_count or int(y.max()) + 1
        if ctx.class_embeddings is not None:
            emb = np.asarray(ctx.class_embeddings)
        elif ctx.real_features is not None and ctx.real_labels is not None:
            rl = np.asarray(ctx.real_labels)
            emb = np.stack(
                [_feat(model, np.asarray(ctx.real_features)[rl == k]).mean(axis=0) for k in range(c)]
            )
        else:
            raise ContextError("intra needs class embeddings or the real dataset")
        vals = []
        for k in range(c):
            h = _feat(model, s[y == k])
            pos = np.exp(h @ emb[k] / tau)
            sims = np.exp(h @ h.T / tau)
            np.fill_diagonal(sims, 0.0)
            neg = sims.sum(axis=1)
            vals.extend(-np.log(pos / (pos + neg)))
        return float(np.mean(vals))
    if reg_id == "con" or reg_id == "cos":
        s, y = _ctx_synth(ctx)
        if len(ctx.models) < 2:
            raise ContextError(f"{reg_id} needs at least two models")
        c = ctx.class_count or int(y.max()) + 1
        n_h = len(ctx.models)
        total = 0.0
        for k in range(c):
            rows = s[y == k]
            feats = [_feat(m, rows) for m in ctx.models]
            msum = 0.0
            for j in range(n_h):
                for l in range(n_h):
                    if j == l:
                        continue
                    if reg_id == "cos":
                        na = np.maximum(np.linalg.norm(feats[j], axis=1), 1e-12)
                        nb = np.maximum(np.linalg.norm(feats[l], axis=1), 1e-12)
                        msum += float(np.sum(np.sum(feats[j] * feats[l], axis=1) / (na * nb)))
                    else:
                        logits = feats[j] @ feats[l].T / tau  # (i, t) pairings
                        row = np.diag(logits)
                        lse = np.log(np.exp(logits).sum(axis=1))
                        msum += float(np.sum(-(row - lse)))
            total += msum / (n_h**2 * rows.shape[0])
        return total
    if reg_id == "dis":
        s, y = _ctx_synth(ctx)
        if ctx.real_features is None or ctx.real_labels is None:
            raise ContextError("dis needs the real dataset")
        model = ctx.models[0] if ctx.models else None
        c = ctx.class_count or int(y.max()) + 1
        proto = np.stack([_feat(model, s[y == k]).mean(axis=0) for k in range(c)])
        rf = np.asarray(ctx.real_features)
        rl = np.asarray(ctx.real_labels)
        total = 0.0
        for k in range(c):
            h = _feat(model, rf[rl == k])
            scores = h @ proto.T  # (B, C) similarity to every class prototype
            m = scores.max(axis=1, keepdims=True)
            logp = scores - (m + np.log(np.exp(scores - m).sum(axis=1, keepdims=True)))
            total += float(np.mean(-logp[:, k]))
        return total / c
    if reg_id == "proj":
        if ctx.theta is None or ctx.trajectory is None:
            raise ContextError("proj needs theta and an expert trajectory")
        basis = ctx.trajectory.stack().T  # (P, K)
        coef, *_ = np.linalg.lstsq(basis, ctx.theta, rcond=None)
        resid = ctx.theta - basis @ coef
        return float(np.abs(resid).sum())
    raise ConfigError(f"unhandled regularizer {reg_id!r}")


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
    if targets.ndim == 1:
        targets = targets[:, None]
    if targets.shape[0] != support.shape[0]:
        raise ShapeError("one target row per support point required")
    alpha = krr_solve(gram_matrix(spec, support, support), targets, lam)
    return KrrPredictor(spec=spec, support=support, alpha=alpha)


def krr_fit(spec: KernelSpec, s: SyntheticDataset, lam: float) -> KrrPredictor:
    """Ridge fit of the synthetic set with one-hot class targets."""
    return krr_fit_targets(spec, s.features, one_hot(s.labels, s.class_count), lam)


def _krr_loss_and_grads(spec, x_t, y_t, s, y_s, lam, want_grad_t=False):
    """Mean squared prediction error of the ridge fit on T plus analytic gradients.

    Returns (loss, grad wrt S rows, grad wrt T rows or None). Falls back to
    finite differences over S for kernels without analytic input gradients.
    """
    n = x_t.shape[0]
    g = gram_matrix(spec, s, s)
    alpha = krr_solve(g, y_s, lam)
    k_ts = gram_matrix(spec, x_t, s)
    pred = k_ts @ alpha
    resid = pred - y_t
    loss = float(np.sum(resid**2) / n)
    r = (2.0 / n) * resid  # (N, C)
    m2 = alpha @ r.T  # (M, N)
    if has_analytic_grad(spec):
        m1 = alpha @ (k_ts.T @ r).T @ np.linalg.inv(g + lam * np.eye(g.shape[0]))
        d2_ts = kernel_grad2(spec, x_t, s)  # (N, M, n)
        grad_s = np.einsum("ji,ijn->jn", m2, d2_ts)
        d2_ss = kernel_grad2(spec, s, s)  # (M, M, n)
        grad_s -= np.einsum("aj,ajn->jn", m1 + m1.T, d2_ss)
        grad_t = None
        if want_grad_t:
            d2_st = kernel_grad2(spec, s, x_t)  # (M, N, n)
            grad_t = np.einsum("ji,jin->in", m2, d2_st)
        return loss, grad_s, grad_t
    # finite-difference fallback for model-based kernels
    h = 1e-5

    def value(cur_s, cur_t):
        a = krr_solve(gram_matrix(spec, cur_s, cur_s), y_s, lam)
        p = gram_matrix(spec, cur_t, cur_s) @ a
        return float(np.sum((p - y_t) ** 2) / n)

    grad_s = np.zeros_like(s)
    for j in range(s.shape[0]):
        for k in range(s.shape[1]):
            sp, sm = s.copy(), s.copy()
            sp[j, k] += h
            sm[j, k] -= h
            grad_s[j, k] = (value(sp, x_t) - value(sm, x_t)) / (2 * h)
    grad_t = None
    if want_grad_t:
        grad_t = np.zeros_like(x_t)
        for j in range(x_t.shape[0]):
            for k in range(x_t.shape[1]):
                tp, tm = x_t.copy(), x_t.copy()
                tp[j, k] += h
                tm[j, k] -= h
                grad_t[j, k] = (value(s, tp) - value(s, tm)) / (2 * h)
    return loss, grad_s, grad_t


def condense_krr(cfg: MethodConfig, t: LabeledDataset, s0: SyntheticDataset):
    """Gradient descent on the ridge-predictor loss over T; RidgeDC when ridge_robust set."""
    spec = cfg.kernel if cfg.kernel is not None else median_heuristic_spec(t.features)
    lam = cfg.ridge_lambda if cfg.ridge_lambda > 0 else 1e-8
    y_t = one_hot(t.labels, t.class_count)
    y_s = one_hot(s0.labels, s0.class_count)
    s = np.array(s0.features, copy=True)
    robust = cfg.variants.get("ridge_robust", {})
    eps = float(robust.get("eps", 0.0))
    adv_steps = int(robust.get("steps", 5))
    delta = np.zeros_like(t.features)
    log = StepLog(meta={"method": "krr", "kernel": spec.describe(), "lambda": lam, "eps": eps})
    for step in range(cfg.outer_steps):
        if eps > 0:
            step_size = eps / max(adv_steps, 1) * 2.5
            for _ in range(adv_steps):
                _, _, grad_t = _krr_loss_and_grads(
                    spec, np.clip(t.features + delta, 0.0, 1.0), y_t, s, y_s, lam, want_grad_t=True
                )
                delta = np.clip(delta + step_size * np.sign(grad_t), -eps, eps)
        x_eff = np.clip(t.features + delta, 0.0, 1.0) if eps > 0 else t.features
        value, grad_s, _ = _krr_loss_and_grads(spec, x_eff, y_t, s, y_s, lam)
        log.append(step=step, objective=value, method_value=value, grad_norm=float(np.linalg.norm(grad_s)))
        s = np.clip(s - cfg.outer_lr * grad_s, 0.0, 1.0)
        if not np.all(np.isfinite(s)):
            raise DivergenceError(f"synthetic features non-finite at outer step {step}")
    log.meta["nonincreasing_fraction"] = log.nonincreasing_fraction()
    out = SyntheticDataset(
        features=s,
        labels=s0.labels,
        per_class_size=s0.per_class_size,
        origin="condense:krr",
        class_count=s0.class_count,
        meta={"kernel": spec.describe(), "lambda": lam, "seed": cfg.seed, "eps": eps},
    )
    return out, log


# ---------------------------------------------------------------------------
# bilevel flavors
# ---------------------------------------------------------------------------


def _full_batch_steps(model: Mlp, params, x, y, eta, k, loss):
    """k full-batch SGD steps from ``params`` (left unchanged); returns the end point."""
    net = _FlatSgd(model, params)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            net.step(x, y, loss, eta, f"inner step {i}")
    return net.params


def condense_bilevel(cfg: MethodConfig, t: LabeledDataset, s0: SyntheticDataset, flavor: str | None = None):
    """BPTT-family and implicit-gradient condensation.

    bptt/robdc/curvdc differentiate an outer loss through K full-batch inner steps
    by central finite differences over (S, eta); trajectory matches expert
    parameter snapshots; cig_ridge uses the implicit-function formula on the
    convex ridge inner problem.
    """
    flavor = flavor or cfg.method
    if flavor not in BILEVEL_METHODS:
        raise ConfigError(f"flavor must be one of {BILEVEL_METHODS}")
    if flavor == "cig_ridge":
        return _condense_cig_ridge(cfg, t, s0)
    if flavor == "trajectory":
        return _condense_trajectory(cfg, t, s0)
    return _condense_bptt(cfg, t, s0, flavor)


def _condense_cig_ridge(cfg, t, s0):
    lam = cfg.ridge_lambda if cfg.ridge_lambda > 0 else 1e-6
    x_t = t.features
    y_t = one_hot(t.labels, t.class_count)
    y_s = one_hot(s0.labels, s0.class_count)
    s = np.array(s0.features, copy=True)
    log = StepLog(meta={"method": "cig_ridge", "lambda": lam})
    for step in range(cfg.outer_steps):
        value, grad = cig_ridge_value_and_grad(s, y_s, x_t, y_t, lam)
        log.append(step=step, objective=value, method_value=value, grad_norm=float(np.linalg.norm(grad)))
        s = np.clip(s - cfg.outer_lr * grad, 0.0, 1.0)
        if not np.all(np.isfinite(s)):
            raise DivergenceError(f"synthetic features non-finite at outer step {step}")
    log.meta["nonincreasing_fraction"] = log.nonincreasing_fraction()
    out = SyntheticDataset(
        features=s, labels=s0.labels, per_class_size=s0.per_class_size,
        origin="condense:cig_ridge", class_count=s0.class_count,
        meta={"lambda": lam, "seed": cfg.seed},
    )
    return out, log


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


def _condense_trajectory(cfg, t, s0):
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
    _, expert = sgd_train(m0, t, train_cfg, record=True)
    expert_stack = expert.stack()

    def outer(s_flat):
        feats = s_flat.reshape(s0.features.shape)
        _, student = sgd_train(m0, (feats, s0.labels), train_cfg, record=True)
        diffs = student.stack() - expert_stack
        return float(np.sum(np.linalg.norm(diffs[1:], axis=1)))

    s = np.array(s0.features, copy=True)
    log = StepLog(meta={"method": "trajectory", "inner_epochs": cfg.inner_steps})
    h = 1e-5
    for step in range(cfg.outer_steps):
        flat = s.ravel()
        value = outer(flat)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            fp, fm = flat.copy(), flat.copy()
            fp[i] += h
            fm[i] -= h
            grad[i] = (outer(fp) - outer(fm)) / (2 * h)
        log.append(step=step, objective=value, method_value=value, grad_norm=float(np.linalg.norm(grad)))
        s = np.clip(s - cfg.outer_lr * grad.reshape(s.shape), 0.0, 1.0)
        if not np.all(np.isfinite(s)):
            raise DivergenceError(f"synthetic features non-finite at outer step {step}")
    log.meta["nonincreasing_fraction"] = log.nonincreasing_fraction()
    out = SyntheticDataset(
        features=s, labels=s0.labels, per_class_size=s0.per_class_size,
        origin="condense:trajectory", class_count=s0.class_count, meta={"seed": cfg.seed},
    )
    return out, log


def _condense_bptt(cfg, t, s0, flavor):
    widths = (t.n_features, *cfg.hidden, t.class_count)
    model = Mlp.init(widths, cfg.activation, seed=derive_seed(cfg.seed, "bptt_init"))
    theta = model.flat_params()
    eta = cfg.inner_lr
    s = np.array(s0.features, copy=True)
    labels = s0.labels
    rat = cfg.variants.get("rat_truncation")
    window = int(rat["window"]) if rat else cfg.inner_steps
    if rat and not 1 <= window <= cfg.inner_steps:
        raise ConfigError("rat_truncation window must lie in [1, inner_steps]")
    robust = cfg.variants.get("robust_outer", {})
    eps = float(robust.get("eps", 0.0))
    adv_steps = int(robust.get("steps", 5))
    rng_rat = derived_rng(cfg.seed, "rat")
    curv_seed = derive_seed(cfg.seed, "curv")
    log = StepLog(meta={"method": flavor, "window": window, "eps": eps})
    h = 1e-5

    def outer(theta_start, s_flat, eta_val):
        feats = s_flat.reshape(s.shape)
        end = _full_batch_steps(model, theta_start, feats, labels, eta_val, window, cfg.loss)
        trained = model.with_params(end)
        if flavor == "robdc" and eps > 0:
            x_adv = pgd_attack(trained, t.features, t.labels, eps, steps=adv_steps, loss=cfg.loss)
            logits, _ = trained.forward_batch(x_adv)
            value = float(np.mean(per_sample_loss(logits, t.labels, cfg.loss)))
        else:
            value = trained.mean_loss(t.features, t.labels, cfg.loss)
        if flavor == "curvdc":
            value += cfg.curv_lambda * lambda_max_estimate(
                trained, t, loss=cfg.loss, iters=cfg.curv_iters, seed=curv_seed
            )
        return value

    for step in range(cfg.outer_steps):
        start = theta
        if rat:
            offset = int(rng_rat.integers(0, cfg.inner_steps - window + 1))
            start = _full_batch_steps(model, theta, s, labels, eta, offset, cfg.loss)
        flat = s.ravel()
        value = outer(start, flat, eta)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            fp, fm = flat.copy(), flat.copy()
            fp[i] += h
            fm[i] -= h
            grad[i] = (outer(start, fp, eta) - outer(start, fm, eta)) / (2 * h)
        g_eta = (outer(start, flat, eta + h) - outer(start, flat, eta - h)) / (2 * h)
        log.append(
            step=step, objective=value, method_value=value,
            grad_norm=float(np.sqrt(np.sum(grad**2) + g_eta**2)), eta=eta,
        )
        s = np.clip(s - cfg.outer_lr * grad.reshape(s.shape), 0.0, 1.0)
        eta = max(eta - cfg.outer_lr * g_eta, 1e-6)
        if not (np.all(np.isfinite(s)) and np.isfinite(eta)):
            raise DivergenceError(f"synthetic features non-finite at outer step {step}")
        # advance the model one inner step on the updated synthetic set
        _, gtheta, _ = model.with_params(theta).backward(s, labels, cfg.loss)
        theta = theta - eta * gtheta
    log.meta["nonincreasing_fraction"] = log.nonincreasing_fraction()
    out = SyntheticDataset(
        features=s, labels=labels, per_class_size=s0.per_class_size,
        origin=f"condense:{flavor}", class_count=s0.class_count,
        meta={"seed": cfg.seed, "eta_final": eta, "window": window},
    )
    return out, log


# ---------------------------------------------------------------------------
# the matching-objective engine (dm / gm / mmd / moment / sam)
# ---------------------------------------------------------------------------


def bptt_outer_gradient(cfg: MethodConfig, t: LabeledDataset, s_features, s_labels, theta, eta):
    """Finite-difference outer gradient of the BPTT loss at a given state (test hook)."""
    widths = (t.n_features, *cfg.hidden, t.class_count)
    model = Mlp.init(widths, cfg.activation, seed=0).with_params(theta)

    def outer(flat, eta_val):
        end = _full_batch_steps(model, theta, flat.reshape(s_features.shape), s_labels, eta_val,
                                cfg.inner_steps, cfg.loss)
        return model.with_params(end).mean_loss(t.features, t.labels, cfg.loss)

    h = 1e-5
    flat = np.asarray(s_features, dtype=np.float64).ravel()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        grad[i] = (outer(fp, eta) - outer(fm, eta)) / (2 * h)
    g_eta = (outer(flat, eta + h) - outer(flat, eta - h)) / (2 * h)
    return grad.reshape(s_features.shape), float(g_eta)


class _Transforms:
    """Per-step augmentation pipeline with the adjoint chain for the synthetic side."""

    def __init__(self, cfg: MethodConfig, step: int):
        self.cfg = cfg
        self.step = step
        self.ops = [v for v in ("siamese", "multiform", "channel_multiform") if v in cfg.variants]
        self.siamese_params = None
        if "siamese" in cfg.variants:
            op = cfg.variants["siamese"].get("op", "shift")
            c, h, w = cfg.image_shape
            self.siamese_params = (op, draw_siamese_params(op, (1, c, h, w), derive_seed(cfg.seed, f"siamese:{step}")))

    @property
    def active(self) -> bool:
        return bool(self.ops)

    def output_dim(self, d: int) -> int:
        if not self.active:
            return d
        c, h, w = self.cfg.image_shape
        if "multiform" in self.cfg.variants:
            r = int(self.cfg.variants["multiform"].get("r", 2))
            c = c * (r * r + 1)
        return c * h * w

    def apply(self, rows: np.ndarray, labels: np.ndarray, side: str, cls: int):
        """Transform one class batch; returns (rows', labels', vjp to the input rows)."""
        if not self.active:
            return rows, labels, lambda g: g
        c, h, w = self.cfg.image_shape
        data = np.asarray(rows, dtype=np.float64).reshape(rows.shape[0], c, h, w)
        records = []
        out_labels = labels
        for op in self.ops:
            if op == "siamese":
                name, params = self.siamese_params
                before = data
                data = siamese_augment(ImageBatch(np.clip(before, 0.0, 1.0)), ImageBatch(np.clip(before, 0.0, 1.0)), name, params=params)[0].data
                records.append(("siamese", name, params, before))
            elif op == "multiform":
                r = int(self.cfg.variants["multiform"].get("r", 2))
                before_shape = data.shape
                data = multi_formation(ImageBatch(np.clip(data, 0.0, 1.0)), r).data
                records.append(("multiform", r, before_shape))
            elif op == "channel_multiform":
                seed = derive_seed(self.cfg.seed, f"channel:{self.step}:{side}:{cls}")
                mixing = _mixing_matrices(data.shape[0], data.shape[1], seed)
                before = ImageBatch(np.clip(data, 0.0, 1.0))
                data = channel_multi_formation(before, mixing=mixing).data
                records.append(("channel", mixing, before))
                out_labels = np.tile(out_labels, 4)
        out = data.reshape(data.shape[0], -1)

        def vjp(grad_rows: np.ndarray) -> np.ndarray:
            g = grad_rows.reshape(data.shape)
            for rec in reversed(records):
                if rec[0] == "siamese":
                    _, name, params, before = rec
                    g = siamese_vjp(g, before, name, params)
                elif rec[0] == "multiform":
                    _, r, before_shape = rec
                    g = multi_formation_vjp(g, r, before_shape)
                else:
                    _, mixing, before = rec
                    g = channel_multi_formation_vjp(g, before, mixing=mixing)
            return g.reshape(rows.shape)

        return out, out_labels, vjp


def _make_ensemble(cfg: MethodConfig, input_dim: int, class_count: int, t_matched, t_labels, step: int):
    models = []
    for i in range(cfg.ensemble):
        m = Mlp.init(
            (input_dim, *cfg.hidden, class_count),
            cfg.activation,
            seed=derive_seed(cfg.seed, f"model:{step}:{i}"),
        )
        if cfg.provenance == "pretrained":
            train_cfg = TrainConfig(
                learning_rate=cfg.inner_lr,
                epochs=cfg.pretrain_epochs,
                batch_size=cfg.inner_batch,
                loss=cfg.loss,
                seed=derive_seed(cfg.seed, f"pretrain:{step}:{i}"),
            )
            m, _ = sgd_train(m, (t_matched, t_labels), train_cfg)
        models.append(m)
    return models


def _regime_views(cfg: MethodConfig, t: LabeledDataset, s0: SyntheticDataset):
    """Matched T view, initial variables, variable-to-matched map + vjp, and the
    map recovering input-space synthetic features from the variables."""
    ae = cfg.autoencoder
    if cfg.regime != "input_input" and ae is None:
        raise ConfigError(f"regime {cfg.regime!r} needs an autoencoder")
    ident = lambda v: v
    if cfg.regime == "input_input":
        return t.features, np.array(s0.features, copy=True), ident, (lambda g: g), True, ident
    if cfg.regime == "input_latent":
        fwd = lambda v: ae.decode(v)
        vjp = lambda g: g @ ae.basis
        return t.features, ae.encode(s0.features), fwd, vjp, False, fwd
    if cfg.regime == "latent_input":
        fwd = lambda v: ae.encode(v)
        vjp = lambda g: g @ ae.basis.T
        return ae.encode(t.features), np.array(s0.features, copy=True), fwd, vjp, True, ident
    if cfg.regime == "latent_latent":
        return ae.encode(t.features), ae.encode(s0.features), ident, (lambda g: g), False, (
            lambda v: ae.decode(v)
        )
    raise ConfigError(f"unknown regime {cfg.regime!r}")


def condense(cfg: MethodConfig, t: LabeledDataset, s0: SyntheticDataset):
    """Run one condensation method; returns (synthetic set, per-step objective log).

    Labels stay fixed; only features (or latent coordinates) move. Input-space
    features are clipped to [0, 1] after every step.
    """
    if s0.class_count != t.class_count:
        raise ConfigError("synthetic classes must match the real dataset")
    if cfg.method == "krr":
        return condense_krr(cfg, t, s0)
    if cfg.method in BILEVEL_METHODS:
        return condense_bilevel(cfg, t, s0, cfg.method)
    if cfg.method in ("kcenter", "kmeans"):
        return _condense_coreset(cfg, t, s0)
    return _condense_matching(cfg, t, s0)


def _condense_coreset(cfg, t, s0):
    part = per_class_partition(t)
    feats, labels = [], []
    per_class_scores = []
    for y in range(t.class_count):
        pts = t.features[part[y]]
        if cfg.method == "kcenter":
            idx, radius = kcenter_covering(pts, s0.per_class_size)
            feats.append(pts[np.sort(idx)])
            per_class_scores.append(radius)
        else:
            centers, inertias = kmeans_coreset(
                pts, s0.per_class_size, iters=max(cfg.outer_steps, 10),
                seed=derive_seed(cfg.seed, f"kmeans:{y}"),
            )
            feats.append(centers)
            per_class_scores.append(inertias[-1])
        labels.extend([y] * s0.per_class_size)
    objective = max(per_class_scores) if cfg.method == "kcenter" else float(sum(per_class_scores))
    log = StepLog(meta={"method": cfg.method, "per_class_scores": per_class_scores})
    log.append(step=0, objective=float(objective), method_value=float(objective), grad_norm=0.0)
    out = SyntheticDataset(
        features=np.vstack(feats), labels=np.asarray(labels, dtype=np.int64),
        per_class_size=s0.per_class_size, origin=f"condense:{cfg.method}",
        class_count=t.class_count, meta={"seed": cfg.seed},
    )
    return out, log


def matching_value_and_grad(cfg: MethodConfig, t: LabeledDataset, s0: SyntheticDataset):
    """Objective value and analytic gradient of one matching step at S0 (no update)."""
    probe: list = []
    one_step = MethodConfig(**{**cfg.__dict__, "outer_steps": 1})
    _condense_matching(one_step, t, s0, grad_probe=probe)
    return probe[0]


def _condense_matching(cfg, t, s0, grad_probe=None):
    t_matched, v, fwd, regime_vjp, clip_inputs, to_input = _regime_views(cfg, t, s0)
    part_t = per_class_partition(t)
    part_s = per_class_partition(s0)
    classes = range(t.class_count)
    s_labels = s0.labels

    kernel = cfg.kernel
    if cfg.method == "mmd" and kernel is None:
        kernel = median_heuristic_spec(t_matched)
    dp_merf = cfg.variants.get("dp_merf")
    has_image_ops = any(name in cfg.variants for name in _IMAGE_VARIANTS)
    if dp_merf is not None and (kernel is None or kernel.family != "random_feature"):
        raise ConfigError("dp_merf needs a random_feature kernel spec")
    # the mean-embedding route: plain mmd with random features, or any dp_merf run
    embed_path = dp_merf is not None or (
        cfg.method == "mmd"
        and kernel is not None
        and kernel.family == "random_feature"
        and not has_image_ops
    )
    dp_grad = cfg.variants.get("dp_grad")
    dp_sigma = float(dp_grad.get("sigma", 0.0)) if dp_grad else 0.0
    contrastive = "contrastive" in cfg.variants
    curvature = cfg.variants.get("curvature")
    proxy = cfg.variants.get("kmeans_proxy")

    # fixed mean embeddings of T, noised once (sigma = 0 adds exact zeros)
    t_embed = {}
    if embed_path:
        rng_dp = derived_rng(cfg.seed, "dp_merf")
        sigma = float(dp_merf.get("sigma", 0.0)) if dp_merf else 0.0
        for y in classes:
            mean_phi = feature_map_batch(kernel, t_matched[part_t[y]]).mean(axis=0)
            t_embed[y] = mean_phi + sigma * rng_dp.normal(size=mean_phi.shape)

    # mean k(T_y, T_y) does not depend on S; image transforms redraw the T rows every step
    t_gram_means = None
    if cfg.method == "mmd" and not embed_path and not has_image_ops:
        t_gram_means = {y: gram_matrix(kernel, t_matched[part_t[y]], t_matched[part_t[y]]).mean() for y in classes}

    probe = _Transforms(cfg, 0)
    model_dim = probe.output_dim(t_matched.shape[1])
    kernel_objective = embed_path or cfg.method == "mmd"
    needs_models = not kernel_objective
    ensemble = None
    t_grad_cache = None
    dp_invocations = 0
    proxy_view = None

    log = StepLog(meta={"method": cfg.method, "regime": cfg.regime,
                        "kernel": kernel.describe() if kernel else None})
    reg_weights = dict(cfg.regularizers)
    proj_state: dict = {}

    def reg_total(v_flat: np.ndarray):
        if not reg_weights:
            return 0.0, {}, np.zeros_like(v_flat)

        def reg_values(vf):
            s_input = to_input(vf.reshape(v_shape))
            ctx = RegContext(
                synthetic_features=np.asarray(s_input), synthetic_labels=s_labels,
                class_count=t.class_count, real_features=t.features, real_labels=t.labels,
                models=tuple(ensemble) if ensemble else (), tau=cfg.reg_tau,
            )
            return {name: regularizer_eval(name, ctx) for name in reg_weights if name != "proj"}

        vals = reg_values(v_flat)
        if "proj" in reg_weights:
            # the projection regularizer scores model parameters against the expert
            # subspace; it is constant in S within a step, so its S-gradient is zero
            if ensemble:
                if "traj" not in proj_state:
                    base = Mlp.init((model_dim, *cfg.hidden, t.class_count), cfg.activation,
                                    seed=derive_seed(cfg.seed, "proj_expert"))
                    tcfg = TrainConfig(learning_rate=cfg.inner_lr, epochs=max(cfg.inner_steps, 1),
                                       batch_size=cfg.inner_batch, loss=cfg.loss,
                                       seed=derive_seed(cfg.seed, "proj_train"))
                    _, proj_state["traj"] = sgd_train(base, (t_matched, t.labels), tcfg, record=True)
                ctx = RegContext(theta=ensemble[0].flat_params(), trajectory=proj_state["traj"])
                vals["proj"] = regularizer_eval("proj", ctx)
            else:
                vals["proj"] = 0.0
        total = sum(reg_weights[k] * vals[k] for k in vals)
        grad = np.zeros_like(v_flat)
        h = 1e-5
        smooth = [k for k in vals if k != "proj"]
        if smooth:
            for i in range(v_flat.size):
                fp, fm = v_flat.copy(), v_flat.copy()
                fp[i] += h
                fm[i] -= h
                up = reg_values(fp)
                dn = reg_values(fm)
                grad[i] = sum(reg_weights[k] * (up[k] - dn[k]) for k in smooth) / (2 * h)
        return total, vals, grad

    v_shape = v.shape
    for step in range(cfg.outer_steps):
        tr = _Transforms(cfg, step)
        if (needs_models or reg_weights) and (ensemble is None or step % cfg.refresh == 0):
            ensemble = _make_ensemble(cfg, model_dim, t.class_count, t_matched, t.labels, step)
            t_grad_cache = None
        if proxy is not None and (proxy_view is None or step % int(proxy.get("period", 10)) == 0):
            proxy_view = {}
            for y in classes:
                centers, _ = kmeans_coreset(
                    t_matched[part_t[y]], int(proxy.get("k", min(16, part_t[y].size))),
                    iters=25, seed=derive_seed(cfg.seed, f"proxy:{step}:{y}"),
                )
                proxy_view[y] = centers
            t_grad_cache = None

        s_matched = fwd(v)
        per_class_t = {y: (proxy_view[y] if proxy_view is not None else t_matched[part_t[y]]) for y in classes}
        per_class_s = {y: s_matched[part_s[y]] for y in classes}

        def class_labels(y, count):
            return np.full(count, y, dtype=np.int64)

        value = 0.0
        grad_matched = np.zeros_like(s_matched)

        if kernel_objective:
            for y in classes:
                rows_s, _, vjp_s = tr.apply(per_class_s[y], class_labels(y, per_class_s[y].shape[0]), "s", y)
                if embed_path:
                    diff = t_embed[y] - feature_map_batch(kernel, rows_s).mean(axis=0)
                    value += float(diff @ diff)
                    jac = feature_map_input_jacobian(kernel, rows_s)
                    g_rows = np.einsum("p,bpn->bn", diff, jac) * (-2.0 / rows_s.shape[0])
                else:
                    rows_t, _, _ = tr.apply(per_class_t[y], class_labels(y, per_class_t[y].shape[0]), "t", y)
                    ktt = t_gram_means[y] if t_gram_means is not None else gram_matrix(kernel, rows_t, rows_t).mean()

                    def mmd(r):
                        kts = gram_matrix(kernel, rows_t, r).mean()
                        return _mmd_from_means(ktt, kts, gram_matrix(kernel, r, r).mean())

                    value += mmd(rows_s)
                    if has_analytic_grad(kernel):
                        g_rows = mmd_squared_grad_s(kernel, rows_t, rows_s)
                    else:
                        g_rows = _fd_rows(mmd, rows_s)
                grad_matched[part_s[y]] += vjp_s(g_rows)
        else:
            n_e = len(ensemble)
            if cfg.method == "gm" and t_grad_cache is None and not tr.active:
                t_grad_cache = _gm_t_gradients(cfg, ensemble, per_class_t, classes, dp_sigma, step)
                if dp_sigma > 0:
                    dp_invocations += len(ensemble) * t.class_count
            for mi, model in enumerate(ensemble):
                if cfg.method == "gm":
                    if tr.active:
                        g_t = {}
                        for y in classes:
                            rt, lt, _ = tr.apply(per_class_t[y], class_labels(y, per_class_t[y].shape[0]), "t", y)
                            _, gty, _ = model.backward(rt, lt, cfg.loss)
                            g_t[y] = gty
                    else:
                        g_t = t_grad_cache[mi]
                    g_s, s_records = {}, {}
                    for y in classes:
                        rs, ls, vjp_s = tr.apply(per_class_s[y], class_labels(y, per_class_s[y].shape[0]), "s", y)
                        _, gsy, _ = model.backward(rs, ls, cfg.loss)
                        g_s[y] = gsy
                        s_records[y] = (rs, ls, vjp_s)
                    if contrastive:
                        diff = np.sum([g_s[y] for y in classes], axis=0) - np.sum([g_t[y] for y in classes], axis=0)
                        value += float(diff @ diff) / n_e
                        vby = {y: 2.0 * diff for y in classes}
                    else:
                        vby = {}
                        for y in classes:
                            d = g_s[y] - g_t[y]
                            value += float(d @ d) / n_e
                            vby[y] = 2.0 * d
                    for y in classes:
                        rs, ls, vjp_s = s_records[y]
                        tangent = model.input_grad_param_tangent(rs, ls, cfg.loss, vby[y])
                        grad_matched[part_s[y]] += vjp_s(tangent) / n_e
                    if curvature is not None:
                        rho = float(curvature.get("rho", 0.01))
                        lam_plus = _curvature_penalty(model, t_matched, t.labels, s_matched, s_labels, cfg, step)
                        value += 0.5 * rho * lam_plus / n_e
                        grad_matched += (0.5 * rho / n_e) * _curvature_penalty_grad(
                            model, t_matched, t.labels, s_matched, s_labels, cfg, step)
                else:
                    for y in classes:
                        rows_t, _, _ = tr.apply(per_class_t[y], class_labels(y, per_class_t[y].shape[0]), "t", y)
                        rows_s, _, vjp_s = tr.apply(per_class_s[y], class_labels(y, per_class_s[y].shape[0]), "s", y)
                        val_y, up = _feature_objective(cfg.method, model, rows_t, rows_s)
                        value += val_y / n_e
                        g_rows = model.feature_input_vjp(rows_s, up)
                        grad_matched[part_s[y]] += vjp_s(g_rows) / n_e

        grad_v = regime_vjp(grad_matched)
        flat = v.ravel()
        reg_val, reg_terms, reg_grad = reg_total(flat)
        total = value + reg_val
        row = {"step": step, "objective": float(total), "method_value": float(value),
               "grad_norm": float(np.linalg.norm(grad_v.ravel() + reg_grad))}
        for name, val in reg_terms.items():
            row[f"reg_{name}"] = float(val)
        log.append(**row)
        if grad_probe is not None and step == 0:
            grad_probe.append((float(total), (grad_v.ravel() + reg_grad).reshape(v_shape)))
        v = (flat - cfg.outer_lr * (grad_v.ravel() + reg_grad)).reshape(v_shape)
        if clip_inputs:
            v = np.clip(v, 0.0, 1.0)
        if not np.all(np.isfinite(v)):
            raise DivergenceError(f"synthetic variables non-finite at outer step {step}")

    final = to_input(v)
    log.meta["nonincreasing_fraction"] = log.nonincreasing_fraction()
    if dp_grad:
        log.meta["dp_grad"] = {"sigma": dp_sigma, "clip_norm": 1.0,
                               "refreshes": int(np.ceil(cfg.outer_steps / cfg.refresh)),
                               "mechanism_invocations": dp_invocations}
    out = SyntheticDataset(
        features=np.asarray(final), labels=s_labels, per_class_size=s0.per_class_size,
        origin=f"condense:{cfg.method}", class_count=s0.class_count,
        meta={"seed": cfg.seed, "regime": cfg.regime,
              "kernel": kernel.describe() if kernel else None},
    )
    return out, log


def _fd_rows(fn, rows: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(rows)
    for j in range(rows.shape[0]):
        for k in range(rows.shape[1]):
            rp, rm = rows.copy(), rows.copy()
            rp[j, k] += h
            rm[j, k] -= h
            grad[j, k] = (fn(rp) - fn(rm)) / (2 * h)
    return grad


def _gm_t_gradients(cfg, ensemble, per_class_t, classes, dp_sigma, step):
    """Class-mean T gradients per model, clipped and noised when dp_grad is active."""
    cache = []
    rng = derived_rng(cfg.seed, f"dp_grad:{step}")
    for model in ensemble:
        per_class = {}
        for y in classes:
            rows = per_class_t[y]
            labels = np.full(rows.shape[0], y, dtype=np.int64)
            _, g, _ = model.backward(rows, labels, cfg.loss)
            if dp_sigma > 0:
                norm = np.linalg.norm(g)
                if norm > 1.0:
                    g = g / norm
                g = g + dp_sigma * rng.normal(size=g.shape)
            per_class[y] = g
        cache.append(per_class)
    return cache


def _feature_objective(method, model, rows_t, rows_s):
    """Value and per-feature upstream gradients for dm / moment / sam on one class."""
    _, feats_t = model.forward_batch(rows_t)
    _, feats_s = model.forward_batch(rows_s)
    n_feats = len(feats_s)
    upstream = [None] * n_feats
    b = rows_s.shape[0]
    pen = n_feats - 2 if n_feats >= 2 else n_feats - 1
    if method == "dm":
        diff = feats_t[pen].mean(axis=0) - feats_s[pen].mean(axis=0)
        upstream[pen] = np.broadcast_to(-(2.0 / b) * diff, feats_s[pen].shape).copy()
        return float(diff @ diff), upstream
    if method == "moment":
        ft, fs = feats_t[pen], feats_s[pen]
        dmean = ft.mean(axis=0) - fs.mean(axis=0)
        dvar = ft.var(axis=0) - fs.var(axis=0)
        up = np.broadcast_to(-(2.0 / b) * dmean, fs.shape).copy()
        up += -(4.0 / b) * dvar * (fs - fs.mean(axis=0))
        upstream[pen] = up
        return float(dmean @ dmean) + float(dvar @ dvar), upstream
    if method == "sam":
        value = 0.0
        for l in range(n_feats):
            at = (feats_t[l] ** 2).mean(axis=0)
            as_ = (feats_s[l] ** 2).mean(axis=0)
            diff = at - as_
            value += float(diff @ diff)
            upstream[l] = -(4.0 / b) * diff * feats_s[l]
        return value, upstream
    raise ConfigError(f"not a feature objective: {method!r}")


def _curvature_penalty(model, x_t, y_t, x_s, y_s, cfg, step):
    """lambda^+ of H_T - H_S at the model parameters via FD Hessian-vector products."""
    hvp_t = loss_hvp_fd(model, x_t, y_t, cfg.loss)
    hvp_s = loss_hvp_fd(model, x_s, y_s, cfg.loss)
    seed = derive_seed(cfg.seed, "curv_gm")
    return max_eigenvalue(lambda u: hvp_t(u) - hvp_s(u), model.param_count,
                          iters=cfg.curv_iters, seed=seed)


def _curvature_penalty_grad(model, x_t, y_t, x_s, y_s, cfg, step, h: float = 1e-4):
    grad = np.zeros_like(x_s)
    for j in range(x_s.shape[0]):
        for k in range(x_s.shape[1]):
            sp, sm = x_s.copy(), x_s.copy()
            sp[j, k] += h
            sm[j, k] -= h
            up = _curvature_penalty(model, x_t, y_t, sp, y_s, cfg, step)
            dn = _curvature_penalty(model, x_t, y_t, sm, y_s, cfg, step)
            grad[j, k] = (up - dn) / (2 * h)
    return grad
