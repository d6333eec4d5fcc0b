"""Small feedforward networks with hand-written forward and backward passes.

The reverse-mode engine exposes per-layer features, exact parameter and input
gradients, and a forward-over-reverse tangent pass used by gradient-matching
objectives that need mixed second derivatives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, SyntheticDataset, one_hot
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    NumericalError,
    ShapeError,
    ValidationError,
)

LOSSES = ("cross_entropy", "mse")
ACTIVATIONS = ("relu", "tanh")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) if name == "relu" else np.tanh(z)


def _act_prime(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    a = np.tanh(z)
    return 1.0 - a * a


def _act_prime_tangent(name: str, z: np.ndarray, zdot: np.ndarray) -> np.ndarray:
    # d/d eps of act'(z + eps*zdot): zero a.e. for relu, -2 tanh (1-tanh^2) zdot for tanh
    if name == "relu":
        return np.zeros_like(z)
    a = np.tanh(z)
    return -2.0 * a * (1.0 - a * a) * zdot


def _softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def per_sample_loss(logits: np.ndarray, labels: np.ndarray, loss: str) -> np.ndarray:
    """Loss of each sample; cross-entropy uses log-sum-exp stabilization."""
    y = np.asarray(labels, dtype=np.int64)
    if loss == "cross_entropy":
        m = logits.max(axis=1)
        lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        return lse - logits[np.arange(len(y)), y]
    if loss == "mse":
        target = one_hot(y, logits.shape[1])
        return 0.5 * np.sum((logits - target) ** 2, axis=1)
    raise ConfigError(f"unknown loss {loss!r}")


def _loss_value_and_grad(logits: np.ndarray, labels: np.ndarray, loss: str):
    """Mean batch loss and its gradient with respect to the logits.

    One softmax (cross-entropy) or one residual (mse) feeds both. The value has
    the bits of ``mean(per_sample_loss(...))``: ``sum() / b`` is ``np.mean``'s
    own arithmetic without its per-call overhead.
    """
    b = logits.shape[0]
    y = np.asarray(labels, dtype=np.int64)
    target = one_hot(y, logits.shape[1])
    if loss == "cross_entropy":
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        total = e.sum(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(total[:, 0])
        value = float((lse - logits[np.arange(b), y]).sum() / b)
        return value, (e / total - target) / b
    if loss == "mse":
        r = logits - target
        return float((0.5 * np.sum(r**2, axis=1)).sum() / b), r / b
    raise ConfigError(f"unknown loss {loss!r}")


def _loss_grad_logits_tangent(
    logits: np.ndarray, zdot: np.ndarray, labels: np.ndarray, loss: str
) -> np.ndarray:
    b = logits.shape[0]
    if loss == "mse":
        return zdot / b
    p = _softmax(logits)
    inner = np.sum(p * zdot, axis=1, keepdims=True)
    return (p * zdot - p * inner) / b


def _forward_sweep(weights, biases, activation: str, x: np.ndarray):
    """Pre-activations and activations (input first, logits last) of one batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != weights[0].shape[0]:
        raise ShapeError(f"expected (B, {weights[0].shape[0]}) inputs, got {x.shape}")
    acts = [x]
    zs = []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        zs.append(z)
        acts.append(_act(activation, z) if i < last else z)
    return zs, acts


def _reverse_sweep(weights, activation: str, zs, acts, g_logits, upstream=None, grads=None):
    """Reverse sweep from logit gradients plus optional per-feature upstream terms.

    ``upstream`` aligns with the features list (hidden activations then logits).
    ``grads`` is a pair of per-layer (weight, bias) views into a caller-owned flat
    buffer that receives the parameter gradients; None skips them. Returns the
    input gradients.
    """
    last = len(weights) - 1
    g = g_logits
    if upstream is not None and upstream[last] is not None:
        g = g + upstream[last]
    for i in range(last, -1, -1):
        if grads is not None:
            np.matmul(acts[i].T, g, out=grads[0][i])
            g.sum(axis=0, out=grads[1][i])
        ga = g @ weights[i].T
        if i == 0:
            return ga
        if upstream is not None and upstream[i - 1] is not None:
            ga = ga + upstream[i - 1]
        g = ga * _act_prime(activation, zs[i - 1])


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters; deterministic given the seed."""

    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    loss: str = "cross_entropy"
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive and finite")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.loss not in LOSSES:
            raise ConfigError(f"loss must be one of {LOSSES}")


@dataclass(frozen=True)
class Trajectory:
    """Ordered flattened parameter snapshots; snapshot 0 is the initialization."""

    snapshots: tuple

    def __post_init__(self):
        snaps = tuple(np.asarray(s, dtype=np.float64) for s in self.snapshots)
        if len(snaps) == 0:
            raise ValidationError("trajectory needs at least the initial snapshot")
        dim = snaps[0].shape
        if any(s.shape != dim for s in snaps):
            raise ValidationError("all snapshots must share one dimension")
        object.__setattr__(self, "snapshots", snaps)

    def __len__(self) -> int:
        return len(self.snapshots)

    def stack(self) -> np.ndarray:
        return np.stack(self.snapshots)

    def to_text(self) -> str:
        lines = [" ".join(repr(float(v)) for v in snap) for snap in self.snapshots]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Trajectory":
        snaps = tuple(
            np.asarray([float(v) for v in line.split()]) for line in text.strip().split("\n")
        )
        return cls(snaps)


class Mlp:
    """Fully connected network with explicit weights; immutable by convention.

    Architecture is ``widths = [n, w1, ..., wL, C]`` with the chosen activation on
    hidden layers and linear logits. Zero hidden layers (``[n, C]``) is allowed.
    """

    def __init__(self, widths, activation, weights, biases, init_seed=0):
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ConfigError(f"widths must be >= 1 with at least input and output: {widths}")
        if activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if len(weights) != len(widths) - 1 or len(biases) != len(widths) - 1:
            raise ShapeError("one weight/bias pair per affine layer required")
        ws, bs = [], []
        for i, (w, b) in enumerate(zip(weights, biases)):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.shape != (widths[i], widths[i + 1]) or b.shape != (widths[i + 1],):
                raise ShapeError(f"layer {i}: weight shape {w.shape} incompatible with {widths}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError("parameters contain NaN or Inf")
            w = w.copy()
            b = b.copy()
            w.setflags(write=False)
            b.setflags(write=False)
            ws.append(w)
            bs.append(b)
        self.widths = widths
        self.activation = activation
        self.weights = tuple(ws)
        self.biases = tuple(bs)
        self.init_seed = init_seed

    @classmethod
    def init(cls, widths, activation: str = "relu", seed: int = 0) -> "Mlp":
        """He-style scaled Gaussian initialization from the seed; zero biases."""
        rng = np.random.default_rng(seed)
        widths = tuple(int(w) for w in widths)
        ws = [
            rng.normal(0.0, np.sqrt(2.0 / widths[i]), size=(widths[i], widths[i + 1]))
            for i in range(len(widths) - 1)
        ]
        bs = [np.zeros(widths[i + 1]) for i in range(len(widths) - 1)]
        return cls(widths, activation, ws, bs, init_seed=seed)

    # -- parameter vector plumbing -------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return self.widths[0]

    @property
    def n_outputs(self) -> int:
        return self.widths[-1]

    @property
    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def flat_params(self) -> np.ndarray:
        return np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)]
        )

    def _split_flat(self, flat: np.ndarray):
        ws, bs, pos = [], [], 0
        for i in range(len(self.widths) - 1):
            nin, nout = self.widths[i], self.widths[i + 1]
            ws.append(flat[pos : pos + nin * nout].reshape(nin, nout))
            pos += nin * nout
            bs.append(flat[pos : pos + nout])
            pos += nout
        if pos != flat.size:
            raise ShapeError(f"flat vector length {flat.size} != param count {self.param_count}")
        return ws, bs

    def with_params(self, flat: np.ndarray) -> "Mlp":
        ws, bs = self._split_flat(np.asarray(flat, dtype=np.float64))
        return Mlp(self.widths, self.activation, ws, bs, init_seed=self.init_seed)

    # -- forward -------------------------------------------------------------------

    def _forward(self, x: np.ndarray):
        return _forward_sweep(self.weights, self.biases, self.activation, x)

    def forward_batch(self, x: np.ndarray):
        """Return (logits, features) where features lists each hidden activation then the logits."""
        zs, acts = self._forward(x)
        return acts[-1], list(acts[1:])

    def forward_with_features(self, x: np.ndarray):
        logits, feats = self.forward_batch(np.asarray(x, dtype=np.float64)[None, :])
        return logits[0], [f[0] for f in feats]

    def predict(self, x: np.ndarray) -> np.ndarray:
        logits, _ = self.forward_batch(x)
        return np.argmax(logits, axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == np.asarray(y, dtype=np.int64)))

    def mean_loss(self, x: np.ndarray, y: np.ndarray, loss: str = "cross_entropy") -> float:
        logits, _ = self.forward_batch(x)
        return float(np.mean(per_sample_loss(logits, y, loss)))

    # -- reverse mode ----------------------------------------------------------------

    def backward(self, x: np.ndarray, y: np.ndarray, loss: str = "cross_entropy"):
        """Exact gradients of the mean batch loss w.r.t. parameters and inputs.

        Returns (loss value, flat parameter gradient, per-row input gradients).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] < 1:
            raise ShapeError("batch must be nonempty")
        zs, acts = self._forward(x)
        value, g = _loss_value_and_grad(acts[-1], y, loss)
        flat = np.empty(self.param_count)
        ginput = _reverse_sweep(self.weights, self.activation, zs, acts, g, grads=self._split_flat(flat))
        return value, flat, ginput

    def feature_input_vjp(self, x: np.ndarray, upstream: list) -> np.ndarray:
        """Input gradients of sum_b <upstream_b, feature_b> summed over feature entries."""
        zs, acts = self._forward(x)
        up = list(upstream)
        if len(up) != len(self.weights):
            raise ShapeError("upstream must align with the features list")
        g0 = up[-1] if up[-1] is not None else np.zeros_like(acts[-1])
        return _reverse_sweep(self.weights, self.activation, zs, acts, g0, upstream=[*up[:-1], None])

    # -- forward-over-reverse tangent -----------------------------------------------

    def input_grad_param_tangent(self, x, y, loss, v_flat):
        """Directional derivative (in parameter space) of the input gradients.

        Computes d/d eps of grad_x meanloss(theta + eps v) at eps = 0, which equals
        grad_x of <v, grad_theta meanloss>. Used for analytic gradient matching.
        """
        vw, vb = self._split_flat(np.asarray(v_flat, dtype=np.float64))
        x = np.asarray(x, dtype=np.float64)
        last = len(self.weights) - 1
        acts = [x]
        adots = [np.zeros_like(x)]
        zs, zdots = [], []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            zdot = adots[-1] @ w + acts[-1] @ vw[i] + vb[i]
            zs.append(z)
            zdots.append(zdot)
            if i < last:
                acts.append(_act(self.activation, z))
                adots.append(_act_prime(self.activation, z) * zdot)
            else:
                acts.append(z)
                adots.append(zdot)
        logits = acts[-1]
        _, g = _loss_value_and_grad(logits, y, loss)
        gdot = _loss_grad_logits_tangent(logits, zdots[-1], y, loss)
        for i in range(last, -1, -1):
            ga = g @ self.weights[i].T
            gadot = gdot @ self.weights[i].T + g @ vw[i].T
            if i == 0:
                return gadot
            ap = _act_prime(self.activation, zs[i - 1])
            apdot = _act_prime_tangent(self.activation, zs[i - 1], zdots[i - 1])
            g = ga * ap
            gdot = gadot * ap + ga * apdot

    # -- per-sample output Jacobians --------------------------------------------------

    def output_param_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Per-sample Jacobian of each logit w.r.t. the flat parameter vector, shape (B, C, P)."""
        x = np.asarray(x, dtype=np.float64)
        zs, acts = self._forward(x)
        bsz = x.shape[0]
        cdim = self.n_outputs
        out = np.zeros((bsz, cdim, self.param_count))
        last = len(self.weights) - 1
        for c in range(cdim):
            g = np.zeros((bsz, cdim))
            g[:, c] = 1.0
            pieces = []
            gc = g
            for i in range(last, -1, -1):
                dw = np.einsum("bi,bo->bio", acts[i], gc)
                db = gc
                pieces.append((i, dw, db))
                if i == 0:
                    break
                gc = (gc @ self.weights[i].T) * _act_prime(self.activation, zs[i - 1])
            pieces.sort(key=lambda t: t[0])
            flat = np.concatenate(
                [np.concatenate([dw.reshape(bsz, -1), db], axis=1) for _, dw, db in pieces], axis=1
            )
            out[:, c, :] = flat
        return out

    # -- serialization -----------------------------------------------------------------

    def to_text(self) -> str:
        header = {
            "widths": list(self.widths),
            "activation": self.activation,
            "init_seed": self.init_seed,
        }
        import json

        params = " ".join(repr(float(v)) for v in self.flat_params())
        return json.dumps(header) + "\n" + params + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Mlp":
        import json

        head, params = text.strip().split("\n", 1)
        header = json.loads(head)
        flat = np.asarray([float(v) for v in params.split()], dtype=np.float64)
        m = cls.init(header["widths"], header["activation"], seed=header.get("init_seed", 0))
        return m.with_params(flat)


class LinearModel:
    """Bias-free linear hypothesis f(x) = x W, the convex inner problem of ridge flavors."""

    def __init__(self, weight: np.ndarray):
        w = np.asarray(weight, dtype=np.float64)
        if w.ndim != 2:
            raise ShapeError("weight must be 2-D")
        self.weight = w.copy()
        self.weight.setflags(write=False)

    @property
    def n_inputs(self) -> int:
        return self.weight.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.weight.shape[1]

    @property
    def param_count(self) -> int:
        return self.weight.size

    def flat_params(self) -> np.ndarray:
        return self.weight.ravel().copy()

    def forward_batch(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        logits = x @ self.weight
        return logits, [logits]

    def output_param_jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        bsz, n = x.shape
        c = self.n_outputs
        out = np.zeros((bsz, c, n * c))
        for k in range(c):
            block = np.zeros((bsz, n, c))
            block[:, :, k] = x
            out[:, k, :] = block.reshape(bsz, -1)
        return out


class IdentityModel:
    """Feature extractor returning the raw input, handy as an oracle in tests."""

    def forward_batch(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        return x, [x]


def _as_xy(d):
    if isinstance(d, (LabeledDataset, SyntheticDataset)):
        return d.features, d.labels
    x, y = d
    return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)


class _FlatSgd:
    """A private flat parameter buffer and a gradient buffer, with per-layer views made once.

    ``step`` runs one forward sweep, the fused loss, one reverse sweep into the
    gradient buffer and an in-place update, so no ``Mlp`` is built per step.
    Callers run it under ``np.errstate(over="ignore", invalid="ignore")``; the two
    finiteness checks turn an overflow into a ``DivergenceError``.
    """

    def __init__(self, m: Mlp, params: np.ndarray):
        self.activation = m.activation
        self.params = np.array(params, dtype=np.float64)
        self.grad = np.empty_like(self.params)
        self.weights, self.biases = m._split_flat(self.params)
        self.grads = m._split_flat(self.grad)

    def step(self, x, y, loss: str, lr: float, where: str):
        zs, acts = _forward_sweep(self.weights, self.biases, self.activation, x)
        value, g = _loss_value_and_grad(acts[-1], y, loss)
        if not math.isfinite(value):
            raise DivergenceError(f"loss became non-finite at {where}")
        _reverse_sweep(self.weights, self.activation, zs, acts, g, grads=self.grads)
        self.params -= lr * self.grad
        if not np.isfinite(self.params).all():
            raise DivergenceError(f"parameters became non-finite at {where}")


def sgd_train(m: Mlp, d, cfg: TrainConfig, record: bool = False):
    """Mini-batch SGD with per-epoch shuffling fixed by the config seed.

    Updates a private flat parameter buffer in place and returns a freshly
    validated ``Mlp`` built from it (``m`` itself when ``cfg.epochs`` is 0), and,
    when ``record`` is set, the trajectory of end-of-epoch flattened snapshots
    (snapshot 0 is the initialization). Divergence raises ``DivergenceError``
    naming the epoch.
    """
    x, y = _as_xy(d)
    rng = np.random.default_rng(cfg.seed)
    net = _FlatSgd(m, m.flat_params())
    snaps = [net.params.copy()]
    if cfg.epochs == 0:
        return (m, Trajectory(tuple(snaps))) if record else (m, None)
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            where = f"epoch {epoch}"
            for start in range(0, n, cfg.batch_size):
                rows = perm[start : start + cfg.batch_size]
                net.step(x[rows], y[rows], cfg.loss, cfg.learning_rate, where)
            if record:
                snaps.append(net.params.copy())
    out = m.with_params(net.params)
    return (out, Trajectory(tuple(snaps))) if record else (out, None)


def pgd_attack(
    m: Mlp,
    x: np.ndarray,
    y: np.ndarray,
    eps: float,
    steps: int = 10,
    step_size: float | None = None,
    norm: str = "l_inf",
    loss: str = "cross_entropy",
) -> np.ndarray:
    """L-inf projected sign-gradient ascent; returns the per-sample worst iterate found.

    Iterates stay inside both the eps-ball around x and [0, 1]^n. The clean input
    is always a candidate, so the attacked loss never drops below the clean loss.
    """
    if norm != "l_inf":
        raise ConfigError("only the l_inf norm is implemented")
    if eps < 0:
        raise DomainError("eps must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    if eps == 0:
        return x.copy()
    if step_size is None:
        step_size = max(eps / max(steps, 1) * 2.5, 1e-12)
    y = np.asarray(y, dtype=np.int64)
    best = x.copy()
    logits, _ = m.forward_batch(best)
    best_loss = per_sample_loss(logits, y, loss)
    adv = x.copy()
    for _ in range(steps):
        _, _, ginput = m.backward(adv, y, loss)
        adv = adv + step_size * np.sign(ginput)
        adv = np.clip(adv, x - eps, x + eps)
        adv = np.clip(adv, 0.0, 1.0)
        logits, _ = m.forward_batch(adv)
        cand = per_sample_loss(logits, y, loss)
        better = cand > best_loss
        best[better] = adv[better]
        best_loss = np.where(better, cand, best_loss)
    return best


def power_iteration_eig(matvec, dim: int, iters: int = 30, seed: int = 0):
    """Dominant (signed) eigenvalue estimate of a symmetric operator via power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max(iters, 1)):
        hv = matvec(v)
        if not np.all(np.isfinite(hv)):
            raise NumericalError("matrix-vector product became non-finite")
        norm = np.linalg.norm(hv)
        if norm == 0.0:
            return 0.0
        lam = float(v @ hv)
        v = hv / norm
    hv = matvec(v)
    return float(v @ hv)


def max_eigenvalue(matvec, dim: int, iters: int = 30, seed: int = 0) -> float:
    """Largest (signed) eigenvalue: shift and re-run if the dominant one is negative."""
    lam = power_iteration_eig(matvec, dim, iters, seed)
    if lam >= 0:
        return lam
    shift = abs(lam) * 1.5 + 1e-12
    shifted = power_iteration_eig(lambda v: matvec(v) + shift * v, dim, iters, seed)
    return shifted - shift


def loss_hvp_fd(m: Mlp, x, y, loss: str):
    """Central finite-difference Hessian-vector products of the mean loss at m's parameters."""
    theta = m.flat_params()
    h = 1e-4 * (1.0 + np.linalg.norm(theta))

    def matvec(v: np.ndarray) -> np.ndarray:
        _, gp, _ = m.with_params(theta + h * v).backward(x, y, loss)
        _, gm, _ = m.with_params(theta - h * v).backward(x, y, loss)
        return (gp - gm) / (2.0 * h)

    return matvec


def lambda_max_estimate(m: Mlp, d, loss: str = "cross_entropy", iters: int = 30, seed: int = 0) -> float:
    """Dominant eigenvalue of the loss Hessian via power iteration on FD Hessian-vector products."""
    if iters < 1:
        raise ConfigError("iters must be >= 1")
    x, y = _as_xy(d)
    matvec = loss_hvp_fd(m, x, y, loss)
    return power_iteration_eig(matvec, m.param_count, iters, seed)
