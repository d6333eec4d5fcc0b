"""Small feedforward networks with hand-written forward and backward passes.

``Mlp`` is the package's one model class: every hypothesis of a ``ModelBatch``, every
network behind an eNTK or NFK kernel and every trained evaluator is one, and a linear
hypothesis x W + b is an ``Mlp`` without hidden layers. The reverse-mode engine exposes
per-layer features, exact parameter and input gradients, and one forward-over-reverse
tangent sweep that gives the mixed second derivatives of gradient matching and exact
Hessian-vector products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, SyntheticDataset
from .errors import (
    POSITIVE,
    ConfigError,
    DivergenceError,
    DomainError,
    NumericalError,
    ShapeError,
    ValidationError,
    check_fields,
    check_number,
)

LOSSES = ("cross_entropy", "mse")
ACTIVATIONS = ("relu", "tanh")


def _act(name: str, z: np.ndarray, out=None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out) if name == "relu" else np.tanh(z, out=out)


def _act_prime(name: str, z: np.ndarray, out=None) -> np.ndarray:
    """The activation's derivative at z, in ``out`` when given (a new array otherwise)."""
    out = np.empty_like(z) if out is None else out
    if name == "relu":
        return np.greater(z, 0.0, out=out)
    np.tanh(z, out=out)
    out *= out
    return np.subtract(1.0, out, out=out)


def _check_labels(y: np.ndarray, k: int) -> None:
    if y.size and (y.min() < 0 or y.max() >= k):
        raise ValidationError(f"labels must lie in [0, {k})")


def _loss_workspace(shape) -> tuple:
    """The buffers of ``_loss_value_and_grad`` for logits of shape (..., B, k): the logit
    gradient, two per-row columns, the per-row values, and the flat index of each row's label
    entry with the row offsets it is taken from."""
    lead, k = tuple(shape[:-1]), shape[-1]
    n = math.prod(lead)
    return (np.empty(shape), np.empty((*lead, 1)), np.empty((*lead, 1)), np.empty(lead),
            np.arange(0, n * k, k), np.empty(n, dtype=np.int64))


def _loss_value_and_grad(logits: np.ndarray, labels: np.ndarray, loss: str, out=None):
    """Mean batch loss and its gradient with respect to the logits.

    The package's one loss formula: one softmax (cross-entropy) or one residual (mse) feeds
    both, and the value is the mean of the per-row losses that stay in the workspace (which
    ``pgd_attack`` reads), by ``sum() / b``, ``np.mean``'s own arithmetic without its per-call
    overhead. A leading stack axis on logits and labels gives each batch its own mean loss
    (an array of values). The one-hot target is subtracted as 1.0 at each label entry
    (x - 0.0 is x, bit for bit), so given ``out``, a ``_loss_workspace`` of the logits'
    shape, the gradient is written there and nothing batch-sized is allocated; a workspace's
    owner checks its labels once (``_FlatSgd``), where a call without one checks them every time.
    """
    if loss not in LOSSES:
        raise ConfigError(f"unknown loss {loss!r}")
    b, k = logits.shape[-2:]
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if out is None:
        _check_labels(y, k)
        out = _loss_workspace(logits.shape)
    grad, col, lse, per_row, offsets, at = out
    np.add(offsets, y, out=at)
    flat = grad.reshape(-1)
    if loss == "cross_entropy":
        np.maximum.reduce(logits, axis=-1, keepdims=True, out=col)
        np.subtract(logits, col, out=grad)
        np.exp(grad, out=grad)
        np.add.reduce(grad, axis=-1, keepdims=True, out=lse)
        grad /= lse
        np.log(lse, out=lse)
        lse += col
        # "clip" never clips an index in range, and unlike "raise" takes no buffered copy
        logits.reshape(-1).take(at, out=per_row.reshape(-1), mode="clip")
        np.subtract(lse[..., 0], per_row, out=per_row)
    else:
        np.copyto(grad, logits)
        np.subtract.at(flat, at, 1.0)
        np.square(grad, out=grad)
        np.add.reduce(grad, axis=-1, out=per_row)
        per_row *= 0.5
        np.copyto(grad, logits)  # the residual again, where its squares were
    value = np.add.reduce(per_row, axis=-1) / max(b, 1)  # an empty batch's rows sum to 0
    np.subtract.at(flat, at, 1.0)
    grad /= b
    return (float(value) if value.ndim == 0 else value), grad


def _loss_grad_logits_tangent(logits: np.ndarray, zdot: np.ndarray, loss: str) -> np.ndarray:
    b = logits.shape[-2]
    if loss == "mse":
        return zdot / b
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    inner = np.sum(p * zdot, axis=-1, keepdims=True)
    return (p * zdot - p * inner) / b


def _forward_sweep(weights, biases, activation: str, x: np.ndarray, out=None):
    """Pre-activations and activations (input first, logits last) of one (B, n) batch, or of each
    batch of a (..., B, n) stack; the sweeps below keep leading stack axes, which broadcast as
    in ``np.matmul``. Per-layer weights (C, in, out) and biases (C, out) give each batch of a
    (C, B, n) stack its own network, and an ensemble's (M, 1, in, out) weights and (M, 1, out)
    biases sweep it through each of M networks into (M, C, B, ·) arrays. ``out``, a pair of
    per-layer buffer lists (every layer's z, then each hidden activation), receives them in
    place of new arrays."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != weights[0].shape[-2]:
        raise ShapeError(f"expected (B, {weights[0].shape[-2]}) inputs or a stack of them, got {x.shape}")
    z_out, a_out = ([None] * len(weights),) * 2 if out is None else out
    acts = [x]
    zs = []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(acts[-1], w, out=z_out[i])
        z += b[..., None, :]
        zs.append(z)
        acts.append(_act(activation, z, a_out[i]) if i < last else z)
    return zs, acts


def _reverse_sweep(weights, activation: str, zs, acts, g_logits, upstream=None, grads=None, input_part=True,
                   out=None):
    """Reverse sweep from logit gradients plus optional upstream terms on the hidden activations.

    It takes ``_forward_sweep``'s zs and acts, with their stack axes, and the weights they
    were swept through. ``upstream`` aligns with the hidden activations (None where one takes
    no gradient); an upstream on the logits belongs in ``g_logits``. ``grads`` is a pair of
    per-layer (weight, bias) views into a caller-owned flat buffer that receives the parameter
    gradients, one row per batch of a stack; None skips them. ``out``, a pair of per-layer
    buffer lists indexed by layer (ga and the activation's derivative act', from layer 1 on),
    receives each hidden layer's ga, which then holds its g, and act' in place of new arrays;
    they may be the buffers of ``acts[i]`` and ``zs[i - 1]``, which the sweep has read for the
    last time when it writes them. Returns the input gradients; without ``input_part`` it
    stops at layer 0's parameter gradients and returns None.
    """
    last = len(weights) - 1
    ga_out, ap_out = ([None] * (last + 1),) * 2 if out is None else out
    g = g_logits
    for i in range(last, -1, -1):
        if grads is not None:
            np.matmul(np.swapaxes(acts[i], -1, -2), g, out=grads[0][i])
            g.sum(axis=-2, out=grads[1][i])
        if i == 0 and not input_part:
            return None
        ga = np.matmul(g, np.swapaxes(weights[i], -1, -2), out=ga_out[i])
        if i == 0:
            return ga
        if upstream is not None and upstream[i - 1] is not None:
            ga += upstream[i - 1]
        g = np.multiply(ga, _act_prime(activation, zs[i - 1], ap_out[i]), out=ga)


def _tangent_sweep(weights, activation: str, zs, acts, g, loss: str | None, vw, vb, grads=None, input_part=True,
                   aps=None):
    """One forward-over-reverse sweep (Pearlmutter 1994) along the parameter direction (vw, vb).

    It starts from the primal of the mean loss at ``weights``: ``_forward_sweep``'s
    zs and acts and the logit gradient g. Returns the input part, grad_x of
    <v, grad_theta meanloss>. With ``grads``, per-layer views as in ``_reverse_sweep``,
    it also writes the parameter part, the exact Hessian-vector product H v; without
    ``input_part`` it stops there and returns None. The direction's per-layer views
    broadcast against the primal's stack axes as the weights do: on a (C, B, n) primal each
    batch takes its own direction (one row of a (C, P) buffer). With ``loss`` None the
    functional is <g, logits> itself: g is fixed, so its tangent is zero. ``aps``, the primal's
    act' of each hidden layer, saves recomputing them when one primal serves many sweeps.
    """
    last = len(weights) - 1
    aps = [_act_prime(activation, z) for z in zs[:-1]] if aps is None else aps
    zdots, adots = [], [None]  # the input does not move with theta
    for i in range(last + 1):
        zdot = acts[i] @ vw[i] if i == 0 else adots[i] @ weights[i] + acts[i] @ vw[i]
        zdots.append(zdot + vb[i][..., None, :])
        adots.append(aps[i] * zdots[i] if i < last else None)
    gdot = np.zeros_like(zdots[-1]) if loss is None else _loss_grad_logits_tangent(acts[-1], zdots[-1], loss)
    for i in range(last, -1, -1):
        if grads is not None:
            np.matmul(np.swapaxes(acts[i], -1, -2), gdot, out=grads[0][i])
            gdot.sum(axis=-2, out=grads[1][i])
            if i > 0:
                grads[0][i] += np.swapaxes(adots[i], -1, -2) @ g
        if i == 0 and not input_part:
            return None
        wt = np.swapaxes(weights[i], -1, -2)
        gadot = gdot @ wt + g @ np.swapaxes(vw[i], -1, -2)
        if i == 0:
            return gadot
        ga = g @ wt
        g = ga * aps[i - 1]
        gdot = gadot * aps[i - 1]
        if activation == "tanh":  # d/d eps of tanh'(z): -2 tanh(z) tanh'(z) zdot; relu's is 0 a.e.
            gdot += ga * (-2.0 * acts[i] * aps[i - 1] * zdots[i - 1])


TRAIN_FIELDS = {"learning_rate": (POSITIVE, None), "epochs": (int, 0), "batch_size": (int, 1),
                "loss": (LOSSES, None), "seed": (int, None)}


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters; deterministic given the seed."""

    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    loss: str = "cross_entropy"
    seed: int = 0

    def __post_init__(self):
        check_fields(self, TRAIN_FIELDS)


class Mlp:
    """Fully connected network whose parameters are one read-only flat vector.

    Architecture is ``widths = [n, w1, ..., wL, C]`` with the chosen activation on
    hidden layers and linear logits. Zero hidden layers (``[n, C]``) is allowed.
    ``Mlp(widths, activation, params)`` copies ``params``, the flat vector in
    ``_split_flat``'s order (w0, b0, w1, b1, ...), into a private read-only buffer, and
    ``weights`` and ``biases`` are per-layer views of that buffer.
    """

    def __init__(self, widths, activation, params):
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ConfigError(f"widths must be >= 1 with at least input and output: {widths}")
        if activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        self.widths, self.activation = widths, activation
        self._params = np.array(params, dtype=np.float64)
        if self._params.shape != (self.param_count,):
            raise ShapeError(f"expected {self.param_count} parameters for widths {widths}, got {self._params.shape}")
        if not np.all(np.isfinite(self._params)):
            raise ValidationError("parameters contain NaN or Inf")
        self._params.setflags(write=False)
        self.weights, self.biases = map(tuple, self._split_flat(self._params))

    @classmethod
    def init(cls, widths, activation: str = "relu", seed: int = 0) -> "Mlp":
        """He-style scaled Gaussian initialization from the seed, layer by layer; zero biases."""
        rng = np.random.default_rng(seed)
        widths = tuple(int(w) for w in widths)
        flat, pos = np.zeros(sum((a + 1) * b for a, b in zip(widths, widths[1:]))), 0
        for a, b in zip(widths, widths[1:]):
            flat[pos:pos + a * b] = rng.normal(0.0, np.sqrt(2.0 / a), size=a * b)
            pos += (a + 1) * b
        return cls(widths, activation, flat)

    # -- parameter vector plumbing -------------------------------------------------

    @property
    def n_outputs(self) -> int:
        return self.widths[-1]

    @property
    def param_count(self) -> int:
        return sum((a + 1) * b for a, b in zip(self.widths, self.widths[1:]))

    def flat_params(self) -> np.ndarray:
        """A fresh, writable copy of the parameter vector."""
        return self._params.copy()

    def _split_flat(self, flat: np.ndarray):
        """Per-layer (weight, bias) views into a flat parameter vector, or into each row of a (C, P) stack."""
        ws, bs, pos, lead = [], [], 0, flat.shape[:-1]
        for nin, nout in zip(self.widths, self.widths[1:]):
            ws.append(flat[..., pos : pos + nin * nout].reshape(*lead, nin, nout))
            bs.append(flat[..., pos + nin * nout : pos + (nin + 1) * nout])
            pos += (nin + 1) * nout
        if pos != flat.shape[-1]:
            raise ShapeError(f"flat vector length {flat.shape[-1]} != param count {self.param_count}")
        return ws, bs

    def with_params(self, flat: np.ndarray) -> "Mlp":
        return Mlp(self.widths, self.activation, flat)

    # -- forward -------------------------------------------------------------------

    def _forward(self, x: np.ndarray):
        return _forward_sweep(self.weights, self.biases, self.activation, x)

    def forward_batch(self, x: np.ndarray):
        """Return (logits, features) where features lists each hidden activation then the logits."""
        zs, acts = self._forward(x)
        return acts[-1], list(acts[1:])

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        logits, _ = self.forward_batch(x)
        return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y, dtype=np.int64)))

    def mean_loss(self, x: np.ndarray, y: np.ndarray, loss: str = "cross_entropy") -> float:
        logits, _ = self.forward_batch(x)
        return _loss_value_and_grad(logits, y, loss)[0]

    # -- reverse mode ----------------------------------------------------------------

    def backward(self, x: np.ndarray, y: np.ndarray, loss: str = "cross_entropy", out=None, input_part: bool = True):
        """Exact gradients of the mean batch loss w.r.t. parameters and inputs.

        Returns (loss value, flat parameter gradient, per-row input gradients). On a
        (C, B, n) stack of batches with (C, B) labels each batch has its own mean
        loss: C values, a (C, P) gradient and (C, B, n) input gradients. ``out``, a
        (P,) or (C, P) buffer, receives the parameter gradient in place of a new array,
        and without ``input_part`` the input gradients are skipped and the third value is
        the forward's features, as ``forward_batch`` lists them.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.size == 0:
            raise ShapeError("batch must be nonempty")
        zs, acts = self._forward(x)
        value, g = _loss_value_and_grad(acts[-1], y, loss)
        flat = np.empty((*x.shape[:-2], self.param_count)) if out is None else out
        ginput = _reverse_sweep(self.weights, self.activation, zs, acts, g, grads=self._split_flat(flat),
                                input_part=input_part)
        return value, flat, ginput if input_part else list(acts[1:])

    def feature_input_vjp(self, x: np.ndarray):
        """``forward_batch(x)``'s features and their pullback from this call's one forward sweep:
        upstream, aligned with the features list (None where a feature takes no gradient) -> the
        input gradients of sum_b <upstream_b, feature_b>, one reverse sweep."""
        zs, acts = self._forward(x)

        def pullback(upstream: list) -> np.ndarray:
            up = list(upstream)
            if len(up) != len(self.weights):
                raise ShapeError("upstream must align with the features list")
            g0 = up[-1] if up[-1] is not None else np.zeros_like(acts[-1])
            return _reverse_sweep(self.weights, self.activation, zs, acts, g0, upstream=up[:-1])

        return list(acts[1:]), pullback

    # -- forward-over-reverse tangent -----------------------------------------------

    def input_grad_param_tangent(self, x, y, loss, v_flat, grads=None, params=None):
        """One forward sweep and one ``_tangent_sweep`` along the parameter direction v.

        Differentiates the mean-loss gradients along v at theta, the model's parameters or, given
        ``params``, per-layer views into that flat vector (no model is built). Returns the input
        part, grad_x of <v, grad_theta meanloss>, which the sharpness terms and the bilevel adjoint
        read; with ``grads`` it also writes the exact Hessian-vector product H v there (``loss_hvp``
        gives H v alone). Stacks as in ``backward``, with a (C, P) v.
        """
        vw, vb = self._split_flat(np.asarray(v_flat, dtype=np.float64))
        weights, biases = (self.weights, self.biases) if params is None else self._split_flat(params)
        zs, acts = _forward_sweep(weights, biases, self.activation, x)
        _, g = _loss_value_and_grad(acts[-1], y, loss)
        return _tangent_sweep(weights, self.activation, zs, acts, g, loss, vw, vb, grads)

    # -- per-sample output Jacobians --------------------------------------------------

    def logit_jacobian(self, x: np.ndarray):
        """Per-sample Jacobian of each logit w.r.t. the flat parameter vector, shape (B, C, P), and its
        pullback v (B, C, P) -> grad_x of sum_c <v[b, c], d f_c(x_b) / d theta> for each row b. One forward
        sweep of the (B*C, 1, n) stack that repeats each row once per logit c, seeded with e_c, feeds
        one reverse sweep into a (B*C, P) buffer and each pullback's tangent sweep along v[b, c]."""
        x = np.asarray(x, dtype=np.float64)
        c = self.n_outputs
        zs, acts = self._forward(np.repeat(x, c, axis=0)[:, None, :])
        g = np.tile(np.eye(c), (x.shape[0], 1))[:, None, :]
        out = np.empty((g.shape[0], self.param_count))
        _reverse_sweep(self.weights, self.activation, zs, acts, g, grads=self._split_flat(out), input_part=False)

        def pullback(v):
            vw, vb = self._split_flat(np.asarray(v, dtype=np.float64).reshape(-1, self.param_count))
            gx = _tangent_sweep(self.weights, self.activation, zs, acts, g, None, vw, vb)
            return gx.reshape(-1, c, gx.shape[-1]).sum(axis=1)

        return out.reshape(-1, c, self.param_count), pullback


def _as_xy(d):
    if isinstance(d, (LabeledDataset, SyntheticDataset)):
        return d.features, d.labels
    x, y = d
    return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)


def _sweep_workspace(widths, shape) -> tuple:
    """The buffers of one forward and one reverse sweep of row batches of ``shape`` (leading
    stack axes, then rows) through networks of ``widths``: an input-sized buffer, and the
    ``out`` of ``_forward_sweep`` and of ``_reverse_sweep``. ``_reverse_sweep`` writes each
    layer's ga and act' over the activation (the input-sized buffer, at layer 0) and z that
    ``_forward_sweep`` wrote there, each of which it has read for the last time by then. All
    are views of one block, so a workspace is freed whole instead of leaving holes in the heap."""
    n, sizes = math.prod(shape), (*widths, *widths[1:-1])
    ends = np.cumsum(sizes) * n
    block = np.empty(ends[-1])
    x, *bufs = (block[end - n * w:end].reshape(*shape, w) for w, end in zip(sizes, ends))
    zs, acts = bufs[:len(widths) - 1], bufs[len(widths) - 1:]
    return x, (zs, acts), ([x, *acts], [None, *zs[:-1]])


class _FlatSgd:
    """SGD of size ``lr`` on the rows of (x, y), with a private flat parameter buffer and a
    gradient buffer whose per-layer views are made once.

    The buffer is one network's (P,) parameters, or an (R, P) stack of R networks
    of one architecture that step together on (R, B) row batches. ``step`` gathers the
    batch, an index array over the rows (a full batch is ``np.arange`` of them), into its
    workspace and runs one forward sweep, the fused loss, one reverse sweep into the
    gradient buffer (stopping at layer 0's parameter gradients) and an in-place update,
    so no ``Mlp`` is built per step. A step reuses per-shape workspaces and allocates
    nothing batch-sized: a run has at most two batch shapes, the full batch and a ragged
    last one, and their workspaces are freed with the object when the run ends. Callers
    run it under ``np.errstate(over="ignore", invalid="ignore")``; the two finiteness
    checks turn an overflow of any member into a ``DivergenceError``.
    """

    def __init__(self, m: Mlp, params: np.ndarray, x, y, loss: str, lr: float):
        self.widths, self.activation, self.loss, self.lr = m.widths, m.activation, loss, lr
        self.x, self.y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)
        _check_labels(self.y, m.n_outputs)
        self.params = np.array(params, dtype=np.float64)
        self.grad = np.empty_like(self.params)
        self.update = np.empty_like(self.params)
        self.weights, self.biases = m._split_flat(self.params)
        self.grads = m._split_flat(self.grad)
        self.workspaces = {}

    def _workspace(self, shape) -> tuple:
        """The buffers of a step on row batches of ``shape``: the gathered rows and labels, the
        ``out`` of each sweep (``_sweep_workspace``'s) and the loss's."""
        if shape not in self.workspaces:
            x, forward, reverse = _sweep_workspace(self.widths, shape)
            self.workspaces[shape] = (x, np.empty(shape, dtype=np.int64), forward, reverse,
                                      _loss_workspace((*shape, self.widths[-1])))
        return self.workspaces[shape]

    def step(self, rows: np.ndarray, where: str):
        """One step on the rows of (x, y) that the index array ``rows`` names, gathered into the
        workspace of its shape."""
        xb, yb, forward, reverse, loss_out = self._workspace(rows.shape)
        # rows index x, so "clip" never clips; "raise" would take a buffered copy
        x, y = self.x.take(rows, axis=0, out=xb, mode="clip"), self.y.take(rows, out=yb, mode="clip")
        zs, acts = _forward_sweep(self.weights, self.biases, self.activation, x, forward)
        value, g = _loss_value_and_grad(acts[-1], y, self.loss, loss_out)
        if not np.isfinite(value).all():
            raise DivergenceError(f"loss became non-finite at {where}")
        _reverse_sweep(self.weights, self.activation, zs, acts, g, grads=self.grads, input_part=False, out=reverse)
        np.multiply(self.grad, self.lr, out=self.update)
        self.params -= self.update
        if not np.isfinite(self.params).all():
            raise DivergenceError(f"parameters became non-finite at {where}")


def epoch_batches(n: int, cfg: TrainConfig, seeds=None):
    """The row batches of each ``sgd_train`` epoch over n rows: a seeded permutation cut into batches.

    Given ``seeds`` (read in place of ``cfg.seed``), batch k is the (len(seeds), b)
    stack of each seed's k-th batch.
    """
    rngs = [np.random.default_rng(s) for s in (seeds or [cfg.seed])]
    for _ in range(cfg.epochs):
        perm = np.stack([rng.permutation(n) for rng in rngs]) if seeds else rngs[0].permutation(n)
        yield [perm[..., start : start + cfg.batch_size] for start in range(0, n, cfg.batch_size)]


def sgd_train_stack(models, d, cfg: TrainConfig, seeds, record: bool = False):
    """Mini-batch SGD of R networks of one architecture as one stack, each member bit for bit as
    ``sgd_train`` trains it alone.

    Member r starts from ``models[r]`` and shuffles with ``seeds[r]`` (``cfg.seed``
    is not read). Each step is one ``_FlatSgd`` sweep over the (R, B, n) stack of
    the members' batches, updating one (R, P) parameter buffer in place. Returns
    the trained models (``models`` themselves when ``cfg.epochs`` is 0) and, when
    ``record`` is set, each member's (epochs + 1, P) array of end-of-epoch flattened
    snapshots (row 0 is the initialization), else None. The first epoch in which
    any member goes non-finite raises ``DivergenceError`` naming it.
    """
    if not models or len(seeds) != len(models):
        raise ConfigError(f"need one seed per model and at least one model, got {len(models)} and {len(seeds)}")
    if any(m.widths != models[0].widths or m.activation != models[0].activation for m in models):
        raise ShapeError("stacked models must share their widths and activation")
    x, y = _as_xy(d)
    net = _FlatSgd(models[0], np.stack([m.flat_params() for m in models]), x, y, cfg.loss, cfg.learning_rate)
    snaps = [net.params.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, batches in enumerate(epoch_batches(x.shape[0], cfg, seeds)):
            where = f"epoch {epoch}"
            for rows in batches:
                net.step(rows, where)
            if record:
                snaps.append(net.params.copy())
    out = list(models) if cfg.epochs == 0 else [m.with_params(p) for m, p in zip(models, net.params)]
    return out, list(np.stack(snaps, axis=1)) if record else None


def sgd_train(m: Mlp, d, cfg: TrainConfig, record: bool = False):
    """Mini-batch SGD with per-epoch shuffling fixed by the config seed: ``sgd_train_stack`` with one member.

    Returns a freshly validated ``Mlp`` (``m`` itself when ``cfg.epochs`` is 0)
    and, when ``record`` is set, the (epochs + 1, P) array of end-of-epoch flattened
    snapshots (row 0 is the initialization), else None. Divergence raises
    ``DivergenceError`` naming the epoch.
    """
    [out], snapshots = sgd_train_stack([m], d, cfg, [cfg.seed], record)
    return out, snapshots[0] if record else None


def pgd_attack(
    m: Mlp,
    x: np.ndarray,
    y: np.ndarray,
    eps: float,
    steps: int = 10,
    loss: str = "cross_entropy",
) -> np.ndarray:
    """L-inf projected sign-gradient ascent; returns the per-sample worst iterate found.

    Each of the ``steps`` sign steps has size 2.5 eps / steps, so together they span more than
    the eps-ball's width of 2 eps. Iterates stay inside both the eps-ball around x and [0, 1]^n. The clean input
    is always a candidate, so the attacked loss never drops below the clean loss.
    One forward sweep per iterate gives its losses and, by an input-only reverse sweep, its ascent.
    """
    if eps < 0:
        raise DomainError("eps must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    if eps == 0:
        return x.copy()
    step_size = max(eps / max(steps, 1) * 2.5, 1e-12)
    y = np.asarray(y, dtype=np.int64)
    _check_labels(y, m.n_outputs)
    ws = _loss_workspace((*x.shape[:-1], m.n_outputs))
    best, adv = x.copy(), x
    for k in range(steps + 1):
        zs, acts = m._forward(adv)
        _, g = _loss_value_and_grad(acts[-1], y, loss, ws)  # ws[3] holds the per-sample losses
        if k == 0:
            best_loss = ws[3].copy()
        else:
            better = ws[3] > best_loss
            best[better] = adv[better]
            best_loss = np.where(better, ws[3], best_loss)
        if k < steps:
            ginput = _reverse_sweep(m.weights, m.activation, zs, acts, g)
            adv = np.clip(np.clip(adv + step_size * np.sign(ginput), x - eps, x + eps), 0.0, 1.0)
    return best


def _power_iteration(matvec, dim: int, iters: int, seed: int):
    """Dominant (signed) eigenvalue and unit eigenvector estimates of a symmetric operator."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        hv = matvec(v)
        if not np.all(np.isfinite(hv)):
            raise NumericalError("matrix-vector product became non-finite")
        norm = np.linalg.norm(hv)
        if norm == 0.0:
            return 0.0, v
        v = hv / norm
    return float(v @ matvec(v)), v


def max_eigenvalue(matvec, dim: int, iters: int = 30, seed: int = 0):
    """Largest (signed) eigenvalue and its unit eigenvector: shift and re-run if the dominant one is negative."""
    check_number("iters", iters, integer=True, low=1)
    lam, u = _power_iteration(matvec, dim, iters, seed)
    if lam >= 0:
        return lam, u
    shift = abs(lam) * 1.5 + 1e-12
    shifted, u = _power_iteration(lambda v: matvec(v) + shift * v, dim, iters, seed)
    return shifted - shift, u


def loss_hvp(m: Mlp, x, y, loss: str):
    """Exact Hessian-vector products of the mean loss at m's parameters: the primal (forward
    sweep, logit gradient and act') is built once, and each product is one tangent sweep from it."""
    zs, acts = m._forward(x)
    _, g = _loss_value_and_grad(acts[-1], y, loss)
    aps = [_act_prime(m.activation, z) for z in zs[:-1]]

    def matvec(v: np.ndarray) -> np.ndarray:
        out = np.empty(m.param_count)
        vw, vb = m._split_flat(np.asarray(v, dtype=np.float64))
        _tangent_sweep(m.weights, m.activation, zs, acts, g, loss, vw, vb, m._split_flat(out), input_part=False,
                       aps=aps)
        return out

    return matvec
