import csv
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array
from scipy.spatial.distance import cdist

from dckit import LabeledDataset, Mlp, SyntheticDataset
from dckit.condense import _matching_problem
from dckit.kernels import _rff_params, random_feature_map


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def toy_pair(rng):
    """Small labeled (T, S) pair with two classes in 3 dimensions."""
    xt = rng.uniform(0.0, 1.0, (12, 3))
    yt = np.array([0] * 6 + [1] * 6)
    t = LabeledDataset(xt, yt, 2)
    s = SyntheticDataset(
        rng.uniform(0.0, 1.0, (4, 3)), np.array([0, 0, 1, 1]), per_class_size=2, origin="fixture"
    )
    return t, s


def copy_as_synthetic(t: LabeledDataset) -> SyntheticDataset:
    """Per-class grouped copy of all of T (the exact-match fixed point)."""
    order = np.argsort(t.labels, kind="stable")
    counts = np.bincount(t.labels, minlength=t.class_count)
    assert len(set(counts)) == 1, "fixture requires balanced classes"
    return SyntheticDataset(
        t.features[order], t.labels[order], per_class_size=int(counts[0]), origin="copy"
    )


def linear_mlp(w) -> Mlp:
    """The linear hypothesis x W: an ``Mlp`` without hidden layers, with weight w and zero bias."""
    w = np.asarray(w, dtype=np.float64)
    return Mlp(w.shape, "relu", np.concatenate([w.ravel(), np.zeros(w.shape[1])]))


def reference_sgd_step(model: Mlp, params: np.ndarray, x: np.ndarray, y: np.ndarray, loss: str, lr: float):
    """One SGD step of size lr on the batch (x, y) through ``model``'s architecture at ``params``:
    a (P,) vector with a (B, n) batch, or an (R, P) stack with an (R, B, n) one. Every operation
    makes a new array and the target is one-hot, as in the trainer before its steps reused
    workspaces: the reference the workspace step is checked against bit for bit. Returns the flat
    gradient and the updated parameters."""
    ws, bs = model._split_flat(params)
    relu = model.activation == "relu"
    acts, zs = [x], []
    for i, (w, b) in enumerate(zip(ws, bs)):
        zs.append(acts[-1] @ w + b[..., None, :])
        if i < len(ws) - 1:
            acts.append(np.maximum(zs[-1], 0.0) if relu else np.tanh(zs[-1]))
    logits = zs[-1]
    target = np.eye(logits.shape[-1])[y]
    if loss == "cross_entropy":
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        g = (e / e.sum(axis=-1, keepdims=True) - target) / logits.shape[-2]
    else:
        g = (logits - target) / logits.shape[-2]
    parts = []
    for i in range(len(ws) - 1, -1, -1):
        parts = [(np.swapaxes(acts[i], -1, -2) @ g).reshape(*g.shape[:-2], -1), g.sum(axis=-2), *parts]
        if i > 0:
            g = (g @ np.swapaxes(ws[i], -1, -2)) * ((zs[i - 1] > 0.0).astype(np.float64) if relu
                                                    else 1.0 - np.tanh(zs[i - 1]) ** 2)
    grad = np.concatenate(parts, axis=-1)
    return grad, params - lr * grad


def reference_per_sample_loss(logits: np.ndarray, labels: np.ndarray, loss: str) -> np.ndarray:
    """Loss of each row by a formula of its own: cross-entropy as a log-sum-exp shifted by each
    row's maximum, mse as half the squared residual to the one-hot target. The per-row losses
    that ``_loss_value_and_grad`` leaves in its workspace are checked against it bit for bit."""
    y = np.asarray(labels, dtype=np.int64)
    if loss == "cross_entropy":
        m = logits.max(axis=1)
        lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        return lse - logits[np.arange(len(y)), y]
    target = np.eye(logits.shape[1])[y]
    return 0.5 * np.sum((logits - target) ** 2, axis=1)


def central_diff(fn, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of the scalar ``fn`` at ``x``, one coordinate at a time: the
    oracle that the exact gradients are checked against."""
    x = np.asarray(x, dtype=np.float64)
    h = 1e-5
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (fn(x + step) - fn(x - step)) / (2 * h)
    return grad


def rff_input_jacobian(spec, x: np.ndarray) -> np.ndarray:
    """d phi / d x of the random Fourier features of the rows x, shape (B, p, n): the dense
    Jacobian that the random-feature gradients are checked against."""
    w, b = _rff_params(x.shape[1], spec.feature_dim, spec.scale, spec.seed)
    s = -np.sqrt(2.0 / spec.feature_dim) * np.sin(x @ w.T + b)
    return s[:, :, None] * w[None, :, :]


def rff_vjp_reference(spec, a: np.ndarray, b: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_i coef[i, j] grad_{b_j} k(a_i, b_j) for random features, through the (A, B, n)
    tensor of per-pair gradients phi(a_i) . d phi(b_j) / d b_j."""
    per_pair = np.einsum("ap,bpn->abn", random_feature_map(spec, a), rff_input_jacobian(spec, b))
    return np.einsum("ab,abn->bn", coef, per_pair)


def transport_lp(a: np.ndarray, b: np.ndarray) -> float:
    """W1 between the uniform measures on the rows of a and b as the transport LP, solved by
    HiGHS: the oracle that the exact transport solver is checked against. The (n+m) x nm
    marginal constraint matrix is sparse, with 2nm nonzeros."""
    d = cdist(a.reshape(len(a), -1), b.reshape(len(b), -1))
    n, m = d.shape
    i, j = np.divmod(np.arange(n * m), m)  # variable i*m + j is gamma_ij
    a_eq = csc_array((np.ones(2 * n * m), np.column_stack([i, n + j]).ravel(), np.arange(0, 2 * n * m + 1, 2)),
                     shape=(n + m, n * m))
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(d.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def transport_reference(d: np.ndarray) -> np.ndarray:
    """``discrepancy._transport``'s successive shortest paths with every row entering one at a
    time, the oracle for its vectorized start: with g = gcd(n, m), row i ships m/g units and
    column j takes n/g, and each row augments along a Dijkstra path over the columns."""
    n, m = d.shape
    g = math.gcd(n, m)
    supply, cap = m // g, n // g
    flow = np.zeros((n, m), dtype=np.int64)
    load = np.zeros(m, dtype=np.int64)
    h = np.zeros(m)
    ships = [[] for _ in range(m)]  # the rows with flow into each column
    moves = [None] * m  # per column while its rows are unchanged: (cost to each column, via row)
    pred_col = np.empty(m, dtype=np.int64)
    pred_row = np.empty(m, dtype=np.int64)
    for i in range(n):
        left = supply
        while left:
            work = d[i] - h  # tentative reduced distances from row i; +inf once finalized
            open_ = np.ones(m, dtype=bool)
            pred_col.fill(-1)
            pred_row.fill(i)
            done, done_dist = [], []
            while True:
                j = int(work.argmin())
                if load[j] < cap:
                    break
                dj = work[j]
                done.append(j)
                done_dist.append(dj)
                work[j] = np.inf
                open_[j] = False
                if moves[j] is None:
                    rows = np.array(ships[j])
                    cost = d[rows] - d[rows, j][:, None]
                    best = cost.argmin(axis=0)
                    moves[j] = cost[best, np.arange(m)], rows[best]
                step, via = moves[j]
                cand = step - h
                cand += dj + h[j]
                better = cand < work
                better &= open_
                np.copyto(work, cand, where=better)
                np.copyto(pred_col, j, where=better)
                np.copyto(pred_row, via, where=better)
            if done:
                h[done] += np.asarray(done_dist) - work[j]
            delta, k = min(left, cap - load[j]), j
            while pred_col[k] >= 0:
                delta = min(delta, flow[pred_row[k], pred_col[k]])
                k = pred_col[k]
            k = j
            while True:
                r, prev = int(pred_row[k]), int(pred_col[k])
                flow[r, k] += delta
                if flow[r, k] == delta:
                    ships[k].append(r)
                    moves[k] = None
                if prev < 0:
                    break
                flow[r, prev] -= delta
                if flow[r, prev] == 0:
                    ships[prev].remove(r)
                    moves[prev] = None
                k = prev
            load[j] += delta
            left -= delta
    return flow


def write_csv(d, path) -> None:
    """Write a dataset as the CSV ``load_dataset`` reads; repr floats make a load round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d.features.shape[1])] + ["label"])
        for row, label in zip(d.features, d.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def matching_value_and_grad(cfg, t: LabeledDataset, s0: SyntheticDataset):
    """Objective value and analytic gradient of one matching step at S0 (no update)."""
    v0, objective, *_ = _matching_problem(cfg, t, s0)
    return objective(v0, 0)[:2]
