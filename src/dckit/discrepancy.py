"""Discrepancy functionals between two finite datasets, plus hierarchy-bound checks."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import per_class_partition
from .errors import (
    ArchitectureError,
    ConfigError,
    DomainError,
    LabelError,
    ShapeError,
    ValidationError,
)
from .kernels import KernelSpec, _squared_norms, kernel_or_default, mmd_squared, sq_distances
from .models import Mlp

# frequencies of the characteristic-function discrepancy cd, in report.json and in `dckit discrepancy`
CF_FREQUENCIES = 128


@dataclass(frozen=True)
class ModelBatch:
    """Finite stand-in for the hypothesis space: an ordered, nonempty tuple of ``Mlp``s of one
    architecture (one ``widths`` tuple), so that pd, a distance between parameter vectors, is
    defined for every pair."""

    models: tuple

    def __post_init__(self):
        models = tuple(self.models)
        if len(models) == 0:
            raise ValidationError("model batch must be nonempty")
        if not all(isinstance(m, Mlp) for m in models):
            raise ArchitectureError(f"a model batch holds Mlps, got {[type(m).__name__ for m in models]}")
        widths = {m.widths for m in models}
        if len(widths) > 1:
            raise ArchitectureError(f"a model batch is one architecture, got widths {sorted(widths)}")
        object.__setattr__(self, "models", models)

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self):
        return iter(self.models)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Named discrepancy values plus recorded hierarchy-bound checks."""

    values: dict[str, float]
    hierarchy_checks: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, v in self.values.items():
            if v < 0:
                raise ValidationError(f"discrepancy {name} is negative: {v}")

    def to_json(self) -> str:
        payload = {
            "values": {k: float(v) for k, v in sorted(self.values.items())},
            "hierarchy_checks": [
                {"name": n, "lhs": float(l), "rhs": float(r), "satisfied": bool(s)}
                for (n, l, r, s) in self.hierarchy_checks
            ],
            "params": self.params,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _points(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DomainError("point sets must be nonempty 2-D arrays")
    return x


def _feature_stats(method: str, feats: list) -> list:
    """The statistics that the dm / moment / sam gap compares, reduced over axis -2.

    ``feats`` lists each hidden activation and then the logits, as ``forward_batch``
    returns them, of one (B, n) batch or of a (C, B, n) stack of class batches. dm
    takes the mean of the penultimate feature h (the final hidden activation), moment
    its mean and feature-wise variance, and sam the mean square of every feature.
    """
    pen = max(len(feats) - 2, 0)
    if method == "dm":
        return [feats[pen].mean(axis=-2)]
    if method == "moment":
        return [feats[pen].mean(axis=-2), feats[pen].var(axis=-2)]
    if method == "sam":
        return [(f ** 2).mean(axis=-2) for f in feats]
    raise ConfigError(f"not a feature objective: {method!r}")


def _feature_gap(method: str, stats_t: list, feats_s: list):
    """The dm / moment / sam gap of each class c, the sum of ||stat_T[c] - stat_S[c]||_2^2 over
    T's ``_feature_stats`` ``stats_t`` ((C, h) arrays) and those of the features of S's
    (C, m, n) class stack. Leading axes before C carry through: an ensemble's (M, C, h)
    statistics against its (M, C, m, n) features give each member's gaps. Returns (values,
    upstream): the (..., C) values, and the gradient of the summed values with respect to each
    S feature (None where they do not depend on one).
    """
    stats_s = _feature_stats(method, feats_s)
    diffs = [st - ss for st, ss in zip(stats_t, stats_s)]
    values = sum(_squared_norms(d) for d in diffs)
    b = feats_s[0].shape[-2]
    if method == "sam":
        return values, [-(4.0 / b) * d[..., None, :] * f for d, f in zip(diffs, feats_s)]
    upstream = [None] * len(feats_s)
    pen = max(len(feats_s) - 2, 0)
    fs = feats_s[pen]
    upstream[pen] = np.broadcast_to(-(2.0 / b) * diffs[0][..., None, :], fs.shape).copy()
    if method == "moment":
        upstream[pen] += -(4.0 / b) * diffs[1][..., None, :] * (fs - stats_s[0][..., None, :])
    return values, upstream


def _gradient_gap(contrastive: bool, g_t: np.ndarray, g_s: np.ndarray):
    """The gm gap between the (C, P) class-mean parameter gradients of T and of S.

    One value ||g_S[c] - g_T[c]||^2 per class, or with ``contrastive`` one value for the
    gradients summed over classes. Returns (values, diffs), where the (C, P) diffs are half the
    gradient of the summed values with respect to each class's g_S: the caller doubles what it
    derives from them, which keeps the bits of doubling them here, as doubling is exact. Per
    class, the diffs are g_s itself, written over with g_S[c] - g_T[c]; contrastive broadcasts
    its one difference to every class.
    """
    if contrastive:
        diff = np.sum(g_s, axis=0) - np.sum(g_t, axis=0)
        return [float(_squared_norms(diff))], np.broadcast_to(diff, g_s.shape)
    diffs = np.subtract(g_s, g_t, out=g_s)
    return _squared_norms(diffs).tolist(), diffs


# ---------------------------------------------------------------------------
# model-based statistics (finite-batch IPM surrogates)
# ---------------------------------------------------------------------------


def _model_gaps(batch: ModelBatch, t, s, contrastive: bool) -> list:
    """[dd_feature, dd_moment, dd_gradient]: the max over the batch of dm's, moment's and gm's class
    gaps summed over classes (gm's, with ``contrastive``, is its one value). Per model, one
    ``Mlp.backward(out=row, input_part=False)`` call on each T class and one on S's class stack
    make one forward sweep, whose features give moment's statistics (dm's are their first entry),
    and one reverse sweep of the cross-entropy into that class's row of a (C, P) gradient buffer.
    Raises LabelError when the class counts differ or S's classes differ in size, and
    ValidationError when a label is not below the nets' output width."""
    if t.class_count != s.class_count:
        raise LabelError(f"class counts differ: {t.class_count} vs {s.class_count}")
    pt, ps = per_class_partition(t), per_class_partition(s)
    if len({p.size for p in ps}) > 1:
        raise LabelError(f"S's classes must be equal in size, got {[p.size for p in ps]}")
    rows = np.stack(ps)
    g_t, g_s = (np.empty((len(p), batch.models[0].param_count)) for p in (pt, ps))
    best = [0.0] * 3
    for m in batch:
        per_class = (_feature_stats("moment", m.backward(t.features[p], t.labels[p], out=row, input_part=False)[2])
                     for p, row in zip(pt, g_t))
        stats_t = [np.stack(stat) for stat in zip(*per_class)]
        feats_s = m.backward(s.features[rows], s.labels[rows], out=g_s, input_part=False)[2]
        gaps = [sum(_feature_gap(method, stats_t, feats_s)[0]) for method in ("dm", "moment")]
        gaps.append(sum(_gradient_gap(contrastive, g_t, g_s)[0]))
        best = [max(b, gap) for b, gap in zip(best, gaps)]
    return best


def ipm_feature_stat(batch: ModelBatch, t, s) -> float:
    """Max over the batch of the per-class squared feature-mean mismatch.

    Per class y the statistic is ||mean h(T^y) - mean h(S^y)||_2^2 on the
    penultimate feature h (final hidden activation), summed over classes. It is read from the
    sweeps that also give gm's gradients, so the nets are classifiers of the labels: a label not
    below their output width raises ValidationError.
    """
    return _model_gaps(batch, t, s, False)[0]


def gradient_discrepancy(batch: ModelBatch, t, s, mode: str = "per_class") -> float:
    """Max over the batch of the squared class-mean parameter-gradient mismatch under cross-entropy.

    ``per_class`` differences the class-mean gradients class by class before
    summing; ``contrastive`` sums the class-mean gradients over classes first.
    """
    if mode not in ("per_class", "contrastive"):
        raise ConfigError(f"unknown mode {mode!r}")
    return _model_gaps(batch, t, s, mode == "contrastive")[2]


def moment_discrepancy(batch: ModelBatch, t, s) -> float:
    """Max over the batch of per-class first plus second (feature-wise variance) moment gaps. As
    in ``ipm_feature_stat``, a label not below the nets' output width raises ValidationError."""
    return _model_gaps(batch, t, s, False)[1]


def loss_discrepancy(batch: ModelBatch, t, s) -> float:
    """Finite-batch distribution discrepancy max_h |L(h, T) - L(h, S)| under cross-entropy."""
    return _mean_losses(batch, t, s)[2]


def _mean_losses(batch: ModelBatch, t, s):
    """Each model's mean cross-entropy on T and on S, as the lists L_T and L_S that gd reads, and
    from them dd = max_h |L(h, T) - L(h, S)| (0 for an empty batch)."""
    losses_t, losses_s = ([m.mean_loss(d.features, d.labels, "cross_entropy") for m in batch] for d in (t, s))
    return losses_t, losses_s, max([0.0, *(abs(lt - ls) for lt, ls in zip(losses_t, losses_s))])


# ---------------------------------------------------------------------------
# model-free metrics
# ---------------------------------------------------------------------------


def _transport(d: np.ndarray) -> np.ndarray:
    """The optimal integer transport plan for the (n, m) costs d with n >= m: with
    g = gcd(n, m), row i ships m/g units and column j takes n/g.

    Successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9; Peyre
    & Cuturi, *Computational Optimal Transport*, 2019, ch. 3). Rows enter one at a time, and
    each augments by the bottleneck along a shortest path that Dijkstra finds over the
    columns only: the path enters column j from the row at cost d[i, j], and moves units that
    a row r ships to column j on to column k at cost d[r, k] - d[r, j]. Column potentials h
    make every reduced cost d[r, k] - d[r, j] + h[j] - h[k] nonnegative. Columns with spare
    capacity keep h = 0, so the first of them that Dijkstra finalizes ends a shortest path.
    Each column is finalized at most once per search, so the predecessors form a tree even
    under float ties. With n = m this is the shortest-augmenting-path assignment method.

    While h = 0 a row whose nearest column (the first argmin) has room for its whole supply
    ships it there in one augmentation and leaves h at 0, so the prefix of such rows, in row
    order, is assigned in one vectorized step with the same flow, loads and ``ships`` order.
    """
    n, m = d.shape
    g = math.gcd(n, m)
    supply, cap = m // g, n // g
    flow = np.zeros((n, m), dtype=np.int64)
    h = np.zeros(m)
    nearest = d.argmin(axis=1)
    order = np.argsort(nearest, kind="stable")
    rank = np.empty(n, dtype=np.int64)  # the rows before each row with the same nearest column
    rank[order] = np.arange(n) - np.searchsorted(nearest[order], nearest[order])
    fits = supply * (rank + 1) <= cap
    bulk = n if fits.all() else int(fits.argmin())
    flow[np.arange(bulk), nearest[:bulk]] = supply
    load = np.bincount(nearest[:bulk], minlength=m) * supply
    ships = [[] for _ in range(m)]  # the rows with flow into each column
    for i, j in enumerate(nearest[:bulk].tolist()):
        ships[j].append(i)
    moves = [None] * m  # per column while its rows are unchanged: (cost to each column, via row)
    pred_col = np.empty(m, dtype=np.int64)
    pred_row = np.empty(m, dtype=np.int64)
    for i in range(bulk, n):
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


def _distances(t, s) -> np.ndarray:
    """The (N, M) Euclidean distances of t's and s's points; DomainError unless all are finite."""
    d = np.sqrt(sq_distances(_points(t), _points(s)))
    if not np.isfinite(d).all():
        raise DomainError("point sets must give finite distances")
    return d


def _w1(d: np.ndarray) -> float:
    """Exact W1 between uniform empirical measures, from their (N, M) distances d.

    The optimal plan ships integer units (``_transport``): with g = gcd(n, m), each point of
    the larger set supplies m/g units, each point of the smaller set takes n/g, and
    W1 = sum x_ij d_ij / (n m / g). Memory is O(nm).
    """
    if d.shape[0] < d.shape[1]:
        d = np.ascontiguousarray(d.T)
    flow = _transport(d)
    return float((flow * d).sum() / flow.sum())


def _hausdorff(d: np.ndarray) -> float:
    """The larger of the two directed farthest-nearest distances, from the (N, M) distances d."""
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def wasserstein1(t, s) -> float:
    """Exact W1 between the uniform empirical measures on the point sets t and s."""
    return _w1(_distances(t, s))


def hausdorff_distance(t, s) -> float:
    """Euclidean Hausdorff distance between the point sets t and s."""
    return _hausdorff(_distances(t, s))


# complex entries of one row block of empirical_cf
_CF_BLOCK_ENTRIES = 1 << 12


def empirical_cf(x: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Empirical characteristic function values, one complex number per frequency: the bits of
    ``np.exp(1j * phase).mean(axis=0)`` over the (N, F) phases, without its (N, F) complex arrays.

    The phases are one GEMM. Down the rows of an (N, F) array with F > 1, numpy's sum adds the
    rows in order, so ``exp(1j * phase)`` is taken a block of rows at a time, each block's sum
    starts from the carried sum of the rows before it, and the mean divides the total as numpy
    does. Down a single column numpy's sum is pairwise, so one frequency takes its (N, 1) column
    whole, which is O(N)."""
    phase = _points(x) @ np.asarray(freqs, dtype=np.float64).T  # (N, F)
    n, f = phase.shape
    if f == 1:
        return np.exp(1j * phase).mean(axis=0)
    rows = max(1, _CF_BLOCK_ENTRIES // f)
    block = np.zeros((rows + 1, f), dtype=complex)  # row 0 carries the sum
    total = np.zeros(f, dtype=complex)
    for r0 in range(0, n, rows):
        terms = block[1:1 + min(rows, n - r0)]
        np.multiply(1j, phase[r0:r0 + rows], out=terms)
        np.exp(terms, out=terms)
        block[0] = total
        np.add.reduce(block[:1 + len(terms)], axis=0, out=total)
    return total / n


def characteristic_discrepancy(t, s, sample_count: int = CF_FREQUENCIES, seed: int = 0) -> float:
    """Sampled-sup gap between empirical characteristic functions.

    The frequencies are ``sample_count`` standard normal draws from ``seed``.
    The value is bounded by 2 since characteristic functions have unit modulus.
    """
    a = _points(t)
    b = _points(s)
    if sample_count < 1:
        raise DomainError("need at least one frequency")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"point dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    freqs = np.random.default_rng(seed).normal(size=(sample_count, a.shape[1]))
    return float(np.abs(empirical_cf(a, freqs) - empirical_cf(b, freqs)).max())


# ---------------------------------------------------------------------------
# generalization / value / parameter discrepancies over a finite batch
# ---------------------------------------------------------------------------


def generalization_discrepancy_finite(batch: ModelBatch, t, s):
    """(gd, vd, pd) for the finite hypothesis set under cross-entropy, first index winning ties.

    gd = |L(h*_S, T) - L(h*_T, T)|; vd is the sup output gap over T plus 256
    uniform sample points drawn from seed 0 (``hierarchy_report`` draws them from its
    seed); pd is the parameter-vector distance, defined because a batch is one architecture.
    """
    return _generalization(batch, t, *_mean_losses(batch, t, s)[:2], 0)


def _generalization(batch: ModelBatch, t, losses_t, losses_s, eval_seed: int):
    """(gd, vd, pd) from the ``_mean_losses`` lists, with vd's points drawn from ``eval_seed``."""
    i_t = int(np.argmin(losses_t))  # first index wins ties
    i_s = int(np.argmin(losses_s))
    h_t = batch.models[i_t]
    h_s = batch.models[i_s]
    gd = abs(losses_t[i_s] - losses_t[i_t])
    extra = np.random.default_rng(eval_seed).uniform(0.0, 1.0, size=(256, t.features.shape[1]))
    eval_points = np.vstack([t.features, extra])
    out_t, _ = h_t.forward_batch(eval_points)
    out_s, _ = h_s.forward_batch(eval_points)
    vd = float(np.abs(out_t - out_s).max())
    pd = float(np.linalg.norm(h_t.flat_params() - h_s.flat_params()))
    return gd, vd, pd


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


MODEL_FREE = ("mmd", "w1", "hausdorff", "cd")


def model_free(t, s, names, kernel: KernelSpec | None, freq_count: int, seed: int):
    """The model-free discrepancies ``names`` between (N, n) point sets t and s, as (values, params).

    mmd is the MMD under ``kernel``, or under the median-heuristic Gaussian kernel of t
    when it is None; cd takes ``freq_count`` frequencies drawn from ``seed``. Unknown or
    missing names raise ConfigError, and point sets of different dimension ShapeError,
    before anything is computed.
    """
    if not names or not set(names) <= set(MODEL_FREE):
        raise ConfigError(f"discrepancy names must be a nonempty selection of {MODEL_FREE}, got {tuple(names)}")
    if t.shape[1] != s.shape[1]:
        raise ShapeError(f"point dimensions differ: {t.shape[1]} vs {s.shape[1]}")
    values, params = {}, {}
    if "mmd" in names:
        kernel = kernel_or_default(kernel, t)
        params["kernel"] = kernel.describe()
        values["mmd"] = float(np.sqrt(max(mmd_squared(kernel, t, s), 0.0)))
    if "cd" in names:
        params.update(freq_count=freq_count, seed=seed)
        values["cd"] = characteristic_discrepancy(t, s, sample_count=freq_count, seed=seed)
    d = _distances(t, s) if {"w1", "hausdorff"} & set(names) else None  # one for both, after cd's arrays
    if "w1" in names:
        values["w1"] = _w1(d)
    if "hausdorff" in names:
        values["hausdorff"] = _hausdorff(d)
    return values, params


def hierarchy_report(t, s, batch: ModelBatch | None = None, seed: int = 0,
                     kernel: KernelSpec | None = None) -> DiscrepancyReport:
    """Compute every available discrepancy for (T, S) and record the bound checks.

    The model-free values are ``model_free`` with ``kernel`` (by default the median-heuristic
    kernel of T) and ``CF_FREQUENCIES`` frequencies drawn from ``seed``. With a batch, records
    the one bound check gd <= 2 dd in the finite-batch sense (dd over the same hypothesis set,
    cross-entropy criterion).
    """
    checks: list = []
    values, params = model_free(t.features, s.features, MODEL_FREE, kernel, CF_FREQUENCIES, seed)
    params = {"loss": "cross_entropy", **params}

    if batch is not None:
        values["dd_feature"], values["dd_moment"], values["dd_gradient"] = _model_gaps(batch, t, s, False)
        losses_t, losses_s, dd_loss = _mean_losses(batch, t, s)
        gd, vd, pd = _generalization(batch, t, losses_t, losses_s, seed)
        values.update(gd=gd, vd=vd, pd=pd)
        checks.append(("gd_le_2dd", gd, 2.0 * dd_loss, gd <= 2.0 * dd_loss + 1e-9))
        params["batch_size"] = len(batch)
        params["batch_provenance"] = "random_init"  # a constant of report.json's format
    return DiscrepancyReport(values=values, hierarchy_checks=checks, params=params)
