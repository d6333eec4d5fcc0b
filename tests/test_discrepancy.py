import itertools
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from dckit import (
    KernelSpec,
    LabeledDataset,
    Mlp,
    ModelBatch,
    SyntheticDataset,
    characteristic_discrepancy,
    generalization_discrepancy_finite,
    gradient_discrepancy,
    hausdorff_distance,
    hierarchy_report,
    ipm_feature_stat,
    loss_discrepancy,
    mmd_squared,
    moment_discrepancy,
    wasserstein1,
)
from dckit.discrepancy import _feature_gap, _feature_stats, _gradient_gap, _squared_norms
from dckit.errors import ArchitectureError, DomainError, LabelError, ShapeError
from tests.conftest import copy_as_synthetic, linear_mlp, transport_lp


def w1_bruteforce(a, b):
    d = cdist(np.atleast_2d(a.T).T if a.ndim == 1 else a, np.atleast_2d(b.T).T if b.ndim == 1 else b)
    n = d.shape[0]
    return min(sum(d[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))) / n


def batch_of(n, widths=(3, 8, 2), activation="tanh", base_seed=0):
    return ModelBatch(tuple(Mlp.init(widths, activation, seed=base_seed + i) for i in range(n)))


# --- feature / gradient / moment statistics -----------------------------------


def test_ipm_zero_on_identical(toy_pair):
    t, _ = toy_pair
    s = copy_as_synthetic(t)
    assert ipm_feature_stat(batch_of(3), t, s) == 0.0


def test_ipm_identity_feature_oracle():
    t = LabeledDataset(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([0, 0]), 1)
    s = SyntheticDataset(np.array([[1.0, 0.0]]), np.array([0]), per_class_size=1, origin="x")
    batch = ModelBatch((linear_mlp(np.eye(2)),))
    assert ipm_feature_stat(batch, t, s) == pytest.approx(1.0, abs=1e-15)


def test_ipm_is_max_over_models(toy_pair):
    t, s = toy_pair
    batch = batch_of(3)
    singles = [ipm_feature_stat(ModelBatch((m,)), t, s) for m in batch]
    assert ipm_feature_stat(batch, t, s) == pytest.approx(max(singles), rel=1e-12)


def test_ipm_class_mismatch(toy_pair):
    t, _ = toy_pair
    s1 = SyntheticDataset(np.zeros((1, 3)), np.array([0]), per_class_size=1, origin="x", class_count=1)
    with pytest.raises(LabelError):
        ipm_feature_stat(batch_of(1), t, s1)


def test_gradient_discrepancy_zero_and_modes(toy_pair):
    t, _ = toy_pair
    s = copy_as_synthetic(t)
    assert gradient_discrepancy(batch_of(2), t, s, "per_class") == 0.0
    assert gradient_discrepancy(batch_of(2), t, s, "contrastive") == 0.0


def test_gradient_discrepancy_single_class_modes_equal(rng):
    t = LabeledDataset(rng.uniform(size=(6, 3)), np.zeros(6, dtype=int), 1)
    s = SyntheticDataset(rng.uniform(size=(2, 3)), np.zeros(2, dtype=int), per_class_size=2, origin="x")
    batch = batch_of(2)
    a = gradient_discrepancy(batch, t, s, "per_class")
    b = gradient_discrepancy(batch, t, s, "contrastive")
    assert a == b


def test_gradient_discrepancy_per_sample_oracle(rng):
    # recompute class-mean gradients from per-sample backward calls
    t = LabeledDataset(rng.uniform(size=(6, 3)), np.array([0, 0, 0, 1, 1, 1]), 2)
    s = SyntheticDataset(rng.uniform(size=(2, 3)), np.array([0, 1]), per_class_size=1, origin="x")
    m = Mlp.init((3, 8, 2), "tanh", seed=5)
    total = 0.0
    for y in (0, 1):
        rows_t = t.features[t.labels == y]
        rows_s = s.features[s.labels == y]
        gt = np.mean([m.backward(r[None], np.array([y]), "cross_entropy")[1] for r in rows_t], axis=0)
        gs = np.mean([m.backward(r[None], np.array([y]), "cross_entropy")[1] for r in rows_s], axis=0)
        total += float(np.sum((gt - gs) ** 2))
    got = gradient_discrepancy(ModelBatch((m,)), t, s, "per_class")
    assert got == pytest.approx(total, rel=1e-10)


def test_moment_zero_and_variance_sensitivity():
    t = LabeledDataset(np.array([[0.0], [2.0]]), np.array([0, 0]), 1)
    s = SyntheticDataset(np.array([[1.0], [1.0]]), np.array([0, 0]), per_class_size=2, origin="x")
    batch = ModelBatch((linear_mlp(np.eye(1)),))
    # means match (1 vs 1) so the first-moment stat is 0 while variances differ by 1
    assert ipm_feature_stat(batch, t, s) == pytest.approx(0.0, abs=1e-15)
    assert moment_discrepancy(batch, t, s) == pytest.approx(1.0, abs=1e-12)


def test_moment_zero_on_identical(toy_pair):
    t, _ = toy_pair
    assert moment_discrepancy(batch_of(2), t, copy_as_synthetic(t)) == 0.0


def feature_gap_reference(method, feats_t, feats_s):
    """The dm / moment / sam gap of one class from its T and S feature lists, one class at a
    time: the reference for the stacked ``_feature_gap``."""
    n_feats = len(feats_s)
    upstream = [None] * n_feats
    b = feats_s[0].shape[0]
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
    value = 0.0
    for l in range(n_feats):
        diff = (feats_t[l] ** 2).mean(axis=0) - (feats_s[l] ** 2).mean(axis=0)
        value += float(diff @ diff)
        upstream[l] = -(4.0 / b) * diff * feats_s[l]
    return value, upstream


def gradient_gap_reference(contrastive, grads_t, grads_s):
    """The gm gap from per-class lists of class-mean gradients: the reference for the stacked
    ``_gradient_gap``."""
    if contrastive:
        diff = np.sum(grads_s, axis=0) - np.sum(grads_t, axis=0)
        return [float(diff @ diff)], [2.0 * diff] * len(grads_s)
    diffs = [g_s - g_t for g_t, g_s in zip(grads_t, grads_s)]
    return [float(d @ d) for d in diffs], [2.0 * d for d in diffs]


# 0, 1 and 2 hidden layers; the last has a penultimate feature of width 1
GAP_WIDTHS = [(3, 2), (3, 6, 2), (3, 5, 1, 2)]


def class_rows(rng, classes, m):
    """T's class batches (of different sizes) and S's (C, m, 3) class stack with its labels."""
    t_rows = [rng.uniform(size=(4 + c, 3)) for c in range(classes)]
    s_stack = rng.uniform(size=(classes, m, 3))
    s_labels = np.repeat(np.arange(classes) % 2, m).reshape(classes, m)
    return t_rows, s_stack, s_labels


@pytest.mark.parametrize("widths", GAP_WIDTHS, ids=["0-hidden", "1-hidden", "2-hidden"])
@pytest.mark.parametrize("method", ["dm", "moment", "sam"])
def test_stacked_feature_gap_matches_per_class_bits(method, widths, rng):
    model = Mlp.init(widths, "tanh", seed=3)
    for classes, m in itertools.product((1, 3), (1, 2, 9)):
        t_rows, s_stack, _ = class_rows(rng, classes, m)
        feats_t = [model.forward_batch(rows)[1] for rows in t_rows]
        feats_s = model.forward_batch(s_stack)[1]
        stats_t = [np.stack(stat) for stat in zip(*(_feature_stats(method, f) for f in feats_t))]
        values, upstream = _feature_gap(method, stats_t, feats_s)
        for c in range(classes):
            value, up = feature_gap_reference(method, feats_t[c], [f[c] for f in feats_s])
            assert values[c] == value
            assert [u is None for u in upstream] == [u is None for u in up]
            for got, want in zip(upstream, up):
                assert want is None or np.array_equal(got[c], want)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 2), (2, 10, 32), (3, 10, 64), (3, 10, 128), (3, 2, 784)])
def test_squared_norms_are_each_rows_dot(shape, rng):
    # the stacked gap's values, one matmul over an ensemble's (M, C, h) differences, keep the bits
    # that the dot of each row with itself gives
    for scale in np.geomspace(1e-3, 1e3, 20):
        d = scale * rng.normal(size=shape)
        got = _squared_norms(d)
        assert got.shape == shape[:-1]
        assert np.array_equal(got.reshape(-1), [float(row @ row) for row in d.reshape(-1, shape[-1])])


@pytest.mark.parametrize("widths", GAP_WIDTHS, ids=["0-hidden", "1-hidden", "2-hidden"])
@pytest.mark.parametrize("contrastive", [False, True], ids=["per_class", "contrastive"])
def test_stacked_gradient_gap_matches_per_class_bits(contrastive, widths, rng):
    model = Mlp.init(widths, "tanh", seed=3)
    for classes, m in itertools.product((1, 3), (1, 2, 9)):
        t_rows, s_stack, s_labels = class_rows(rng, classes, m)
        grads_t = [model.backward(rows, np.full(len(rows), c % 2), "cross_entropy")[1]
                   for c, rows in enumerate(t_rows)]
        g_s = model.backward(s_stack, s_labels, "cross_entropy")[1]
        want_values, want_up = gradient_gap_reference(contrastive, grads_t, list(g_s.copy()))
        values, upstream = _gradient_gap(contrastive, np.stack(grads_t), g_s)
        assert values == want_values
        assert upstream.shape == g_s.shape
        assert contrastive or upstream is g_s  # per class, the upstream is written over S's gradients
        assert all(np.array_equal(got, want) for got, want in zip(upstream, want_up))


@pytest.mark.parametrize("classes", [2, 4])
def test_report_sweeps_s_once_per_model(classes, rng, monkeypatch):
    # per model, one sweep per T class and one over S's whole class stack; the value is the
    # per-class formula's, bit for bit
    t = LabeledDataset(rng.uniform(size=(5 * classes + 3, 3)), np.r_[np.arange(classes).repeat(5), [0, 1, 1]], classes)
    s = SyntheticDataset(rng.uniform(size=(2 * classes, 3)), np.arange(classes).repeat(2), per_class_size=2,
                         origin="x", class_count=classes)
    batch = batch_of(2, widths=(3, 6, classes))
    calls = []
    forward, backward = Mlp.forward_batch, Mlp.backward
    monkeypatch.setattr(Mlp, "forward_batch", lambda self, x: calls.append(np.ndim(x)) or forward(self, x))
    monkeypatch.setattr(Mlp, "backward",
                        lambda self, x, y, loss, **kw: calls.append(np.ndim(x)) or backward(self, x, y, loss, **kw))
    sweeps = ([2] * classes + [3]) * len(batch)
    rows_t = [t.features[t.labels == y] for y in range(classes)]
    rows_s = [s.features[s.labels == y] for y in range(classes)]
    for fn, method in ((ipm_feature_stat, "dm"), (moment_discrepancy, "moment")):
        calls.clear()
        got = fn(batch, t, s)
        assert calls == sweeps
        want = max(sum(feature_gap_reference(method, forward(m, a)[1], forward(m, b)[1])[0]
                       for a, b in zip(rows_t, rows_s)) for m in batch)
        assert got == want
    for mode in ("per_class", "contrastive"):
        calls.clear()
        got = gradient_discrepancy(batch, t, s, mode)
        assert calls == sweeps
        grads = [[backward(m, rows, np.full(len(rows), y), "cross_entropy")[1] for y, rows in enumerate(part)]
                 for m in batch for part in (rows_t, rows_s)]
        want = max(sum(gradient_gap_reference(mode == "contrastive", g_t, g_s)[0])
                   for g_t, g_s in zip(grads[::2], grads[1::2]))
        assert got == want


@pytest.mark.parametrize("fn", [ipm_feature_stat, moment_discrepancy, gradient_discrepancy])
def test_report_rejects_unequal_s_classes(fn, toy_pair, rng):
    t, _ = toy_pair
    s = LabeledDataset(rng.uniform(size=(3, 3)), np.array([0, 0, 1]), 2)
    with pytest.raises(LabelError, match="equal in size"):
        fn(batch_of(1), t, s)


# --- W1 / Hausdorff / CD -------------------------------------------------------


def test_w1_identical():
    pts = np.array([[0.2, 0.4], [0.9, 0.1]])
    assert wasserstein1(pts, pts) == 0.0


def test_w1_dirac_pair():
    assert wasserstein1(np.array([0.0]), np.array([3.0])) == pytest.approx(3.0, abs=1e-12)


def test_w1_two_point_oracle():
    got = wasserstein1(np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_w1_matches_bruteforce(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(n, 2))
        assert wasserstein1(a, b) == pytest.approx(w1_bruteforce(a, b), abs=1e-9)


def test_w1_unequal_sizes_exact():
    # each of the two T atoms ships half its mass to the single S atom
    got = wasserstein1(np.array([0.0, 2.0]), np.array([1.0]))
    assert got == pytest.approx(1.0, abs=1e-9)


def test_w1_unequal_sizes_match_repeated_assignment(rng):
    # with |T| = k |S|, copying S k times gives equal uniform masses, so the
    # transport LP must equal an optimal assignment against the copies
    a = rng.uniform(size=(800, 2))
    b = rng.uniform(size=(20, 2))
    d = cdist(a, np.tile(b, (40, 1)))
    rows, cols = linear_sum_assignment(d)
    oracle = d[rows, cols].sum() / 800
    tracemalloc.start()
    try:
        got = wasserstein1(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(oracle, abs=1e-12)
    # a dense (n+m) x nm constraint matrix alone would be 105 MB here
    assert peak < 16e6


def _tied_grid(n, m, seed):
    # integer coordinates in {0, 1, 2}^2: duplicate rows on both sides and many tied costs
    r = np.random.default_rng(seed)
    return r.integers(0, 3, size=(n, 2)).astype(float), r.integers(0, 3, size=(m, 2)).astype(float)


@pytest.mark.parametrize("n,m,dim", [(61, 7, 3), (199, 20, 2), (7, 61, 3), (40, 40, 2), (40, 40, 32), (9, 1, 2),
                                     (1, 6, 2), (13, 5, 1), (120, 30, 16)],
                         ids=["g1", "g1-199x20", "n-lt-m", "n-eq-m", "n-eq-m-32d", "m1", "n1", "1d", "g30-16d"])
def test_w1_matches_transport_lp(n, m, dim, rng):
    a, b = rng.normal(size=(n, dim)), rng.normal(size=(m, dim)) + 0.5
    if dim == 1:
        a, b = a[:, 0], b[:, 0]
    oracle = transport_lp(a, b)
    assert abs(wasserstein1(a, b) - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("n,m,seed", [(20, 30, 0), (30, 20, 1), (25, 25, 2), (21, 8, 3)])
def test_w1_ties_and_duplicates_match_transport_lp(n, m, seed):
    a, b = _tied_grid(n, m, seed)
    oracle = transport_lp(a, b)
    assert abs(wasserstein1(a, b) - oracle) <= 1e-12 * oracle
    assert wasserstein1(np.vstack([a, a]), a) == 0.0


def test_w1_rejects_non_finite_points():
    with pytest.raises(DomainError):
        wasserstein1(np.array([[0.0], [np.inf]]), np.array([[1.0]]))


def test_w1_metric_axioms(rng):
    for _ in range(20):
        a = rng.normal(size=(int(rng.integers(1, 5)), 2))
        b = rng.normal(size=(int(rng.integers(1, 5)), 2))
        c = rng.normal(size=(int(rng.integers(1, 5)), 2))
        dab, dba = wasserstein1(a, b), wasserstein1(b, a)
        assert dab == pytest.approx(dba, abs=1e-9)
        assert wasserstein1(a, c) <= dab + wasserstein1(b, c) + 1e-9


def test_w1_identity_of_indiscernibles(rng):
    a = rng.normal(size=(4, 2))
    assert wasserstein1(a, np.random.default_rng(0).permutation(a)) == pytest.approx(0.0, abs=1e-12)
    b = a.copy()
    b[0] += 0.5
    assert wasserstein1(a, b) > 1e-3


def test_w1_empty_rejected():
    with pytest.raises(DomainError):
        wasserstein1(np.zeros((0, 1)), np.array([1.0]))


def test_hausdorff_fixture():
    assert hausdorff_distance(np.array([0.0, 4.0, 10.0]), np.array([4.0])) == 6.0


def test_hausdorff_symmetry(rng):
    for _ in range(10):
        a = rng.normal(size=(int(rng.integers(1, 6)), 3))
        b = rng.normal(size=(int(rng.integers(1, 6)), 3))
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


def test_hausdorff_zero_iff_equal_sets(rng):
    a = rng.normal(size=(5, 2))
    assert hausdorff_distance(a, a[::-1]) == 0.0
    b = a.copy()
    b[2] += 1.0
    assert hausdorff_distance(a, b) > 0.0


def test_cd_identical_sets(rng):
    a = rng.uniform(size=(6, 2))
    assert characteristic_discrepancy(a, a.copy(), sample_count=32, seed=1) == 0.0


def test_cd_dirac_oracle():
    got = characteristic_discrepancy(np.array([0.0]), np.array([np.pi]), freqs=np.array([[1.0]]))
    assert got == pytest.approx(2.0, abs=1e-12)


def test_cd_bounded_by_two(rng):
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(4, 3))
    assert characteristic_discrepancy(a, b, sample_count=64, seed=0) <= 2.0


def test_cd_pseudometric_on_fixed_freqs(rng):
    freqs = rng.normal(size=(16, 2))
    a = rng.uniform(size=(5, 2))
    b = rng.uniform(size=(4, 2))
    c = rng.uniform(size=(3, 2))
    dab = characteristic_discrepancy(a, b, freqs=freqs)
    assert dab == pytest.approx(characteristic_discrepancy(b, a, freqs=freqs), abs=1e-12)
    dac = characteristic_discrepancy(a, c, freqs=freqs)
    dbc = characteristic_discrepancy(b, c, freqs=freqs)
    assert dac <= dab + dbc + 1e-12


def test_cd_requires_frequencies(rng):
    with pytest.raises(DomainError):
        characteristic_discrepancy(np.array([0.0]), np.array([1.0]), sample_count=0)


@pytest.mark.parametrize("distance, widths", [
    (wasserstein1, (2, 3)),
    (hausdorff_distance, (2, 3)),
    (partial(mmd_squared, KernelSpec("gamma_exponential")), (2, 3)),
    (characteristic_discrepancy, (2, 3)),
    (partial(characteristic_discrepancy, freqs=np.ones((4, 3))), (2, 2)),
    (partial(characteristic_discrepancy, freqs=np.ones((4, 2))), (3, 3)),
], ids=["w1", "hausdorff", "mmd", "cd", "cd-wide-freqs", "cd-narrow-freqs"])
def test_point_set_distances_reject_mismatched_widths(distance, widths, rng):
    # point sets of different widths, or frequencies of another width than the points'
    with pytest.raises(ShapeError):
        distance(rng.uniform(size=(5, widths[0])), rng.uniform(size=(4, widths[1])))


# --- GD / VD / PD ---------------------------------------------------------------


def test_gd_zero_on_identical(toy_pair):
    t, _ = toy_pair
    s = copy_as_synthetic(t)
    gd, vd, pd = generalization_discrepancy_finite(batch_of(4), t, s)
    assert gd == 0.0 and vd == 0.0 and pd == 0.0


def test_gd_single_hypothesis(toy_pair):
    t, s = toy_pair
    gd, _, _ = generalization_discrepancy_finite(batch_of(1), t, s)
    assert gd == 0.0


def test_gd_bounded_by_twice_loss_discrepancy(rng):
    for trial in range(10):
        t = LabeledDataset(rng.uniform(size=(8, 3)), rng.integers(0, 2, 8), 2)
        s = SyntheticDataset(rng.uniform(size=(4, 3)), np.array([0, 0, 1, 1]), per_class_size=2, origin="x")
        batch = batch_of(8, base_seed=trial * 100)
        gd, _, _ = generalization_discrepancy_finite(batch, t, s)
        assert gd <= 2.0 * loss_discrepancy(batch, t, s) + 1e-9


def test_gd_takes_each_loss_once(toy_pair, monkeypatch):
    # gd reuses the T losses of the argmin pass: one mean_loss per model and side, same value;
    # the report takes gd and the dd of its gd <= 2 dd check from the same losses
    t, s = toy_pair
    batch = batch_of(4)
    mean_loss = Mlp.mean_loss
    losses_t = [mean_loss(m, t.features, t.labels, "cross_entropy") for m in batch]
    losses_s = [mean_loss(m, s.features, s.labels, "cross_entropy") for m in batch]
    dd = max(abs(lt - ls) for lt, ls in zip(losses_t, losses_s))
    calls = []
    monkeypatch.setattr(Mlp, "mean_loss", lambda self, x, y, loss: calls.append(1) or mean_loss(self, x, y, loss))
    gd, _, _ = generalization_discrepancy_finite(batch, t, s)
    assert len(calls) == 2 * len(batch)
    assert gd == abs(losses_t[int(np.argmin(losses_s))] - losses_t[int(np.argmin(losses_t))])
    calls.clear()
    rep = hierarchy_report(t, s, batch)
    assert len(calls) == 2 * len(batch)
    assert rep.values["gd"] == gd and rep.hierarchy_checks == [("gd_le_2dd", gd, 2.0 * dd, gd <= 2.0 * dd + 1e-9)]


def test_model_batch_holds_mlps():
    with pytest.raises(ArchitectureError, match="Mlp"):
        ModelBatch((Mlp.init((3, 4, 2)), object()))


@pytest.mark.parametrize("classes", [2, 4])
def test_report_forwards_each_class_once_per_model_for_dm_and_moment(classes, rng, monkeypatch):
    t = LabeledDataset(rng.uniform(size=(5 * classes + 3, 3)), np.r_[np.arange(classes).repeat(5), [0, 1, 1]], classes)
    s = SyntheticDataset(rng.uniform(size=(2 * classes, 3)), np.arange(classes).repeat(2), per_class_size=2,
                         origin="x", class_count=classes)
    batch = batch_of(3, widths=(3, 6, classes))
    calls = []
    forward = Mlp.forward_batch
    monkeypatch.setattr(Mlp, "forward_batch", lambda self, x: calls.append(1) or forward(self, x))
    rep = hierarchy_report(t, s, batch)
    # dd_feature and dd_moment together: per model one forward per T class and one of S's class
    # stack; the rest are each model's mean loss on T and on S, and vd's two models
    assert len(calls) == len(batch) * (classes + 1) + 2 * len(batch) + 2
    monkeypatch.undo()
    assert rep.values["dd_feature"] == ipm_feature_stat(batch, t, s)
    assert rep.values["dd_moment"] == moment_discrepancy(batch, t, s)


def test_pd_architecture_error(toy_pair):
    t, s = toy_pair
    batch = ModelBatch((Mlp.init((3, 8, 2), "tanh", seed=0), Mlp.init((3, 4, 2), "tanh", seed=1)))
    with pytest.raises(ArchitectureError):
        generalization_discrepancy_finite(batch, t, s)


# --- hierarchy report -------------------------------------------------------------


def test_hierarchy_identical_all_zero(toy_pair):
    t, _ = toy_pair
    s = copy_as_synthetic(t)
    rep = hierarchy_report(t, s, batch_of(4))
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in rep.values.values())
    assert [(name, ok) for (name, _, _, ok) in rep.hierarchy_checks] == [("gd_le_2dd", True)]


def test_hierarchy_checks_random_sweep(rng):
    for trial in range(20):
        t = LabeledDataset(rng.uniform(size=(10, 2)), rng.integers(0, 2, 10), 2)
        s = SyntheticDataset(rng.uniform(size=(4, 2)), np.array([0, 0, 1, 1]), per_class_size=2, origin="x")
        rep = hierarchy_report(t, s, batch_of(6, widths=(2, 6, 2), base_seed=trial))
        assert all(ok for (_, _, _, ok) in rep.hierarchy_checks)
