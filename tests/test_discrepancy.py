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
from dckit import discrepancy
from dckit.discrepancy import (
    CF_FREQUENCIES,
    _CF_BLOCK_ENTRIES,
    _feature_gap,
    _feature_stats,
    _gradient_gap,
    _model_gaps,
    _squared_norms,
    _transport,
    empirical_cf,
)
from dckit.errors import ArchitectureError, DomainError, LabelError, ShapeError, ValidationError
from tests.conftest import copy_as_synthetic, linear_mlp, transport_lp, transport_reference


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
        values, diffs = _gradient_gap(contrastive, np.stack(grads_t), g_s)
        assert values == want_values
        assert diffs.shape == g_s.shape
        assert contrastive or diffs is g_s  # per class, the differences are written over S's gradients
        # the upstream is twice the differences, doubled by the caller
        assert all(np.array_equal(2.0 * got, want) for got, want in zip(diffs, want_up))


def class_pair(rng, classes):
    """A T with classes of 5 or 6 rows and an S with 2 rows per class, both in 3 dimensions."""
    t = LabeledDataset(rng.uniform(size=(5 * classes + 3, 3)), np.r_[np.arange(classes).repeat(5), [0, 1, 1]], classes)
    s = SyntheticDataset(rng.uniform(size=(2 * classes, 3)), np.arange(classes).repeat(2), per_class_size=2,
                         origin="x", class_count=classes)
    return t, s


def model_gaps_reference(batch, t, s, contrastive):
    """[dd_feature, dd_moment, dd_gradient] one model and one class at a time: dm's and moment's
    statistics from ``forward_batch`` and gm's class-mean gradients from ``backward``, on T's and
    S's rows of each class. The reference for ``_model_gaps``."""
    rows_t = [t.features[t.labels == y] for y in range(t.class_count)]
    rows_s = [s.features[s.labels == y] for y in range(s.class_count)]
    best = [0.0] * 3
    for m in batch:
        gaps = [sum(feature_gap_reference(method, m.forward_batch(a)[1], m.forward_batch(b)[1])[0]
                    for a, b in zip(rows_t, rows_s)) for method in ("dm", "moment")]
        g_t, g_s = ([m.backward(rows, np.full(len(rows), y), "cross_entropy")[1] for y, rows in enumerate(part)]
                    for part in (rows_t, rows_s))
        gaps.append(sum(gradient_gap_reference(contrastive, g_t, g_s)[0]))
        best = [max(b, gap) for b, gap in zip(best, gaps)]
    return best


@pytest.mark.parametrize("classes", [2, 4])
def test_report_sweeps_s_once_per_model(classes, rng, monkeypatch):
    # per model, one forward sweep per T class and one over S's whole class stack serve each of
    # the three gaps; the value is the per-class formula's, bit for bit
    t, s = class_pair(rng, classes)
    fns = [ipm_feature_stat, moment_discrepancy, gradient_discrepancy, partial(gradient_discrepancy, mode="contrastive")]
    forward = Mlp._forward
    for activation, hidden in itertools.product(("relu", "tanh"), ((6,), (5, 4))):
        batch = batch_of(2, widths=(3, *hidden, classes), activation=activation)
        calls, got = [], []
        monkeypatch.setattr(Mlp, "_forward", lambda self, x: calls.append(np.ndim(x)) or forward(self, x))
        for fn in fns:
            calls.clear()
            got.append(fn(batch, t, s))
            assert calls == ([2] * classes + [3]) * len(batch)
        monkeypatch.undo()
        assert got == [*model_gaps_reference(batch, t, s, False), model_gaps_reference(batch, t, s, True)[2]]


@pytest.mark.parametrize("fn", [ipm_feature_stat, moment_discrepancy, gradient_discrepancy])
def test_model_gaps_reject_labels_beyond_the_output_width(fn, rng):
    # the feature gaps come from the sweeps that give gm's cross-entropy gradients, so all three
    # take the nets as classifiers of the labels
    t, s = class_pair(rng, 3)
    with pytest.raises(ValidationError, match="labels must lie in"):
        fn(batch_of(2, widths=(3, 5, 2)), t, s)


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


def _transport_cases(seed):
    # (n, m) costs with n >= m, as wasserstein1 hands them over
    r = np.random.default_rng(seed)
    a, b = r.normal(size=(200, 3)), r.normal(size=(20, 3)) + 0.3
    yield "random", cdist(a, b)
    yield "random-g10", cdist(a[:150], b)  # supply 2, capacity 15
    lat_a, lat_b = r.integers(0, 3, size=(90, 2)).astype(float), r.integers(0, 3, size=(12, 2)).astype(float)
    yield "lattice", cdist(lat_a, lat_b)  # many tied costs and tied argmins
    dup = np.repeat(r.normal(size=(10, 2)), 6, axis=0)
    yield "duplicates", cdist(dup, dup[::6])
    yield "equal-columns", cdist(dup, dup[:3])  # three equal columns: every row's costs tie
    yield "supply-gt-1", cdist(r.normal(size=(6, 2)), r.normal(size=(4, 2)))  # g = 2: supply 2, capacity 3
    yield "square", cdist(a[:30], a[30:60])
    yield "one-column", cdist(a[:9], b[:1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transport_vectorized_start_equals_the_row_loop(seed):
    for name, d in _transport_cases(seed):
        want = transport_reference(d)
        assert np.array_equal(_transport(d), want), name
        assert (want.sum(axis=1) == want.sum(axis=1)[0]).all() and (want.sum(axis=0) == want.sum(axis=0)[0]).all()


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


def test_hausdorff_rejects_non_finite_points():
    with pytest.raises(DomainError):
        hausdorff_distance(np.array([[0.0], [np.inf]]), np.array([[1.0]]))


def test_model_free_w1_and_hausdorff_share_one_distance_matrix(rng, monkeypatch):
    t, s = rng.normal(size=(12, 3)), rng.normal(size=(5, 3))
    want = {"w1": wasserstein1(t, s), "hausdorff": hausdorff_distance(t, s)}
    calls = []
    sq_distances = discrepancy.sq_distances
    monkeypatch.setattr(discrepancy, "sq_distances", lambda *a: calls.append(1) or sq_distances(*a))
    values, _ = discrepancy.model_free(t, s, ("w1", "hausdorff"), None, CF_FREQUENCIES, 0)
    assert len(calls) == 1
    assert values == want  # the standalone functions' bits


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


def _cf_gap(a, b, freqs):
    # characteristic_discrepancy's value at the frequencies freqs
    return float(np.abs(empirical_cf(a, freqs) - empirical_cf(b, freqs)).max())


def test_cd_dirac_oracle():
    got = _cf_gap(np.array([[0.0]]), np.array([[np.pi]]), np.array([[1.0]]))
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
    dab = _cf_gap(a, b, freqs)
    assert dab == pytest.approx(_cf_gap(b, a, freqs), abs=1e-12)
    dac = _cf_gap(a, c, freqs)
    dbc = _cf_gap(b, c, freqs)
    assert dac <= dab + dbc + 1e-12


@pytest.mark.parametrize("freq_count", [1, 2, CF_FREQUENCIES])
@pytest.mark.parametrize("extra_rows", [-1, 0, 1, 7])
def test_empirical_cf_matches_the_full_matrix_bits(freq_count, extra_rows, rng):
    # N at and around a multiple of the row block, so the last block is full, short or one row
    block = max(1, _CF_BLOCK_ENTRIES // freq_count)
    n = 3 * block + extra_rows if freq_count > 1 else 1001 + extra_rows
    for width in (1, 2, 64):
        x, freqs = rng.normal(size=(n, width)), rng.normal(size=(freq_count, width))
        want = np.exp(1j * (x @ freqs.T)).mean(axis=0)
        assert empirical_cf(x, freqs).tobytes() == want.tobytes()


def test_cd_requires_frequencies(rng):
    with pytest.raises(DomainError):
        characteristic_discrepancy(np.array([0.0]), np.array([1.0]), sample_count=0)


@pytest.mark.parametrize("distance", [
    wasserstein1, hausdorff_distance, partial(mmd_squared, KernelSpec("gamma_exponential")), characteristic_discrepancy,
], ids=["w1", "hausdorff", "mmd", "cd"])
def test_point_set_distances_reject_mismatched_widths(distance, rng):
    with pytest.raises(ShapeError):
        distance(rng.uniform(size=(5, 2)), rng.uniform(size=(4, 3)))


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
    t, s = class_pair(rng, classes)
    batch = batch_of(3, widths=(3, 6, classes))
    calls, backward_calls = [], []
    forward, backward = Mlp._forward, Mlp.backward
    monkeypatch.setattr(Mlp, "_forward", lambda self, x: calls.append(1) or forward(self, x))
    monkeypatch.setattr(Mlp, "backward", lambda self, *a, **kw: backward_calls.append(1) or backward(self, *a, **kw))
    rep = hierarchy_report(t, s, batch)
    # dd_feature, dd_moment and dd_gradient together: per model one ``backward`` per T class and
    # one of S's class stack, each one forward sweep feeding gm's reverse sweep; the rest are each
    # model's mean loss on T and on S, and vd's two models
    assert len(backward_calls) == len(batch) * (classes + 1)
    assert len(calls) == len(batch) * (classes + 1) + 2 * len(batch) + 2
    monkeypatch.undo()
    gaps = [rep.values[name] for name in ("dd_feature", "dd_moment", "dd_gradient")]
    assert gaps == [ipm_feature_stat(batch, t, s), moment_discrepancy(batch, t, s), gradient_discrepancy(batch, t, s)]


def test_pd_architecture_error():
    # pd compares parameter vectors, so a batch is one architecture, checked when it is built. On
    # this T and S both loss argmins land on the 3-8-2 net, where a check made only when pd compares
    # two widths lets a whole report through
    nets = (Mlp.init((3, 8, 2), "tanh", seed=0), Mlp.init((3, 4, 2), "tanh", seed=1))
    rng = np.random.default_rng(0)
    t = LabeledDataset(rng.uniform(size=(30, 3)), np.arange(30) % 2, 2)
    s = SyntheticDataset(rng.uniform(size=(4, 3)), np.array([0, 0, 1, 1]), per_class_size=2, origin="x")
    losses = [[m.mean_loss(d.features, d.labels) for m in nets] for d in (t, s)]
    assert int(np.argmin(losses[0])) == int(np.argmin(losses[1])) == 0
    with pytest.raises(ArchitectureError, match="one architecture"):
        ModelBatch(nets)


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


def test_hierarchy_report_memory_is_linear_in_t(rng):
    # 4000 T rows: the parent's median buffer and its positive copy peaked at 129.7 MiB, and its
    # mmd held a T x T Gram. cd keeps its one (N, 128) phase GEMM, 128 N floats, for its bits;
    # the other discrepancies stay within 32 N floats beside it
    n = 4000
    x = np.vstack([rng.normal(size=(n // 2, 2)), rng.normal(size=(n // 2, 2)) + [6.0, 0.0]])
    t = LabeledDataset((x - x.min(axis=0)) / np.ptp(x, axis=0), np.repeat([0, 1], n // 2), 2)
    s = copy_as_synthetic(LabeledDataset(t.features[::400], t.labels[::400], 2))
    batch = ModelBatch(tuple(Mlp.init((2, 32, 2), "relu", seed=i) for i in range(4)))
    tracemalloc.start()
    try:
        hierarchy_report(t, s, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (CF_FREQUENCIES + 32) * 8 * n
