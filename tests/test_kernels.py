import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from dckit import (
    KernelSpec,
    LabeledDataset,
    MethodConfig,
    Mlp,
    SyntheticDataset,
    gaussian_spec,
    gram_matrix,
    gram_mean,
    identity_autoencoder,
    kernel_eval,
    median_heuristic,
    median_heuristic_spec,
    mmd_squared,
    pullback_spec,
    random_feature_map,
)
import dckit.kernels
from dckit.errors import ConfigError, DomainError, ShapeError
from dckit.kernels import gram_and_vjp, kernel_grad2, mmd_squared_and_grad_s, sq_distances
from tests.conftest import central_diff, linear_mlp, matching_value_and_grad, rff_input_jacobian, rff_vjp_reference


def mmd_double_sum_oracle(spec, t, s):
    """Explicit loop V-statistic, the independent oracle for mmd_squared."""
    t = np.atleast_2d(t)
    s = np.atleast_2d(s)
    a = sum(kernel_eval(spec, x1, x2) for x1 in t for x2 in t) / len(t) ** 2
    b = sum(kernel_eval(spec, x1, x2) for x1 in t for x2 in s) / (len(t) * len(s))
    c = sum(kernel_eval(spec, x1, x2) for x1 in s for x2 in s) / len(s) ** 2
    return a - 2 * b + c


def test_gamma_exponential_zero_distance():
    spec = gaussian_spec(1.0)
    x = np.array([0.3, 0.7])
    assert kernel_eval(spec, x, x) == 1.0


def test_gamma_exponential_unit_distance():
    spec = gaussian_spec(1.0)
    got = kernel_eval(spec, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert got == pytest.approx(np.exp(-1.0), abs=1e-15)  # 0.367879...


def test_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec("gamma_exponential", gamma=2.5)
    with pytest.raises(ConfigError):
        KernelSpec("gamma_exponential", scale=0.0)
    with pytest.raises(ConfigError):
        KernelSpec("random_feature", feature_dim=0)
    with pytest.raises(ConfigError):
        KernelSpec("empirical_ntk")
    net = Mlp.init([2, 1], seed=0)
    for family in ("empirical_ntk", "nfk"):  # an Mlp or a non-empty tuple or list of them
        for model in (object(), (), [], (net, "net")):
            with pytest.raises(ConfigError, match="Mlp"):
                KernelSpec(family, model=model)
        assert [KernelSpec(family, model=m).family for m in (net, (net,), [net, net])] == [family] * 3
    base = gaussian_spec(1.0)
    with pytest.raises(ConfigError):
        KernelSpec("pullback", base=base)  # encoder missing


def test_ntk_of_linear_model_is_dot_product(rng):
    # the logit x.w + b has parameter gradient (x, 1), so the kernel is x1.x2 + 1
    spec = KernelSpec("empirical_ntk", model=linear_mlp(np.ones((3, 1))))
    x1, x2 = rng.normal(size=3), rng.normal(size=3)
    assert kernel_eval(spec, x1, x2) == pytest.approx(float(x1 @ x2) + 1.0, rel=1e-12)


def test_gram_single_point():
    spec = gaussian_spec(2.0)
    g = gram_matrix(spec, np.array([[0.5]]), np.array([[0.5]]))
    assert g.shape == (1, 1) and g[0, 0] == 1.0


@pytest.mark.parametrize("family", ["gamma_exponential", "random_feature", "empirical_ntk", "nfk", "pullback"])
def test_gram_symmetry_and_psd(family, rng):
    pts = rng.uniform(0, 1, (14, 3))
    if family == "gamma_exponential":
        spec = KernelSpec(family, gamma=1.3, scale=0.8)
    elif family == "random_feature":
        spec = KernelSpec(family, scale=0.5, feature_dim=64, seed=4)
    elif family == "pullback":
        spec = pullback_spec(gaussian_spec(1.0), identity_autoencoder(3))
    else:
        model = Mlp.init([3, 8, 2], "tanh", seed=2)
        spec = KernelSpec(family, model=model)
    g = gram_matrix(spec, pts, pts)
    assert np.max(np.abs(g - g.T)) <= 1e-12
    assert np.linalg.eigvalsh(g).min() >= -1e-8


def test_random_features_deterministic(rng):
    spec = KernelSpec("random_feature", scale=0.5, feature_dim=32, seed=7)
    x = rng.uniform(size=5)
    assert np.array_equal(random_feature_map(spec, x), random_feature_map(spec, x))


def test_random_feature_norm_converges():
    spec = KernelSpec("random_feature", scale=0.5, feature_dim=4096, seed=0)
    phi = random_feature_map(spec, np.array([0.2, 0.8, 0.1]))
    assert abs(phi @ phi - 1.0) < 0.05


def test_random_feature_cross_converges_to_gaussian():
    c = 0.5
    spec = KernelSpec("random_feature", scale=c, feature_dim=8192, seed=1)
    x1 = np.zeros(4)
    x2 = np.array([1.0, 0.0, 0.0, 0.0])
    got = random_feature_map(spec, x1) @ random_feature_map(spec, x2)
    assert abs(got - np.exp(-c)) < 0.05


def test_mmd_identical_multisets():
    spec = gaussian_spec(1.0)
    t = np.array([[0.1], [0.6], [0.6]])
    assert mmd_squared(spec, t, t) <= 1e-12


def test_mmd_dirac_oracle():
    spec = gaussian_spec(1.0)
    got = mmd_squared(spec, np.array([[0.0]]), np.array([[1.0]]))
    assert got == pytest.approx(2.0 - 2.0 * np.exp(-1.0), abs=1e-12)  # 1.264241...


def test_mmd_two_vs_one_oracle():
    spec = gaussian_spec(1.0)
    got = mmd_squared(spec, np.array([[0.0], [2.0]]), np.array([[1.0]]))
    expected = 0.5 + 0.5 * np.exp(-4.0) - 2.0 * np.exp(-1.0) + 1.0  # 0.773399...
    assert got == pytest.approx(expected, abs=1e-12)


def test_mmd_matches_double_sum_oracle(rng):
    spec = KernelSpec("gamma_exponential", gamma=1.5, scale=0.7)
    for _ in range(10):
        t = rng.uniform(0, 1, (rng.integers(1, 7), 2))
        s = rng.uniform(0, 1, (rng.integers(1, 7), 2))
        assert mmd_squared(spec, t, s) == pytest.approx(mmd_double_sum_oracle(spec, t, s), abs=1e-10)


def test_mmd_embedding_identity(rng):
    spec = KernelSpec("random_feature", scale=0.8, feature_dim=128, seed=3)
    t = rng.uniform(0, 1, (8, 4))
    s = rng.uniform(0, 1, (3, 4))
    emb = random_feature_map(spec, t).mean(axis=0) - random_feature_map(spec, s).mean(axis=0)
    assert mmd_squared(spec, t, s) == pytest.approx(float(emb @ emb), abs=1e-10)


def test_characteristic_separation(rng):
    spec = gaussian_spec(1.0)
    t = rng.uniform(0, 1, (5, 2))
    s = t.copy()
    s[0] += 0.25
    assert mmd_squared(spec, t, s) > 0.0


def test_mmd_empty_set_rejected():
    with pytest.raises(DomainError):
        mmd_squared(gaussian_spec(1.0), np.zeros((0, 2)), np.zeros((1, 2)))


def test_pullback_identity_matches_base(rng):
    base = gaussian_spec(0.9)
    spec = pullback_spec(base, identity_autoencoder(3))
    x1, x2 = rng.uniform(size=3), rng.uniform(size=3)
    assert kernel_eval(spec, x1, x2) == kernel_eval(base, x1, x2)


def test_median_heuristic():
    pts = np.array([[0.0], [1.0], [3.0]])  # pairwise distances 1, 2, 3
    assert median_heuristic(pts) == 2.0
    spec = median_heuristic_spec(pts)
    assert spec.scale == pytest.approx(1.0 / 8.0)


@pytest.mark.parametrize("gamma", [2.0, 1.5, 1.0, 0.3])
def test_gaussian_gram_matches_the_formula_bits(gamma, rng):
    spec = KernelSpec("gamma_exponential", gamma=gamma, scale=0.37)
    a, b = rng.uniform(size=(40, 9)), rng.uniform(size=(31, 9))
    want = np.exp(-spec.scale * np.sqrt(cdist(a, b, "sqeuclidean")) ** spec.gamma)
    assert np.array_equal(gram_matrix(spec, a, b), want)


def test_gaussian_gram_peak_memory_is_one_matrix(rng):
    x = rng.uniform(size=(2000, 2))
    tracemalloc.start()
    try:
        gram_matrix(gaussian_spec(1.0), x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2000**2 * 8  # the sqrt, power and exp each in a new N x N array would be 3x


def _mmd_grad_reference(spec, t, s):
    """The S gradient of MMD^2 from the summed (A, B, n) tensors of ``kernel_grad2``."""
    return (kernel_grad2(spec, s, s).sum(axis=0) * (2.0 / len(s) ** 2)
            - kernel_grad2(spec, t, s).sum(axis=0) * (2.0 / (len(t) * len(s))))


@pytest.mark.parametrize("gamma", [2.0, 1.5, 1.0, 0.3])
@pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 32])
def test_gaussian_contractions_match_kernel_grad2(gamma, dim, rng):
    # below 8 features the Gram's feature-order r is np.sum's r, so the VJP's row-order sums
    # have the reference's bits; from 8 on np.sum adds kernel_grad2's squares pairwise and the
    # two differ by about 1 ulp. The mmd gradient adds T's 40 rows pairwise, so it is within
    # rounding of the reference's row-order sums at every dimension.
    spec = KernelSpec("gamma_exponential", gamma=gamma, scale=0.37)
    t, s = rng.uniform(size=(40, dim)), rng.uniform(size=(6, dim))
    t[3] = s[1]  # an S row on a T row, where the gradient's r^(gamma - 2) is not taken
    coef = rng.normal(size=(40, 6))
    want_vjp = np.einsum("ab,abn->bn", coef, kernel_grad2(spec, t, s))
    want_mmd = _mmd_grad_reference(spec, t, s)
    got_vjp = gram_and_vjp(spec, t, s)[1](coef)
    value, got_mmd = mmd_squared_and_grad_s(spec, t, s, gram_matrix(spec, t, t).mean())
    assert value == mmd_squared(spec, t, s)
    if dim < 8:
        assert np.array_equal(got_vjp, want_vjp)
    else:
        assert np.max(np.abs(got_vjp - want_vjp)) <= 1e-13 * np.max(np.abs(want_vjp))
    assert np.max(np.abs(got_mmd - want_mmd)) <= 1e-13 * np.max(np.abs(want_mmd))


@pytest.mark.parametrize("dim", [2, 20])  # per-feature and expanded distances
def test_stacked_mmd_classes_equal_their_own_calls(dim, rng):
    # 5 classes of 1100 T rows, two blocks of rows each, and of 9 or 4 S rows: a class has its own
    # call's bits whatever its stack, and its value has mmd_squared's
    spec = KernelSpec("gamma_exponential", gamma=1.5, scale=0.37)
    for n_t, n_s in ((1100, 4), (9, 9)):
        t, s = rng.uniform(size=(5, n_t, dim)), rng.uniform(size=(5, n_s, dim))
        t[1, 3] = s[1, 0]
        ktt = np.array([gram_mean(spec, t_c, t_c) for t_c in t])
        values, grads = mmd_squared_and_grad_s(spec, t, s, ktt)
        assert values.shape == (5,) and grads.shape == s.shape
        for c in range(5):
            value, grad = mmd_squared_and_grad_s(spec, t[c], s[c], ktt[c])
            assert values[c] == value == mmd_squared(spec, t[c], s[c])
            assert np.array_equal(grads[c], grad)
            assert np.array_equal(mmd_squared_and_grad_s(spec, t[c:c + 2], s[c:c + 2], ktt[c:c + 2])[1][0], grad)
            want = _mmd_grad_reference(spec, t[c], s[c])
            assert np.max(np.abs(grad - want)) <= 1e-13 * np.max(np.abs(want))


def test_stacked_mmd_rejects_mismatched_stacks(rng):
    spec = gaussian_spec(1.0)
    for t, s in (((2, 5, 3), (3, 2, 3)), ((2, 5, 3), (2, 2, 4)), ((2, 0, 3), (2, 2, 3))):
        with pytest.raises((ShapeError, DomainError)):
            mmd_squared_and_grad_s(spec, np.zeros(t), np.zeros(s), np.zeros(t[0]))


@pytest.mark.parametrize("gamma", [2.0, 1.0])
def test_gaussian_vjp_adds_a_single_column_in_row_order(gamma, rng):
    # sum(axis=0) adds an (A, 1) column pairwise; the contraction keeps row order for every B
    spec = KernelSpec("gamma_exponential", gamma=gamma, scale=0.37)
    a, b, coef = rng.normal(size=(400, 2)), rng.normal(size=(1, 2)), rng.normal(size=(400, 1))
    terms = coef[:, :, None] * kernel_grad2(spec, a, b)
    want = terms[0].copy()
    for row in terms[1:]:
        want += row
    assert np.array_equal(gram_and_vjp(spec, a, b)[1](coef), want)


@pytest.mark.parametrize("gamma", [2.0, 1.5, 1.0, 0.3])
def test_gaussian_gradients_finite_where_rows_coincide(gamma, rng):
    spec = KernelSpec("gamma_exponential", gamma=gamma, scale=0.37)
    t, s = rng.uniform(size=(12, 3)), rng.uniform(size=(4, 3))
    t[5] = s[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, grad = mmd_squared_and_grad_s(spec, t, s, gram_matrix(spec, t, t).mean())  # (S, S) diagonal too
        vjp = gram_and_vjp(spec, t, s)[1](np.ones((12, 4)))
        alone = gram_and_vjp(spec, t[5:6], s)[1](np.ones((1, 4)))
    assert np.all(np.isfinite(grad)) and np.all(np.isfinite(vjp))
    assert np.all(alone[2] == 0.0)  # the coinciding pair adds nothing


@pytest.mark.parametrize("gamma", [2.0, 1.5, 1.0])
def test_gaussian_gradients_match_fd_oracle(gamma):
    from dckit.condense import _krr_fit

    rng = np.random.default_rng(2024)
    x = rng.uniform(0.0, 1.0, (12, 3))
    y = np.eye(2)[[0] * 6 + [1] * 6]
    s, y_s = x[[0, 1, 6, 7]] + 0.05, y[[0, 1, 6, 7]]
    spec = KernelSpec("gamma_exponential", gamma=gamma, scale=0.8)
    loss_and_grad_s, grad_wrt_t = _krr_fit(spec, s, y_s, 0.1)
    grad_s, grad_t = loss_and_grad_s(x, y)[1], grad_wrt_t(x, y)
    _, mmd_grad = mmd_squared_and_grad_s(spec, x, s, gram_matrix(spec, x, x).mean())
    oracles = [
        (grad_s, central_diff(lambda u: _krr_fit(spec, u, y_s, 0.1)[0](x, y)[0], s)),
        (grad_t, central_diff(lambda u: loss_and_grad_s(u, y)[0], x)),
        (mmd_grad, central_diff(lambda u: mmd_squared(spec, x, u), s)),
    ]
    for grad, fd in oracles:
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_gaussian_gradient_peak_memory_is_a_few_matrices(rng):
    # one (A, B, n) difference tensor alone is n / 8 = 8 times this bound; built and squared
    # it peaked at 150 MiB here
    n_a, n_b, dim = 2000, 50, 64
    spec = gaussian_spec(0.01)
    t, s, coef = rng.uniform(size=(n_a, dim)), rng.uniform(size=(n_b, dim)), rng.normal(size=(n_a, n_b))
    for call in (lambda: mmd_squared_and_grad_s(spec, t, s, 0.5), lambda: gram_and_vjp(spec, t, s)[1](coef)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n_a * n_b * 8


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n_a,n_b,dim", [(1, 5, 3), (7, 1, 3), (7, 5, 1), (40, 12, 9)])
def test_random_feature_gradients_match_jacobian_reference(n_a, n_b, dim, rng):
    spec = KernelSpec("random_feature", scale=0.6, feature_dim=64, seed=2)
    a, b, coef = rng.uniform(size=(n_a, dim)), rng.uniform(size=(n_b, dim)), rng.normal(size=(n_a, n_b))
    assert _rel_err(gram_and_vjp(spec, a, b)[1](coef), rff_vjp_reference(spec, a, b, coef)) <= 1e-13
    # the mean-embedding route of an mmd, with T's n_a rows and S's n_b rows as one class
    t = LabeledDataset(a, np.zeros(n_a, dtype=np.int64), 1)
    s = SyntheticDataset(b, np.zeros(n_b, dtype=np.int64), per_class_size=n_b, origin="init")
    value, grad = matching_value_and_grad(MethodConfig(method="mmd", kernel=spec), t, s)
    gap = random_feature_map(spec, a).mean(axis=0) - random_feature_map(spec, b).mean(axis=0)
    assert value == float(gap @ gap)
    assert _rel_err(grad, np.einsum("p,bpn->bn", gap, rff_input_jacobian(spec, b)) * (-2.0 / n_b)) <= 1e-13


def test_random_feature_vjp_peak_memory_is_two_feature_matrices(rng):
    # an (A, B, n) tensor of per-pair gradients alone would be 51 MB, 3.1 times this bound
    n_a, n_b, dim, p = 2000, 50, 64, 512
    spec = KernelSpec("random_feature", scale=0.01, feature_dim=p, seed=0)
    a, b, coef = rng.uniform(size=(n_a, dim)), rng.uniform(size=(n_b, dim)), rng.normal(size=(n_a, n_b))
    tracemalloc.start()
    try:
        gram_and_vjp(spec, a, b)[1](coef)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n_a * p * 8


def expansion_bound(dim):
    """The relative distance from the per-feature sum that ``sq_distances`` states above 16
    features: (2^11 + 1)(n + 2) u, u = 2^-53."""
    return (2**11 + 1) * (dim + 2) * 2.0**-53


def assert_within_bound(got, want, dim):
    assert np.all(np.abs(got - want) <= expansion_bound(dim) * want)


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 16, 32, 33, 64, 100])
def test_sq_distances_match_cdist_and_pdist_bits(dim, rng):
    # cdist's bits up to 16 features, the stated bound on the expansion above
    a = rng.normal(size=(37, dim)) * 3.0
    b = rng.uniform(size=(23, dim))
    b[5] = b[2]  # duplicate rows
    a[4] = b[2]
    cases = [(sq_distances(a, b), cdist(a, b, "sqeuclidean")), (np.sqrt(sq_distances(a, b)), cdist(a, b)),
             (np.sqrt(sq_distances(a[:1], b)), cdist(a[:1], b)),  # a single row
             (np.sqrt(sq_distances(a, a))[np.triu_indices(len(a), 1)], pdist(a))]
    for got, want in cases:
        if dim <= dckit.kernels._EXPANSION_FEATURES:
            assert np.array_equal(got, want)
        else:
            assert_within_bound(got, want, dim)
    assert sq_distances(a, b)[4, 2] == sq_distances(a, b)[4, 5] == 0.0


def bound_test_rows(dim, rng):
    """Rows that stress the expansion: uniform rows, near duplicates 1e-6 apart, exact
    duplicates, rows offset by +100, so that ||a||^2 + ||b||^2 dwarfs many distances, and rows
    offset by +5, whose distances among themselves lie just above the recomputed range."""
    a, b = rng.uniform(size=(90, dim)), rng.uniform(size=(70, dim))
    a[10:20] = b[:10] + 1e-6 * rng.normal(size=(10, dim))
    a[20:25] = b[10:15]
    b[15] = b[16]
    a[30:50] += 100.0
    b[30:40] += 100.0
    b[40:45] = a[30:35] + 1e-6 * rng.normal(size=(5, dim))
    a[60:80] += 5.0
    b[50:65] += 5.0
    return a, b


@pytest.mark.parametrize("dim", [2, 17, 64, 784])
def test_sq_distances_error_bound(dim, rng):
    a, b = bound_test_rows(dim, rng)
    got, want = sq_distances(a, b), cdist(a, b, "sqeuclidean")  # cdist adds one feature at a time
    assert_within_bound(got, want, dim)
    assert np.all(got[np.arange(20, 25), np.arange(10, 15)] == 0.0) and got[0, 15] == got[0, 16]
    assert np.all(np.diag(sq_distances(a, a)) == 0.0)
    if dim <= dckit.kernels._EXPANSION_FEATURES:
        assert np.array_equal(got, want)


def test_sq_distances_overflow_like_the_per_feature_sum():
    # an overflowed norm leaves inf - inf in the expansion, which is summed again per feature
    a = np.full((2, 20), 1e200)
    a[1, 0] = 0.0
    b = np.vstack([a, np.zeros(20), np.full(20, 1e-300)])
    assert np.array_equal(sq_distances(a, b), cdist(a, b, "sqeuclidean"))
    assert sq_distances(a, b)[0, 0] == 0.0


@pytest.mark.parametrize("dim", [2, 17, 64, 784])
def test_sq_distances_rows_do_not_depend_on_the_other_rows(dim, rng):
    a, b = bound_test_rows(dim, rng)
    full = sq_distances(a, b)
    for i0, i1 in [(0, 1), (7, 8), (89, 90), (0, 45), (13, 71), (45, 90)]:
        assert np.array_equal(sq_distances(a[i0:i1], b), full[i0:i1]), (i0, i1)
    assert np.array_equal(sq_distances(a[[5, 2, 5]], b), full[[5, 2, 5]])  # a copy, rows in any order


def test_sq_distances_rejects_dimension_mismatch(rng):
    with pytest.raises(ShapeError):
        sq_distances(rng.uniform(size=(3, 2)), rng.uniform(size=(4, 3)))


@pytest.mark.parametrize("n,dim", [(3, 2), (400, 2), (400, 32), (400, 64), (1600, 2), (1600, 32), (1600, 64),
                                   (4000, 2), (500, 1)])
def test_median_heuristic_matches_pdist_bits(n, dim, rng):
    # the median of the package's own distances at every dim: pdist's bits up to 16 features,
    # the stated bound on the expansion above
    x = rng.normal(size=(n, dim))
    for dup in (False, True):  # the two give positive distance counts of opposite parity
        if dup:
            x[-1] = x[0]  # a duplicated row gives one zero distance, which the median skips
        own = np.sqrt(sq_distances(x, x)[np.triu_indices(n, 1)])
        assert median_heuristic(x) == np.median(own[own > 0])
        d = pdist(x)
        if dim <= dckit.kernels._EXPANSION_FEATURES:
            assert median_heuristic(x) == np.median(d[d > 0])
        else:
            assert_within_bound(median_heuristic(x), np.median(d[d > 0]), dim)
        if dim == 1:
            assert median_heuristic(x[:, 0]) == np.median(d[d > 0])  # 1-D input is one feature per point


def positive_median(x):
    d = pdist(np.asarray(x, dtype=float).reshape(len(x), -1))
    return np.median(d[d > 0]) if np.any(d > 0) else 1.0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_median_heuristic_of_fewer_than_three_points(n, rng):
    x = rng.normal(size=(n, 3))
    assert median_heuristic(x) == (np.linalg.norm(x[0] - x[1]) if n == 2 else 1.0)
    assert median_heuristic(np.zeros((n, 3))) == 1.0


@pytest.mark.parametrize("n", [3, 130, 1000])
def test_median_heuristic_of_equal_rows_is_one(n):
    # every distance is zero, so there is no positive one to take the median of
    assert median_heuristic(np.full((n, 4), 0.3)) == 1.0


@pytest.mark.parametrize("n,levels", [(1500, 3), (1000, 2), (801, 4)])
def test_median_heuristic_under_heavy_ties(n, levels, rng):
    # points on a small lattice: a few distinct distances, each shared by many pairs, at the median too
    x = rng.integers(0, levels, size=(n, 2)).astype(float)
    assert median_heuristic(x) == positive_median(x)


def test_median_heuristic_takes_the_bracket_that_misses_or_overflows(rng, monkeypatch):
    # the sample only sets the first scan's bracket: one below the rank, one above it, one that
    # holds a single value, and every positive value with room for 1 candidate per point
    x = rng.normal(size=(900, 3))
    x[-1] = x[0]
    want = positive_median(x)
    bits = lambda v: int(np.float64(v).view(np.int64))
    for bracket in ((1, bits(1e-6)), (bits(1e3), dckit.kernels._INF_BITS), (bits(2.0), bits(2.0))):
        monkeypatch.setattr(dckit.kernels, "_sample_bracket", lambda x, size, b=bracket: b)
        assert median_heuristic(x) == want
    monkeypatch.undo()
    monkeypatch.setattr(dckit.kernels, "_CANDIDATES_PER_POINT", 1)
    assert median_heuristic(x) == want
    assert median_heuristic(np.round(x, 1)) == positive_median(np.round(x, 1))
    lattice = rng.integers(0, 2, size=(900, 2)).astype(float)  # a bin of one value holds the median
    assert median_heuristic(lattice) == positive_median(lattice)


def test_median_heuristic_scans_each_bracket_once(rng, monkeypatch):
    # an even count of positive distances and room for 4 candidates per point: the first scan's
    # bracket holds too many, and both middle ranks narrow to the same bin, which one rescan keeps
    x = rng.normal(size=(800, 2))
    scan, brackets = dckit.kernels._median_scan, []
    monkeypatch.setattr(dckit.kernels, "_CANDIDATES_PER_POINT", 4)
    monkeypatch.setattr(dckit.kernels, "_median_scan",
                        lambda x, lo, hi, cap: brackets.append((lo, hi)) or scan(x, lo, hi, cap))
    assert median_heuristic(x) == positive_median(x)
    assert len(brackets) == 2 and len(set(brackets)) == 2


def test_median_heuristic_memory_is_linear_in_the_points(rng):
    # the parent's condensed buffer and its positive copy took 129.7 MiB at 4000 points
    x = rng.normal(size=(4000, 2))
    tracemalloc.start()
    try:
        median_heuristic(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 8 * len(x)


GRAM_MEAN_SHAPES = [(1, 1), (3, 5), (8, 16), (16, 9), (1, 128), (127, 1), (1, 129), (11, 12), (129, 1),
                    (256, 256), (255, 257), (257, 255), (1, 65536), (65537, 1), (300, 219), (401, 400)]


@pytest.mark.parametrize("dim", [1, 2, 17, 32, 64, 784])
@pytest.mark.parametrize("gamma", [2.0, 1.0, 0.3])
def test_gram_mean_matches_the_full_matrix_bits(dim, gamma, rng):
    # A x B at and around numpy's 128-entry blocks and the 2^16-entry leaves, with A != B; at 784
    # features the shapes without a 2^16-entry side
    spec = KernelSpec("gamma_exponential", gamma=gamma, scale=0.37)
    for rows_a, rows_b in GRAM_MEAN_SHAPES if dim < 784 else [s for s in GRAM_MEAN_SHAPES if max(s) < 1 << 16]:
        a, b = rng.normal(size=(rows_a, dim)), rng.normal(size=(rows_b, dim))
        want = gram_matrix(spec, a, b).mean()
        got = gram_mean(spec, a, b)
        assert type(got) is type(want) and got == want, (rows_a, rows_b)


def test_gram_mean_of_a_large_set_is_exact_in_linear_memory(rng):
    x, spec = rng.normal(size=(1601, 2)), gaussian_spec(0.5)
    want = gram_matrix(spec, x, x).mean()
    tracemalloc.start()
    try:
        got = gram_mean(spec, x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and peak < 2 * 8 * (dckit.kernels._LEAF_ENTRIES + 2 * len(x))


def test_gram_mean_of_other_families(rng):
    a, b = rng.uniform(size=(30, 3)), rng.uniform(size=(7, 3))
    pullback = pullback_spec(gaussian_spec(0.8), identity_autoencoder(3))
    rff = KernelSpec("random_feature", scale=0.5, feature_dim=16, seed=2)
    for spec in (pullback, rff):
        assert gram_mean(spec, a, b) == gram_matrix(spec, a, b).mean()
    with pytest.raises(DomainError):
        gram_mean(gaussian_spec(1.0), a[:0], b)


def test_ntk_ensemble_average(rng):
    models = [Mlp.init([2, 4, 1], "tanh", seed=i) for i in range(2)]
    spec = KernelSpec("empirical_ntk", model=models)
    x1, x2 = rng.uniform(size=2), rng.uniform(size=2)
    singles = [kernel_eval(KernelSpec("empirical_ntk", model=m), x1, x2) for m in models]
    assert kernel_eval(spec, x1, x2) == pytest.approx(np.mean(singles), rel=1e-12)


@pytest.mark.parametrize("hidden", [(), (5,), (5, 4)], ids=["0-hidden", "1-hidden", "2-hidden"])
def test_nfk_vjp_forwards_each_point_set_once_per_model(hidden, rng, monkeypatch):
    # per model one forward sweep of a for its features and one of b, whose reverse sweep reuses it
    rows = []
    forward = Mlp._forward
    monkeypatch.setattr(Mlp, "_forward", lambda self, x: rows.append(len(x)) or forward(self, x))
    members = (Mlp.init([3, *hidden, 2], "tanh", seed=1), Mlp.init([3, *hidden, 2], "relu", seed=2))
    spec = KernelSpec("nfk", model=members)
    a, b, coef = rng.uniform(size=(7, 3)), rng.uniform(size=(4, 3)), rng.normal(size=(7, 4))
    grad = gram_and_vjp(spec, a, b)[1](coef)
    assert rows == [7, 4] * 2
    monkeypatch.undo()

    def reference(m):  # the features of a and b, and a separate reverse sweep of b
        feats_a, (feats_b, pullback) = m.forward_batch(a)[1], m.feature_input_vjp(b)
        pen = max(len(feats_b) - 2, 0)
        return pullback([coef.T @ feats_a[pen] if i == pen else None for i in range(len(feats_b))])

    assert np.array_equal(grad, sum(reference(m) for m in spec.model) / 2)


@pytest.mark.parametrize("per_class", [1, 3])
def test_ntk_vjp_is_one_tangent_sweep_per_model(per_class, rng, monkeypatch):
    # the input gradient of the empirical NTK is exact: no Gram matrix at shifted rows
    import dckit.kernels
    import dckit.models

    calls = {"_tangent_sweep": 0, "gram_matrix": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(dckit.models, "_tangent_sweep")
    counted(dckit.kernels, "gram_matrix")
    spec = KernelSpec("empirical_ntk", model=(Mlp.init([3, 5, 2], "tanh", seed=1), Mlp.init([3, 4, 6, 2], "relu", seed=2)))
    a, b = rng.uniform(size=(12, 3)), rng.uniform(size=(2 * per_class, 3))
    grad = gram_and_vjp(spec, a, b)[1](rng.normal(size=(12, 2 * per_class)))
    assert grad.shape == b.shape
    assert calls == {"_tangent_sweep": 2, "gram_matrix": 0}


def test_feature_map_gram_sums_members_one_at_a_time(rng):
    # three 32-16-10 eNTK members at 400 x 20 rows: one member's J(a) (400 x 10 x 698 floats,
    # 22.3 MB) is alive at a time, where keeping every member's features and pullback peaked at 70 MB
    members = tuple(Mlp.init([32, 16, 10], "relu", seed=r) for r in range(3))
    spec = KernelSpec("empirical_ntk", model=members)
    a, b = rng.uniform(size=(400, 32)), rng.uniform(size=(20, 32))
    tracemalloc.start()
    try:
        k = gram_matrix(spec, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(k, gram_and_vjp(spec, a, b)[0])
    assert peak < 2 * 400 * 10 * members[0].param_count * 8
