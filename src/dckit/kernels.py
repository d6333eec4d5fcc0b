"""Kernels, Gram matrices, their exact input gradients, and the kernel-only MMD. A kernel is a
gamma-exponential, a feature map Phi with its pullback, or a pullback-encoder: random features,
the empirical NTK and nfk give k(a, b) = <Phi(a), Phi(b)> averaged over the spec's models, and
``_feature_map`` returns Phi(x) with grad_x <u, Phi(x)> from one evaluation of x, so
``gram_and_vjp`` gives a Gram matrix and its VJP from one evaluation of each point set."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, ConfigError, DomainError, ShapeError, check_fields
from .models import Mlp

FAMILIES = ("gamma_exponential", "empirical_ntk", "random_feature", "nfk", "pullback")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.

    ``scale`` is the c in exp(-c r^gamma) and the target Gaussian scale for random
    features; ``feature_dim``/``seed`` configure the random Fourier map; ``model`` is
    the ``Mlp`` behind an empirical-NTK/NFK kernel, or a tuple of them that the kernel
    averages over; ``encoder``/``base`` define a pullback kernel k(g_e(x1), g_e(x2)).
    """

    family: str
    gamma: float = 2.0
    scale: float = 1.0
    feature_dim: int = 0
    seed: int = 0
    model: object = None
    encoder: object = None
    base: "KernelSpec | None" = None

    def __post_init__(self):
        check_fields(self, KERNEL_FIELDS)
        if self.family == "gamma_exponential" and not (0.0 < self.gamma <= 2.0):
            raise ConfigError("gamma must lie in (0, 2]")
        if self.family == "random_feature" and self.feature_dim < 1:
            raise ConfigError("random_feature kernels need feature_dim >= 1")
        if self.family in ("empirical_ntk", "nfk") and not all(isinstance(m, Mlp) for m in _members(self) or [None]):
            raise ConfigError(f"{self.family} kernels need an Mlp or a non-empty tuple of them as model")
        if self.family == "pullback":
            if self.base is None or self.encoder is None:
                raise ConfigError("pullback kernels wrap exactly one base spec plus an encoder")
            if self.base.family == "pullback":
                raise ConfigError("pullback kernels cannot nest")

    def describe(self) -> dict:
        d = {"family": self.family, "scale": self.scale}
        if self.family == "gamma_exponential":
            d["gamma"] = self.gamma
        if self.family == "random_feature":
            d["feature_dim"] = self.feature_dim
            d["seed"] = self.seed
        if self.family == "pullback":
            d["base"] = self.base.describe()
        return d


# KernelSpec's fields as (kind, lower bound). ``model``'s kind depends on the family, and
# ``encoder`` is duck-typed (this module cannot import ``spaces``), so neither has a row.
KERNEL_FIELDS = {"family": (FAMILIES, None), "gamma": (float, None), "scale": (POSITIVE, None),
                 "feature_dim": (int, 0), "seed": (int, 0), "base": (KernelSpec, None)}


def gaussian_spec(scale: float = 1.0) -> KernelSpec:
    return KernelSpec(family="gamma_exponential", gamma=2.0, scale=scale)


# entries of one block of rows in sq_distances and median_heuristic's scans: small enough that
# the per-feature passes over a block stay in cache
_BLOCK_ENTRIES = 1 << 15
# above this many features, sq_distances takes ||a||^2 + ||b||^2 - 2 a.b from one matrix-vector
# product per row of a; up to it the per-feature sum keeps cdist's bits, at a cost that grows
# with the features (400 x 400 rows at 16 features: 3.9 ms against the expansion's 1.2 ms; at
# 64, 17 ms against 2.2 ms)
_EXPANSION_FEATURES = 16
# expanded squared distances at most this fraction of ||a||^2 + ||b||^2 lost too many digits to
# cancellation and are summed again one feature at a time
_CANCELLATION_RATIO = 2.0 ** -10
# median_heuristic: the most seeded pairs whose squared distances bracket the middle rank (one
# in 32 pairs below that, so the sample costs a few percent of the scan), and the candidates
# inside the bracket that one scan may keep per point; a histogram of bit patterns with 2^11
# bins narrows a bracket that holds more
_MEDIAN_SAMPLE = 1 << 15
_MEDIAN_SEED = 0
_CANDIDATES_PER_POINT = 64
_HIST_BITS = 11
_INF_BITS = 0x7FF0000000000000  # +inf; the positive doubles' bit patterns are 1 to this, in order


def _squared_norms(d: np.ndarray) -> np.ndarray:
    """||row||_2^2 of each row of d (..., h), with the bits of ``float(row @ row)``: the matmul
    of each (1, h) row by its (h, 1) column takes the same dot product."""
    return np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0]


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of (A, n) a and (B, n) b, shape (A, B).

    Up to 16 features the squared differences are added one feature at a time, in feature
    order: ``cdist``'s bits. ``np.sum`` over a difference tensor adds them pairwise and rounds
    differently from 8 features on. Above 16 features a distance is ||a||^2 + ||b||^2 - 2 a.b,
    the inner products from one (1, n) @ (n, B) matmul per row of a, so an entry depends only
    on its row of a and on b, not on the other rows of a; a GEMM's entries may depend on its
    blocking. The expansion cancels for close rows (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2002, sec. 1.7), so an entry at most 2^-10 (||a||^2 + ||b||^2) is
    summed again one feature at a time, as is a NaN that an overflowed norm leaves: equal rows
    give exactly 0, and every entry is within a relative (2^11 + 1)(n + 2) u of the per-feature
    sum, with u = 2^-53."""
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"point dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    out = np.zeros((a.shape[0], b.shape[0]))
    rows = max(1, _BLOCK_ENTRIES // max(b.shape[0], 1))
    if a.shape[1] > _EXPANSION_FEATURES:
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow's inf or NaN is its value
            norms_a, norms_b = _squared_norms(a), _squared_norms(b)
            cut = np.empty((min(rows, a.shape[0]), b.shape[0]))
            for i0 in range(0, a.shape[0], rows):
                block = out[i0:i0 + rows]
                c = cut[:len(block)]
                np.matmul(a[i0:i0 + rows, None, :], b.T, out=block[:, None, :])
                block *= -2.0
                np.add(norms_a[i0:i0 + rows, None], norms_b, out=c)
                block += c
                c *= _CANCELLATION_RATIO
                i, j = np.nonzero(~(block > c))  # NaN from an overflowed norm too
                block[i, j] = _pair_sq_distances(a, b, i0 + i, j)
        return out
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    diff = np.empty((min(rows, a.shape[0]), b.shape[0]))
    for i0 in range(0, a.shape[0], rows):
        block = out[i0:i0 + rows]
        d = diff[:block.shape[0]]
        for f in range(a.shape[1]):
            np.subtract(at[f, i0:i0 + rows, None], bt[f], out=d)
            d *= d
            block += d
    return out


def _pair_sq_distances(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """||a[i_k] - b[j_k]||^2 of each index pair, its squares added one feature at a time, as
    ``sq_distances`` adds them up to 16 features: a running sum along each pair's (k, n) row of
    squares, in chunks of at most 2^15 entries, costs one pass where a loop over the n > 16
    features would cost n."""
    out, step = np.empty(len(i)), max(1, _BLOCK_ENTRIES // a.shape[1])
    for k0 in range(0, len(i), step):
        d = a[i[k0:k0 + step]]
        d -= b[j[k0:k0 + step]]
        d *= d
        out[k0:k0 + step] = np.add.accumulate(d, axis=1, out=d)[:, -1]
    return out


def median_heuristic(x: np.ndarray) -> float:
    """Median of the positive pairwise Euclidean distances (1.0 when degenerate), in O(N) memory.

    An exact selection on the squared distances of the N(N-1)/2 pairs i < j (Floyd & Rivest,
    "Expected time bounds for selection", CACM 1975). A seeded sample of pairs brackets the middle
    rank, one scan of ``sq_distances``'s row blocks counts the positive values and those below the
    bracket and keeps those inside it, and a partition of the kept values gives the rank-k values.
    Up to 16 features a block holds the columns j > i; above 16 it holds full rows of
    ``sq_distances(x, x)`` with the pairs j <= i masked, since an expanded entry depends on its
    columns. Either way the values are those of the upper triangle of ``sq_distances(x, x)``.
    Their square roots are ``np.median``'s operands over the positive distances, because a
    correctly rounded square root is monotone, so the value has the bits of the median of those
    distances: ``pdist``'s up to 16 features. A bracket that misses the rank, or holds more than
    64 values per point, is moved or narrowed by further scans, so the seed changes only the
    time."""
    x = _as_points(x)
    n = x.shape[0]
    pairs, cap = n * (n - 1) // 2, _CANDIDATES_PER_POINT * n
    lo, hi = _sample_bracket(x, min(_MEDIAN_SAMPLE, pairs // 32)) if pairs > cap else (1, _INF_BITS)
    scans = {(lo, hi): _median_scan(x, lo, hi, cap)}  # every bracket's scan, for both middle ranks
    count = scans[lo, hi][0]
    if count == 0:
        return 1.0
    k = count // 2
    vals = [np.sqrt(_rank_value(x, r, lo, hi, scans, cap)) for r in ((k,) if count % 2 else (k - 1, k))]
    return float(vals[0]) if len(vals) == 1 else float((vals[0] + vals[1]) / 2.0)


def _sample_bracket(x: np.ndarray, size: int) -> tuple[int, int]:
    """The bit patterns of two squared distances of ``size`` seeded pairs i != j, about 4 standard
    errors either side of the sample's median of positive values: the bracket of a first scan.
    The pairs' distances are summed one feature at a time, as ``sq_distances`` sums them up to
    16 features; above that the sums may differ from its bits, which moves only the bracket and
    so only the time."""
    rng = np.random.default_rng(_MEDIAN_SEED)
    i = rng.integers(0, x.shape[0], size=size, dtype=np.int32)
    j = rng.integers(0, x.shape[0] - 1, size=size, dtype=np.int32)
    j += j >= i
    s, d, e = np.zeros(size), np.empty(size), np.empty(size)
    for col in x.T:
        np.subtract(np.take(col, i, out=d), np.take(col, j, out=e), out=d)
        d *= d
        s += d
    s = s[s > 0]
    s.sort()
    half, width = s.size // 2, int(2.0 * np.sqrt(s.size)) + 1
    lo = s[half - width].view(np.int64) if half >= width else 1
    hi = s[half + width].view(np.int64) if half + width < s.size else _INF_BITS
    return int(lo), int(hi)


def _median_scan(x: np.ndarray, lo: int, hi: int, cap: int):
    """One scan of the squared distances of the pairs i < j against the bracket of bit patterns
    [lo, hi]: (positive values, positive values below lo, values inside, the values inside or
    None when there are more than ``cap``, then their histogram over the bracket's bins)."""
    n, full = x.shape[0], x.shape[1] > _EXPANSION_FEATURES
    lo_f, hi_f = np.array([lo, hi], dtype=np.int64).view(np.float64)
    shift = max(0, (hi - lo).bit_length() - _HIST_BITS)
    cand, hist = np.empty(min(cap, n * (n - 1) // 2)), None
    positive = below = inside = 0
    i0 = 0
    while i0 < n - 1:
        start = 0 if full else i0 + 1  # full rows keep sq_distances(x, x)'s bits
        rows = max(1, _BLOCK_ENTRIES // (n - start))
        block = sq_distances(x[i0:i0 + rows], x[start:])  # column c is row start + c
        np.copyto(block, 0.0, where=np.tri(*block.shape, i0 - start, dtype=bool))  # pairs j <= i
        i0 += rows
        mask = block > 0
        positive += np.count_nonzero(mask)
        mask &= block < lo_f
        below += np.count_nonzero(mask)
        np.greater_equal(block, lo_f, out=mask)
        mask &= block <= hi_f
        m = np.count_nonzero(mask)
        if hist is None and inside + m <= cap:
            np.compress(mask.ravel(), block.ravel(), out=cand[inside:inside + m])
        else:
            if hist is None:
                hist = _bit_histogram(cand[:inside], lo, hi, shift)
            hist += _bit_histogram(block[mask], lo, hi, shift)
        inside += m
    return positive, below, inside, (cand[:inside] if hist is None else None), hist


def _bit_histogram(v: np.ndarray, lo: int, hi: int, shift: int) -> np.ndarray:
    """Counts of the values v, inside the bracket [lo, hi] of bit patterns, per bin of 2^shift patterns."""
    return np.bincount((v.view(np.int64) - lo) >> shift, minlength=((hi - lo) >> shift) + 1)


def _rank_value(x: np.ndarray, r: int, lo: int, hi: int, scans: dict, cap: int):
    """The rank-r positive squared distance, from the bracket [lo, hi]'s ``_median_scan`` result
    in ``scans``: a bracket that misses r moves below or above itself, and one that holds too
    many values narrows to the histogram bin that holds r, until one scan keeps r's bin. Each new
    bracket's scan joins ``scans``, so a later rank that takes the same bracket scans it once."""
    while True:
        _, below, inside, cand, hist = scans[lo, hi]
        if r < below:
            lo, hi = 1, lo - 1
        elif r >= below + inside:
            lo, hi = hi + 1, _INF_BITS
        elif cand is not None:
            cand.partition(r - below)
            return cand[r - below]
        else:
            shift = max(0, (hi - lo).bit_length() - _HIST_BITS)
            b = int(np.searchsorted(np.cumsum(hist), r - below, side="right"))
            lo, hi = lo + (b << shift), min(hi, lo + ((b + 1) << shift) - 1)
            if lo == hi:  # every value in the bin is this one
                return np.array(lo, dtype=np.int64).view(np.float64)[()]
        if (lo, hi) not in scans:
            scans[lo, hi] = _median_scan(x, lo, hi, cap)


def median_heuristic_spec(x: np.ndarray) -> KernelSpec:
    """Gaussian spec with c = 1 / (2 median^2), the standard default bandwidth."""
    return gaussian_spec(1.0 / (2.0 * median_heuristic(x) ** 2.0))


def kernel_or_default(kernel: KernelSpec | None, reference: np.ndarray) -> KernelSpec:
    """The kernel a run uses: ``kernel``, or the median-heuristic Gaussian of the reference
    rows when none is given. Every default-kernel choice in the package is this call."""
    return kernel if kernel is not None else median_heuristic_spec(reference)


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise ShapeError(f"point sets must be 1-D or 2-D, got shape {x.shape}")
    return x


_RFF_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _rff_params(n: int, p: int, scale: float, seed: int):
    """Frequencies and phases for random Fourier features, cached per (seed, p, n, c)."""
    key = (seed, p, n, float(scale))
    if key not in _RFF_CACHE:
        rng = np.random.default_rng(seed)
        # w ~ N(0, 2c I) makes E[phi(x).phi(y)] -> exp(-c ||x-y||^2)
        w = rng.normal(0.0, np.sqrt(2.0 * scale), size=(p, n))
        b = rng.uniform(0.0, 2.0 * np.pi, size=p)
        _RFF_CACHE[key] = (w, b)
    return _RFF_CACHE[key]


def random_feature_map(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    """Random Fourier features sqrt(2/p) cos(Wx + b) for one point or a batch.

    A 1-D input is one n-dimensional point; a 2-D input is a batch of rows.
    """
    if spec.family != "random_feature":
        raise ConfigError("random_feature_map needs a random_feature spec")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = x[None, :] if single else _as_points(x)
    w, b = _rff_params(pts.shape[1], spec.feature_dim, spec.scale, spec.seed)
    phi = pts @ w.T
    phi += b
    np.cos(phi, out=phi)
    phi *= np.sqrt(2.0 / spec.feature_dim)
    return phi[0] if single else phi


def _members(spec: KernelSpec) -> list:
    """The models a feature-map spec averages its kernel over: one None for random features."""
    if spec.family == "random_feature":
        return [None]
    return list(spec.model) if isinstance(spec.model, (list, tuple)) else [spec.model]


def _nfk_features(model: Mlp, x: np.ndarray):
    """The final hidden activation of the rows x (the logits without a hidden layer), and the
    map of a gradient on it back to x: the penultimate slice of ``Mlp.feature_input_vjp``."""
    feats, pullback = model.feature_input_vjp(_as_points(x))
    pen = max(len(feats) - 2, 0)
    return feats[pen], lambda g: pullback([g if i == pen else None for i in range(len(feats))])


def _feature_map(spec: KernelSpec, model, x: np.ndarray):
    """Phi(x), shape (B, p), of one member (None for random features) of a feature-map spec, and
    its pullback u (B, p) or (p,) -> grad_x <u, Phi(x)>, shape (B, n), with no (B, p, n) Jacobian:
    random Fourier features with (u * -sqrt(2/p) sin(xW^T + b)) @ W, computed when called, the
    flattened logit Jacobian with one tangent sweep, or nfk's final hidden activation with one
    reverse sweep; both sweeps start from the forward sweep that gave Phi(x)."""
    if spec.family == "empirical_ntk":
        j, pullback = model.logit_jacobian(x)
        return j.reshape(j.shape[0], -1), pullback
    if spec.family == "nfk":
        return _nfk_features(model, x)

    def pullback(u):
        w, b = _rff_params(x.shape[1], spec.feature_dim, spec.scale, spec.seed)
        d = x @ w.T
        d += b
        np.sin(d, out=d)
        d *= -np.sqrt(2.0 / spec.feature_dim)
        d *= u
        return d @ w

    return random_feature_map(spec, x), pullback


def gram_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise kernel matrix k(a_i, b_j): exp(-c r^gamma) of the distances, built in place,
    the member average of Phi(a) Phi(b)^T, or the base kernel of the encoded rows.

    A feature map's members are summed one at a time in ``gram_and_vjp``'s order, so only one
    member's features are alive at once and the matrix has ``gram_and_vjp``'s bits."""
    a, b = _as_points(a), _as_points(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"point dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if spec.family == "gamma_exponential":
        return _gaussian_from_sq(spec, sq_distances(a, b))
    if spec.family == "pullback":
        return gram_matrix(spec.base, spec.encoder.encode(a), spec.encoder.encode(b))
    members, k = _members(spec), 0
    for m in members:
        k += _feature_map(spec, m, a)[0] @ _feature_map(spec, m, b)[0].T
    return k / len(members)


# entries of one leaf of gram_mean's pairwise tree: above numpy's 128-entry unrolled blocks
_LEAF_ENTRIES = 1 << 16


def gram_mean(spec: KernelSpec, a: np.ndarray, b: np.ndarray):
    """The bits of ``gram_matrix(spec, a, b).mean()``, in O(A + B) memory for a gamma-exponential
    spec.

    numpy adds a contiguous run of n > 128 entries pairwise, splitting it at n/2 rounded down
    to a multiple of 8, so its tree depends only on n (Higham, "The accuracy of floating point
    summation", SIAM J. Sci. Comput. 1993). The recursion splits the flat A·B range the same
    way, builds each leaf of at most 2^16 entries from the rows it spans, lets ``np.add.reduce``
    sum the leaf as numpy sums that subtree, and adds the leaves up the tree. A
    gamma-exponential entry has the same bits whatever rows come with it; the other families'
    entries come from a GEMM, whose rounding may depend on its blocks, so they take the whole
    matrix."""
    if spec.family != "gamma_exponential":
        return gram_matrix(spec, a, b).mean()
    a, b = _as_points(a), _as_points(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"point dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DomainError("both point sets must be nonempty")
    cols = b.shape[0]

    def total(start, n):
        if n > _LEAF_ENTRIES:
            half = n // 2
            half -= half % 8
            return total(start, half) + total(start + half, n - half)
        i0 = start // cols
        leaf = _gaussian_from_sq(spec, sq_distances(a[i0:(start + n - 1) // cols + 1], b)).ravel()
        return np.add.reduce(leaf[start - i0 * cols:start - i0 * cols + n])

    return total(0, a.shape[0] * cols) / (a.shape[0] * cols)


def kernel_eval(spec: KernelSpec, x1: np.ndarray, x2: np.ndarray) -> float:
    """Kernel value for a single pair of points."""
    x1 = np.asarray(x1, dtype=np.float64).reshape(1, -1)
    x2 = np.asarray(x2, dtype=np.float64).reshape(1, -1)
    return float(gram_matrix(spec, x1, x2)[0, 0])


def kernel_grad2(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of k(a_i, b_j) w.r.t. b_j, shape (A, B, n), for a gamma-exponential spec.

    No contraction in the package builds this tensor: ``gram_and_vjp`` sums it one feature at a
    time (``_gaussian_gram_and_vjp``), and the sum is checked against this one."""
    if spec.family != "gamma_exponential":
        raise ConfigError(f"no analytic gradient for family {spec.family!r}")
    a, b = _as_points(a), _as_points(b)
    diff = b[None, :, :] - a[:, None, :]  # (A, B, n)
    r = np.sqrt(np.sum(diff * diff, axis=2))
    k = np.exp(-spec.scale * r**spec.gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(r > 0, r ** (spec.gamma - 2.0), 0.0)
    return (-spec.scale * spec.gamma) * (k * coef)[:, :, None] * diff


def _gaussian_from_sq(spec: KernelSpec, r2: np.ndarray) -> np.ndarray:
    """exp(-c r^gamma) of the squared distances r2, computed in r2's buffer, which it returns."""
    np.sqrt(r2, out=r2)
    r2 **= spec.gamma
    r2 *= -spec.scale
    return np.exp(r2, out=r2)


def _gaussian_and_weight(spec: KernelSpec, r2: np.ndarray):
    """k = exp(-c r^gamma) of the squared distances r2, and the weight w = -c gamma k r^(gamma - 2)
    of grad_{b_j} k(a_i, b_j) = w_ij (b_j - a_i), 0 where rows coincide; r2's buffer is left
    holding r. Both Gaussian VJPs take their terms from it and differ only in the axis they sum."""
    k = _gaussian_from_sq(spec, r2.copy())
    np.sqrt(r2, out=r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = r2 ** (spec.gamma - 2.0)
    w[r2 == 0] = 0.0
    w *= k
    w *= -spec.scale * spec.gamma
    return k, w


def _gaussian_gram_and_vjp(spec: KernelSpec, a: np.ndarray, b: np.ndarray):
    """``gram_matrix`` of a gamma-exponential spec, shape (A, B), and its VJP: coef (all ones
    when None) -> sum_i coef[i, j] grad_{b_j} k(a_i, b_j) for every row b_j, shape (B, n).

    The sum runs one feature at a time on (A, B) matrices of ``_gaussian_and_weight``'s terms,
    r from the Gram's ``sq_distances``, and each feature's terms are added over i in row
    order, as an einsum or ``sum(axis=0)`` over ``kernel_grad2`` does: the same bits below 8
    features, about 1 ulp apart from 8 on, where ``kernel_grad2``'s ``np.sum`` adds the
    squares pairwise."""
    r = sq_distances(a, b)
    k, w = _gaussian_and_weight(spec, r)

    def vjp(coef=None):
        g = np.empty((b.shape[0], b.shape[1]))
        d = r  # r's buffer holds one feature's terms at a time
        for f in range(b.shape[1]):
            np.subtract(b[:, f], a[:, f, None], out=d)
            d *= w
            if coef is not None:
                d *= coef
            # sum(axis=0) adds the rows in order, except down a single column, which it adds pairwise
            g[:, f] = d.sum(axis=0) if d.shape[1] > 1 or not len(d) else np.add.accumulate(d[:, 0])[-1]
        return g

    return k, vjp


def gram_and_vjp(spec: KernelSpec, a: np.ndarray, b: np.ndarray):
    """``gram_matrix(spec, a, b)`` and its VJP coef -> sum_i coef[i, j] grad_{b_j} k(a_i, b_j) for
    every row b_j, shape (B, n), both from one evaluation of each point set.

    A gamma-exponential spec sums one feature at a time from the Gram's distances, in O(A·B)
    memory (``_gaussian_gram_and_vjp``). For a feature map, k(a_i, b_j) = <Phi(a_i), Phi(b_j)>
    averaged over the members, so the VJP is the pullback of Phi(b) at u = coef^T Phi(a). A
    pullback-encoder spec's VJP is its base's, at the encoded rows, times the encoder Jacobian."""
    a, b = _as_points(a), _as_points(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"point dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if spec.family == "gamma_exponential":
        return _gaussian_gram_and_vjp(spec, a, b)
    if spec.family == "pullback":
        k, vjp = gram_and_vjp(spec.base, spec.encoder.encode(a), spec.encoder.encode(b))
        return k, lambda coef: vjp(coef) @ spec.encoder.encode_jacobian()
    maps = [(_feature_map(spec, m, a)[0], _feature_map(spec, m, b)) for m in _members(spec)]
    k = sum(phi_a @ phi_b.T for phi_a, (phi_b, _) in maps) / len(maps)
    return k, lambda coef: sum(pullback(coef.T @ phi_a) for phi_a, (_, pullback) in maps) / len(maps)


def mmd_squared(spec: KernelSpec, t: np.ndarray, s: np.ndarray) -> float:
    """Biased V-statistic MMD^2 with full double sums, clamped at zero.

    MMD^2 = mean k(T, T) - 2 mean k(T, S) + mean k(S, S).
    """
    t = _as_points(t)
    s = _as_points(s)
    if t.shape[0] == 0 or s.shape[0] == 0:
        raise DomainError("both point sets must be nonempty")
    return _mmd_from_means(gram_mean(spec, t, t), gram_mean(spec, t, s), gram_mean(spec, s, s))


def _mmd_from_means(ktt, kts, kss) -> float:
    """MMD^2 from the three Gram means, clamped at zero; ``ktt`` is constant in S, so callers may cache it."""
    val = float(ktt - 2.0 * kts + kss)
    if val < 0:
        val = 0.0 if val > -1e-9 else val
    return val


def mmd_squared_and_grad_s(spec: KernelSpec, t: np.ndarray, s: np.ndarray, ktt):
    """The V-statistic MMD^2 of ``mmd_squared`` given ``ktt``, the mean k(T, T) (constant in
    S, so callers cache it), and its gradient w.r.t. every point of S.

    One class is (A, n) rows t, (m, n) rows s and a scalar ``ktt``, giving a float and the
    (m, n) gradient. A stack of C classes is (C, A, n), (C, m, n) and (C,), giving (C,) values
    and the (C, m, n) gradient; each class has its own call's bits.

    A gamma-exponential kernel works in (C, m, A) layout, S's rows against T's along the
    contiguous axis (``_gaussian_mean_and_vjp``), and scales the sums. Each feature's gradient
    terms are added over T's rows pairwise, as ``np.add.reduce`` adds a contiguous run, within
    fixed blocks of rows that are then added in order, and over S's rows (the (S, S) term) the
    same way; below 8 rows the pairwise and the row-order sum coincide. The Gram entries have
    ``sq_distances``' bits and the value has ``mmd_squared``'s. Feature-map and pullback kernels
    take each class's Gram matrices and VJPs from ``gram_and_vjp``.
    """
    one = np.ndim(s) <= 2
    if one:
        t, s, ktt = _as_points(t)[None], _as_points(s)[None], [ktt]
    else:
        t, s = np.asarray(t, dtype=np.float64), np.asarray(s, dtype=np.float64)
    if t.ndim != 3 or s.ndim != 3 or t.shape[0] != s.shape[0] or t.shape[2] != s.shape[2]:
        raise ShapeError(f"T and S class stacks do not match: {t.shape} vs {s.shape}")
    n_t, n_s = t.shape[1], s.shape[1]
    if n_t == 0 or n_s == 0:
        raise DomainError("both point sets must be nonempty")
    if spec.family == "gamma_exponential":
        (kts, g_ts), (kss, g_ss) = _gaussian_mean_and_vjp(spec, t, s), _gaussian_mean_and_vjp(spec, s, s)
        grads = g_ss * (2.0 / (n_s * n_s)) - g_ts * (2.0 / (n_t * n_s))
    else:
        # d/ds_j [mean k(S,S)] = (2 / M^2) sum_a d2 k(s_a, s_j); the a=j term carries the
        # total derivative of the diagonal entry via kernel symmetry
        kts, kss, grads = [], [], np.empty(s.shape)
        for t_c, s_c, g in zip(t, s, grads):
            (k_ts, vjp_ts), (k_ss, vjp_ss) = gram_and_vjp(spec, t_c, s_c), gram_and_vjp(spec, s_c, s_c)
            kts.append(k_ts.mean())
            kss.append(k_ss.mean())
            g[...] = vjp_ss(np.full((n_s, n_s), 2.0 / (n_s * n_s))) - vjp_ts(np.full((n_t, n_s), 2.0 / (n_t * n_s)))
    values = np.array([_mmd_from_means(*means) for means in zip(ktt, kts, kss)])
    return (float(values[0]), grads[0]) if one else (values, grads)


# _gaussian_mean_and_vjp's blocks: a fixed count of x rows, so that a class's sums do not depend
# on the stack it comes in, and as many classes as keep a block's (classes, m, rows) matrices
# within 2^14 entries: a (10, 10, 480) block took twice the time per entry, in fresh pages
_MMD_BLOCK_ROWS = 1024
_MMD_BLOCK_ENTRIES = 1 << 14


def _gaussian_mean_and_vjp(spec: KernelSpec, x: np.ndarray, s: np.ndarray):
    """Per class of the stacks x (C, X, n) and s (C, m, n): the mean of ``gram_matrix(spec, x_c,
    s_c)``, with ``gram_mean``'s bits, and sum_i grad_{s_j} k(x_i, s_j) for every row s_j, shape
    (C, m, n).

    A block's (classes, m, rows) distances have ``sq_distances(x_c, s_c)``'s bits: up to 16
    features they are summed one feature at a time, above they come from ``sq_distances`` of
    the block's rows, whose expanded entries depend only on their own row and s_c. The block's
    ``_gaussian_and_weight`` terms are formed one feature at a time, and ``np.add.reduce`` adds
    each feature's along the contiguous rows axis. The Gram is kept in (X, m) order, whose
    pairwise sum is ``gram_mean``'s."""
    c, n_x, n = x.shape
    m = s.shape[1]
    gram = np.empty((c, n_x, m))
    g = np.zeros(s.shape)
    per = max(1, _MMD_BLOCK_ENTRIES // (m * min(n_x, _MMD_BLOCK_ROWS)))
    for c0 in range(0, c, per):
        xc, sc, gc = x[c0:c0 + per], s[c0:c0 + per], g[c0:c0 + per]
        for i0 in range(0, n_x, _MMD_BLOCK_ROWS):
            rows = xc[:, i0:i0 + _MMD_BLOCK_ROWS]
            cols = np.ascontiguousarray(rows.transpose(0, 2, 1))  # each feature's values contiguous
            if n > _EXPANSION_FEATURES:
                r = np.ascontiguousarray([sq_distances(x_c, s_c).T for x_c, s_c in zip(rows, sc)])
            else:
                r = np.zeros((len(sc), m, rows.shape[1]))
                d = np.empty_like(r)
                for f in range(n):
                    np.subtract(sc[:, :, f, None], cols[:, None, f], out=d)
                    d *= d
                    r += d
            k, w = _gaussian_and_weight(spec, r)
            gram[c0:c0 + per, i0:i0 + _MMD_BLOCK_ROWS] = k.transpose(0, 2, 1)
            d = r  # r's buffer holds one feature's terms at a time
            for f in range(n):
                np.subtract(sc[:, :, f, None], cols[:, None, f], out=d)
                d *= w
                gc[:, :, f] += np.add.reduce(d, axis=2)
    return np.add.reduce(gram.reshape(c, -1), axis=1) / (n_x * m), g
