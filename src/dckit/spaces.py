"""Linear (PCA) encoder/decoder pair and the four matching/optimization regimes.

The decoder inverts the encoder only on the principal subspace span(W), so
latent-optimized condensates are confined to that subspace; the regime helpers
make the resulting injectivity/surjectivity caveats constructible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrepancy import wasserstein1
from .errors import ConfigError, ShapeError, ValidationError
from .kernels import KernelSpec, kernel_or_default, mmd_squared

REGIMES = ("input_input", "input_latent", "latent_input", "latent_latent")


@dataclass(frozen=True)
class LinearAutoencoder:
    """Orthonormal linear autoencoder: encode(x) = W^T (x - mean), decode(z) = W z + mean."""

    mean: np.ndarray  # (n,)
    basis: np.ndarray  # (n, m), orthonormal columns

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=np.float64)
        w = np.asarray(self.basis, dtype=np.float64)
        if w.ndim != 2 or mu.ndim != 1 or w.shape[0] != mu.shape[0]:
            raise ShapeError("basis must be (n, m) with an n-vector mean")
        n, m = w.shape
        if not 1 <= m <= n:
            raise ConfigError(f"latent dim must satisfy 1 <= m <= n, got m={m}, n={n}")
        gram = w.T @ w
        if np.max(np.abs(gram - np.eye(m))) > 1e-10:
            raise ValidationError("basis columns are not orthonormal")
        mu = mu.copy()
        w = w.copy()
        mu.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "basis", w)

    @property
    def input_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.basis.shape[1]

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ShapeError(f"expected {self.input_dim}-dim points, got {x.shape[1]}")
        return (x - self.mean) @ self.basis

    def decode(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.shape[1] != self.latent_dim:
            raise ShapeError(f"expected {self.latent_dim}-dim latents, got {z.shape[1]}")
        return z @ self.basis.T + self.mean

    def encode_jacobian(self) -> np.ndarray:
        """d encode / d x, shape (m, n); constant since the map is affine."""
        return self.basis.T


def identity_autoencoder(n: int) -> LinearAutoencoder:
    """Identity encoder/decoder; makes all four regimes coincide."""
    return LinearAutoencoder(mean=np.zeros(n), basis=np.eye(n))


def fit_linear_autoencoder(data, m: int) -> LinearAutoencoder:
    """PCA fit: top-m principal directions of the centered features.

    Deterministic sign convention: the largest-magnitude entry of each column is
    made positive (first such entry on ties).
    """
    x = np.asarray(getattr(data, "features", data), dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ConfigError("need at least two rows to fit")
    n = x.shape[1]
    if not 1 <= m < n:
        raise ConfigError(f"latent dim must satisfy 1 <= m < n, got m={m}, n={n}")
    mu = x.mean(axis=0)
    centered = x - mu
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    w = vt[:m].T
    for j in range(m):
        k = int(np.argmax(np.abs(w[:, j])))
        if w[k, j] < 0:
            w[:, j] = -w[:, j]
    return LinearAutoencoder(mean=mu, basis=w)


def pullback_spec(base: KernelSpec, ae: LinearAutoencoder) -> KernelSpec:
    """Kernel on the input space obtained by encoding both arguments."""
    return KernelSpec(family="pullback", scale=base.scale, base=base, encoder=ae)


def _resolve_disc(disc, reference: np.ndarray, kernel: KernelSpec | None):
    if disc == "mmd":
        spec = kernel_or_default(kernel, reference)
        return lambda a, b: mmd_squared(spec, a, b)
    if disc == "w1":
        return wasserstein1
    raise ConfigError(f"unknown discrepancy selector {disc!r}")


def _space_map(ae: LinearAutoencoder, src: str, dst: str):
    """The map from space ``src`` to space ``dst`` ("input" or "latent") and its VJP."""
    if src == dst:
        return (lambda x: x), (lambda g: g)
    if dst == "latent":
        return ae.encode, lambda g: g @ ae.basis.T
    return ae.decode, lambda g: g @ ae.basis


def regime_maps(regime: str, ae: LinearAutoencoder | None):
    """The maps of a regime ``<match space>_<variable space>``, as (to_matched, to_variables,
    variables_to_matched, its VJP, variables_to_input): T's input rows to the matched
    view, input rows to the variables (the init), the variables to the matched view, and
    the variables back to input rows. Only ``input_input`` runs without an autoencoder."""
    if regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}")
    if regime != "input_input" and ae is None:
        raise ConfigError(f"regime {regime!r} needs an autoencoder")
    match, var = regime.split("_")
    return (_space_map(ae, "input", match)[0], _space_map(ae, "input", var)[0],
            *_space_map(ae, var, match), _space_map(ae, var, "input")[0])


def regime_objective(
    regime: str,
    ae: LinearAutoencoder,
    t_points: np.ndarray,
    sz_points: np.ndarray,
    disc: str = "mmd",
    kernel: KernelSpec | None = None,
) -> float:
    """Evaluate one quadrant of the optimize/match table under ``disc``: "mmd" or "w1".

    ``sz_points`` lives in input space for input-optimized regimes and in latent
    space for latent-optimized ones; a dimension mismatch raises ConfigError.
    """
    to_matched, _, fwd, _, _ = regime_maps(regime, ae)
    sz = np.atleast_2d(np.asarray(sz_points, dtype=np.float64))
    expect = ae.input_dim if regime.endswith("_input") else ae.latent_dim
    if sz.shape[1] != expect:
        raise ConfigError(
            f"regime {regime} optimizes {expect}-dim variables, got {sz.shape[1]}-dim"
        )
    a, b = to_matched(np.asarray(t_points, dtype=np.float64)), fwd(sz)
    fn = _resolve_disc(disc, a, kernel)
    return float(fn(a, b))
