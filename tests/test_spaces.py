import numpy as np
import pytest

from dckit import (
    LabeledDataset,
    LinearAutoencoder,
    Mlp,
    ModelBatch,
    fit_linear_autoencoder,
    gaussian_spec,
    identity_autoencoder,
    mmd_squared,
    pullback_spec,
    regime_objective,
)
from dckit.errors import ConfigError, ValidationError
from dckit.spaces import REGIMES, regime_maps


def test_fit_line_exact(rng):
    base = rng.normal(size=(40, 1)) @ np.array([[2.0, 1.0]]) + np.array([3.0, -1.0])
    ae = fit_linear_autoencoder(base, 1)
    rec = ae.decode(ae.encode(base))
    assert np.max(np.abs(rec - base)) <= 1e-10


def test_fit_reconstruction_error_equals_tail_eigenvalue_mass(rng):
    x = rng.normal(size=(60, 4))
    ae = fit_linear_autoencoder(x, 3)
    rec = ae.decode(ae.encode(x))
    err = np.sum((x - rec) ** 2)
    centered = x - x.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered))
    assert err == pytest.approx(eigvals[0], rel=1e-10)


def test_fit_permutation_invariant(rng):
    x = rng.normal(size=(30, 3))
    ae1 = fit_linear_autoencoder(x, 2)
    ae2 = fit_linear_autoencoder(np.random.default_rng(1).permutation(x), 2)
    assert np.allclose(ae1.basis, ae2.basis, atol=1e-10)
    assert np.allclose(ae1.mean, ae2.mean, atol=1e-12)


def test_fit_latent_dim_validation(rng):
    x = rng.normal(size=(10, 3))
    with pytest.raises(ConfigError):
        fit_linear_autoencoder(x, 3)
    with pytest.raises(ConfigError):
        fit_linear_autoencoder(x, 0)


def test_orthonormality_enforced():
    with pytest.raises(ValidationError):
        LinearAutoencoder(mean=np.zeros(2), basis=np.array([[1.0], [1.0]]))


def test_decode_encode_identity_on_span(rng):
    x = rng.normal(size=(20, 3))
    ae = fit_linear_autoencoder(x, 2)
    inside = ae.decode(rng.normal(size=(5, 2)))
    rec = ae.decode(ae.encode(inside))
    assert np.max(np.abs(rec - inside)) <= 1e-10


def test_push_forward_mean_linearity(rng):
    x = rng.normal(size=(25, 3))
    ae = fit_linear_autoencoder(x, 2)
    z = ae.encode(x)
    assert np.allclose(z.mean(axis=0), ae.encode(x.mean(axis=0)[None])[0], atol=1e-12)


@pytest.mark.parametrize("disc", ["mmd", "w1", "ipm_feature"])
def test_identity_encoder_regimes_agree(disc, rng):
    t = rng.uniform(size=(10, 3))
    s = rng.uniform(size=(4, 3))
    ae = identity_autoencoder(3)
    batch = ModelBatch(tuple(Mlp.init((3, 6, 2), "tanh", seed=i) for i in range(2)))
    vals = [
        regime_objective(r, ae, t, s, disc=disc, kernel=gaussian_spec(1.0), model_batch=batch)
        for r in REGIMES
    ]
    assert max(vals) - min(vals) <= 1e-10


def test_ipm_feature_objective_is_the_feature_mean_gap(rng):
    # max over the batch of ||mean h(T) - mean h(S)||^2 on the penultimate feature, bit for bit
    t = rng.uniform(size=(10, 3))
    s = rng.uniform(size=(4, 3))
    batch = ModelBatch(tuple(Mlp.init((3, 6, 2), "tanh", seed=i) for i in range(2)))
    got = regime_objective("input_input", identity_autoencoder(3), t, s, disc="ipm_feature", model_batch=batch)
    diffs = [m.forward_batch(t)[1][0].mean(axis=0) - m.forward_batch(s)[1][0].mean(axis=0) for m in batch]
    assert got == max(float(d @ d) for d in diffs)


def test_latent_latent_equals_latent_input(rng):
    t = rng.uniform(size=(12, 3))
    s = rng.uniform(size=(5, 3))
    ae = fit_linear_autoencoder(t, 2)
    a = regime_objective("latent_input", ae, t, s, disc="w1")
    b = regime_objective("latent_latent", ae, t, ae.encode(s), disc="w1")
    assert a == pytest.approx(b, abs=1e-12)


def test_input_latent_matches_input_input_for_in_span_s(rng):
    t = rng.uniform(size=(15, 3))
    ae = fit_linear_autoencoder(t, 2)
    s = ae.decode(rng.normal(scale=0.1, size=(4, 2)) + ae.encode(t[:4]))
    a = regime_objective("input_input", ae, t, s, disc="mmd", kernel=gaussian_spec(1.0))
    b = regime_objective("input_latent", ae, t, ae.encode(s), disc="mmd", kernel=gaussian_spec(1.0))
    assert a == pytest.approx(b, abs=1e-10)


def test_regime_dimension_validation(rng):
    ae = fit_linear_autoencoder(rng.normal(size=(10, 3)), 2)
    with pytest.raises(ConfigError):
        regime_objective("latent_latent", ae, rng.uniform(size=(5, 3)), rng.uniform(size=(2, 3)))


def test_pullback_mmd_equivalence(rng):
    t = rng.uniform(size=(10, 4))
    s = rng.uniform(size=(5, 4))
    ae = fit_linear_autoencoder(t, 2)
    base = gaussian_spec(0.7)
    lhs = mmd_squared(pullback_spec(base, ae), t, s)
    rhs = mmd_squared(base, ae.encode(t), ae.encode(s))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_injectivity_caveat_constructive(rng):
    # rank-deficient encoder: moving S along the null space is invisible in latent space
    basis = np.array([[1.0], [0.0]])
    ae = LinearAutoencoder(mean=np.zeros(2), basis=basis)
    s1 = rng.uniform(size=(4, 2))
    s2 = s1 + np.array([0.0, 0.35])  # null-space shift
    t = rng.uniform(size=(8, 2))
    kern = gaussian_spec(1.0)
    latent_gap = mmd_squared(kern, ae.encode(s1), ae.encode(s2))
    input_gap = mmd_squared(kern, s1, s2)
    assert latent_gap <= 1e-12
    assert input_gap > 1e-3


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_maps_follow_the_name(rng, regime):
    ae = fit_linear_autoencoder(rng.normal(size=(30, 3)), 2)
    to_matched, to_variables, fwd, vjp, to_input = regime_maps(regime, ae)
    x = rng.normal(size=(4, 3))
    match, var = regime.split("_")
    assert np.array_equal(to_matched(x), x if match == "input" else ae.encode(x))
    v = to_variables(x)
    assert np.array_equal(v, x if var == "input" else ae.encode(x))
    assert np.array_equal(to_input(v), x if var == "input" else ae.decode(v))
    assert np.array_equal(fwd(v), v if match == var else ae.encode(v) if match == "latent" else ae.decode(v))
    # the maps are affine, so the VJP pairs with a finite step exactly up to rounding
    g, dv = rng.normal(size=fwd(v).shape), rng.normal(size=v.shape)
    assert np.sum(g * (fwd(v + dv) - fwd(v))) == pytest.approx(np.sum(vjp(g) * dv), rel=1e-10)


def test_latent_regime_needs_an_autoencoder():
    assert regime_maps("input_input", None)[0] is not None
    with pytest.raises(ConfigError, match="needs an autoencoder"):
        regime_maps("latent_latent", None)
