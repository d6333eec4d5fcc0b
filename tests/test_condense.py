import hashlib
import importlib
import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import logsumexp, softmax

from dckit import (
    KernelSpec,
    LabeledDataset,
    Mlp,
    RegContext,
    SyntheticDataset,
    cig_ridge_value_and_grad,
    condense,
    dp_noise_calibration,
    gaussian_spec,
    gram_matrix,
    kcenter_covering,
    kmeans_coreset,
    krr_fit,
    krr_fit_targets,
    mmd_squared,
    regularizer_eval,
    sgd_train,
    two_blobs,
)
from dckit.condense import (
    METHODS,
    MethodConfig,
    _bptt_value_and_grad,
    _curvature_penalty,
    _make_ensemble,
    _matching_problem,
    _trajectory_problem,
    _Transforms,
    tuned_config,
)
from dckit.data import per_class_partition
from dckit.discrepancy import _feature_gap, _feature_stats, _gradient_gap
from dckit.errors import CapacityError, ConfigError, ContextError, DivergenceError, DomainError, ShapeError, SolveError
from dckit.kernels import _nfk_features
from dckit.models import TrainConfig
from dckit.seeding import derived_rng
from dckit.spaces import regime_maps
from tests.conftest import central_diff, copy_as_synthetic, linear_mlp, matching_value_and_grad

MATCHING = ("dm", "gm", "mmd", "moment", "sam")


def small_cfg(method, **kw):
    base = dict(outer_steps=1, outer_lr=0.05, ensemble=2, hidden=(6,), activation="tanh", seed=3)
    if method == "mmd":
        base["kernel"] = gaussian_spec(0.8)
    base.update(kw)
    return MethodConfig(method=method, **base)


# --- config validation -----------------------------------------------------------


@pytest.mark.parametrize(
    "method,variant",
    [
        ("dm", "dp_grad"),
        ("mmd", "contrastive"),
        ("gm", "ridge_robust"),
        ("krr", "dp_merf"),
        ("dm", "curvature"),
    ],
)
def test_variant_compatibility(method, variant):
    with pytest.raises(ConfigError):
        MethodConfig(method=method, variants={variant: {}})


def test_variant_parameters_resolved_once():
    cfg = MethodConfig(method="gm", variants={"dp_grad": {"sigma": 5}, "kmeans_proxy": {"period": np.int64(3)},
                                             "contrastive": {}})
    assert cfg.variants == {"dp_grad": {"sigma": 5.0}, "kmeans_proxy": {"k": None, "period": 3},
                            "contrastive": {}}
    assert type(cfg.variants["dp_grad"]["sigma"]) is float
    assert type(cfg.variants["kmeans_proxy"]["period"]) is int
    assert MethodConfig(method="gm", variants=cfg.variants).variants == cfg.variants
    assert cfg.variant("curvature") == {"rho": 0.01}  # table defaults for an unset variant
    assert MethodConfig(method="dm", image_shape=(1, 4, 4), variants={"siamese": {}}).variants == {
        "siamese": {"op": "shift"}}


def test_image_shape_checked_by_condense_for_library_callers():
    t = two_blobs(n_per_class=6, dim=16, separation=3.0, seed=2)
    cfg = MethodConfig(method="dm", image_shape=(1, 3, 3), variants={"multiform": {"r": 3}}, outer_steps=1)
    with pytest.raises(ShapeError, match=r"method\.image_shape \(1, 3, 3\) needs 9 features, the data has 16"):
        condense(cfg, t, copy_as_synthetic(t))
    cfg.check_image_shape(9)
    MethodConfig(method="dm").check_image_shape(16)  # no image variant: nothing to check


def test_pretrained_ensemble_trains_as_separate_members():
    from dckit.seeding import derive_seed

    t = two_blobs(n_per_class=20, seed=4)
    cfg = small_cfg("dm", ensemble=3, provenance="pretrained", pretrain_epochs=3, inner_batch=7, inner_lr=0.05)
    stacked = _make_ensemble(cfg, 2, 2, t.features, t.labels, step=5)
    assert len(stacked) == 3
    for i, m in enumerate(stacked):
        alone, _ = sgd_train(Mlp.init((2, 6, 2), "tanh", seed=derive_seed(cfg.seed, f"model:5:{i}")), t,
                             TrainConfig(learning_rate=0.05, epochs=3, batch_size=7, loss=cfg.loss,
                                         seed=derive_seed(cfg.seed, f"pretrain:5:{i}")))
        assert np.array_equal(m.flat_params(), alone.flat_params())


def test_readme_variant_table_matches_code():
    """README's variant table gives each parameter the methods and JSON default of the code's table."""
    from dckit.condense import _REQUIRED, VARIANTS

    rows = {}
    for line in (Path(__file__).parent.parent / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip("| ").split("|")]
        if line.startswith("| `") and len(cells) == 5:
            rows[cells[0], cells[2]] = (cells[1], cells[4])
    want = {}
    for name, (methods, _, params) in VARIANTS.items():
        for key, (_, _, default) in params.items():
            shown = "required" if default is _REQUIRED else f"`{json.dumps(default)}`"
            want[f"`{name}`", f"`{key}`"] = (", ".join(methods), shown)
        if not params:
            want[f"`{name}`", "—"] = (", ".join(methods), "—")
    assert rows == want


def test_readme_field_table_matches_code():
    """README's field table gives each MethodConfig field the kind, bound and JSON default of FIELDS."""
    from dataclasses import MISSING, fields

    from dckit.condense import FIELDS
    from dckit.errors import POSITIVE, WIDTHS
    from dckit.spaces import LinearAutoencoder

    rows = {}
    for line in (Path(__file__).parent.parent / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip("| ").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows[cells[0]] = (cells[1], cells[2])
    defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                for f in fields(MethodConfig)}
    want = {}
    for name, (kind, low) in FIELDS.items():
        if isinstance(kind, tuple):
            shown = "one of " + ", ".join(f"`{json.dumps(v)}`" for v in kind)
        else:
            shown = {int: "integer", float: "real", POSITIVE: "real > 0", WIDTHS: "list of integers",
                     KernelSpec: "kernel object", dict: "object",
                     LinearAutoencoder: "`LinearAutoencoder` (library only)"}[kind]
            shown += "" if low is None else f" >= {low}"
        default = defaults[name]
        want[f"`{name}`"] = (shown, "required" if default is MISSING else f"`{json.dumps(default)}`")
    assert rows == want


def test_negative_variant_params_rejected():
    with pytest.raises(ConfigError):
        MethodConfig(method="gm", variants={"dp_grad": {"sigma": -1.0}})


def test_image_variants_need_shape():
    with pytest.raises(ConfigError):
        MethodConfig(method="gm", variants={"multiform": {"r": 2}})


@pytest.mark.parametrize("bad", [
    {"outer_steps": 2.5}, {"outer_steps": True}, {"ensemble": 1.5}, {"refresh": "3"},
    {"outer_lr": float("nan")}, {"outer_lr": float("inf")}, {"outer_lr": "0.1"},
    {"inner_lr": float("nan")}, {"inner_steps": -1}, {"inner_batch": 0}, {"loss": "bogus"},
    {"hidden": (0,)}, {"hidden": (2.5,)}, {"seed": 1.5},
])
def test_method_config_numbers_validated(bad):
    with pytest.raises(ConfigError):
        MethodConfig(method="bptt", **bad)


def test_method_config_accepts_numpy_numbers():
    cfg = MethodConfig(method="dm", outer_steps=np.int64(3), ensemble=np.int32(2), outer_lr=np.float64(0.1))
    assert cfg.outer_steps == 3


def test_kernel_only_where_a_method_reads_it():
    rff = KernelSpec("random_feature", feature_dim=8)
    for method in ("mmd", "krr"):
        assert MethodConfig(method=method, kernel=gaussian_spec(1.0)).kernel is not None
    assert MethodConfig(method="dm", kernel=rff, variants={"dp_merf": {}}).kernel is rff
    for method in sorted(set(METHODS) - {"mmd", "krr"}):
        variants = {"robust_outer": {}} if method == "robdc" else {}
        with pytest.raises(ConfigError, match="method.kernel"):
            MethodConfig(method=method, kernel=gaussian_spec(1.0), variants=variants)


def test_unknown_method():
    with pytest.raises(ConfigError):
        MethodConfig(method="magic")


# --- fixed points and gradients ----------------------------------------------------


@pytest.mark.parametrize("method", MATCHING)
def test_zero_objective_at_exact_match(method, toy_pair):
    t, _ = toy_pair
    s = copy_as_synthetic(t)
    out, log = condense(small_cfg(method), t, s)
    assert log.rows[0]["objective"] == 0.0
    assert np.array_equal(out.features, s.features)


def test_trajectory_zero_at_exact_copy(rng):
    xt = rng.uniform(size=(6, 2))
    yt = np.array([0, 1, 0, 1, 0, 1])
    t = LabeledDataset(xt, yt, 2)
    s = SyntheticDataset(xt, yt, per_class_size=3, origin="copy")
    cfg = MethodConfig(method="trajectory", outer_steps=1, outer_lr=0.01, hidden=(4,),
                       activation="tanh", inner_steps=2, inner_batch=6, seed=5)
    _, log = condense(cfg, t, s)
    assert log.rows[0]["objective"] == 0.0


@pytest.mark.parametrize("method", MATCHING)
def test_outer_gradient_matches_fd(method, toy_pair):
    t, s = toy_pair
    cfg = small_cfg(method)
    value, grad = matching_value_and_grad(cfg, t, s)
    h = 1e-5
    fd = np.zeros_like(s.features)
    for j in range(s.features.shape[0]):
        for k in range(s.features.shape[1]):
            fp = s.features.copy()
            fm = s.features.copy()
            fp[j, k] += h
            fm[j, k] -= h
            vp, _ = matching_value_and_grad(cfg, t, replace(s, features=fp))
            vm, _ = matching_value_and_grad(cfg, t, replace(s, features=fm))
            fd[j, k] = (vp - vm) / (2 * h)
    assert np.max(np.abs(fd - grad) / (np.abs(fd) + 1e-6)) <= 1e-4


def test_permutation_invariance(toy_pair, rng):
    t, s = toy_pair
    perm = np.concatenate([rng.permutation(6), 6 + rng.permutation(6)])
    t2 = LabeledDataset(t.features[perm], t.labels[perm], 2)
    for method in MATCHING:
        cfg = small_cfg(method)
        v1, _ = matching_value_and_grad(cfg, t, s)
        v2, _ = matching_value_and_grad(cfg, t2, s)
        assert v1 == pytest.approx(v2, abs=1e-10)


def test_mmd_1d_converges_to_class_mean(rng):
    x = np.clip(rng.normal(0.5, 0.08, (40, 1)), 0.0, 1.0)
    t = LabeledDataset(x, np.zeros(40, dtype=int), 1)
    s0 = SyntheticDataset(np.array([[0.05]]), np.array([0]), per_class_size=1, origin="init")
    cfg = MethodConfig(method="mmd", outer_steps=400, outer_lr=3.0, kernel=gaussian_spec(0.1), seed=0)
    out, _ = condense(cfg, t, s0)
    grid = np.linspace(0.0, 1.0, 2001).reshape(-1, 1)
    vals = [mmd_squared(gaussian_spec(0.1), x, g.reshape(1, 1)) for g in grid]
    grid_min = grid[int(np.argmin(vals)), 0]
    assert abs(out.features[0, 0] - grid_min) <= 1e-2
    assert abs(out.features[0, 0] - x.mean()) <= 1e-2


# Objective logs of three short mmd runs, pinned as float.hex before mean k(T, T)
# was cached: the Gaussian run uses the analytic gradient, the nfk run the
# reverse sweep of kernels.gram_and_vjp's VJP, and the siamese run transforms T every step, so a
# k(T, T) term reused across steps would change its values. The nfk run was re-pinned
# when that sweep replaced central differences: step 0 unchanged, later steps within 4.1e-10.
# The siamese run (16-D rows) was re-pinned when the Gaussian gradient took its r from the
# Gram's feature-order distances instead of np.sum's pairwise ones: steps 0 and 1 unchanged,
# steps 2 and 3 within 3.8e-16 relative.
MMD_OBJECTIVES = {
    "gaussian": ["0x1.9f762549a4324p-3", "0x1.344d20fa952a8p-4", "0x1.2fa24dd52dd80p-5", "0x1.acfb14fbaa840p-6"],
    "nfk": ["0x1.1533cce9fc1d0p-2", "0x1.0575783b39040p-5", "0x1.dc3dbc486bf00p-9"],
    "siamese": ["0x1.87ec65fbcf76bp+0", "0x1.2db0afac0834bp+0", "0x1.198d20a6e51f8p+0", "0x1.29a85a8d36a96p-1"],
}


@pytest.mark.parametrize("name", sorted(MMD_OBJECTIVES))
def test_mmd_objectives_pinned(name):
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.0, 1.0, (12, 3))
    y = np.array([0] * 6 + [1] * 6)
    img = rng.uniform(0.0, 1.0, (12, 16))
    if name == "siamese":
        t = LabeledDataset(img, y, 2)
        s = SyntheticDataset(img[[0, 6]], y[[0, 6]], per_class_size=1, origin="init")
        cfg = MethodConfig(method="mmd", outer_steps=4, outer_lr=0.5, kernel=gaussian_spec(0.8),
                           image_shape=(1, 4, 4), variants={"siamese": {"op": "shift"}}, seed=3)
    else:
        t = LabeledDataset(x, y, 2)
        s = SyntheticDataset(x[[0, 1, 6, 7]], y[[0, 1, 6, 7]], per_class_size=2, origin="init")
        kernel = (gaussian_spec(0.8) if name == "gaussian"
                  else KernelSpec(family="nfk", model=Mlp.init((3, 5, 2), "tanh", seed=1)))
        cfg = MethodConfig(method="mmd", outer_steps=len(MMD_OBJECTIVES[name]), outer_lr=0.5, kernel=kernel, seed=3)
    _, log = condense(cfg, t, s)
    assert [float(v).hex() for v in log.objectives()] == MMD_OBJECTIVES[name]


# Every outer loop and every finite-difference site, pinned on tiny runs before
# the loops were merged into one driver. Each record holds the float.hex of every
# logged per-step value, and SHA-256 digests of the final features and of
# repr((log.meta, out.meta)). The "-reg" cases were pinned when central differences
# of the regularizers gave their gradients; they compare at rel=1e-9 instead of by bits
# (the exact gradients moved them by at most 9.1e-12). krr-nfk, mmd-nfk and the
# krr_loss_and_grads probe were re-pinned when kernels.kernel_vjp replaced central
# differences for nfk: objectives within 4.1e-11, grad_norm 1.9e-9, probe grad_s 3.3e-9. The
# bptt/robdc/curvdc entries (with and without rat) and the bptt gradient probe were
# re-pinned when the exact adjoint replaced central differences: bptt and robdc moved
# by at most 1.3e-9 relative, the probe by 4.1e-8; curvdc kept its step-0 objective
# and eta bits and moved later (Danskin differentiates the eigenvalue, not the
# curv_iters-step estimate). bptt-rat-offset (seed 8 draws RaT offsets 1, 1, 1) and
# trajectory-minibatch (4 S rows in batches of 3 + 1) were pinned before the bptt
# family and trajectory moved onto one unrolled tape; the two trajectory entries were
# then re-pinned when its adjoint replaced central differences: step-0 objective bits
# unchanged, later objectives within 1.2e-12 relative, grad_norm 9.1e-11, features 1.4e-11.
# mmd-rff-siamese was re-pinned when an mmd under random features took the mean
# embedding under image variants too, instead of three Gram matrices: objective,
# method_value and grad_norm within 1.9e-16 relative, features 6.1e-16, meta unchanged.
# mmd-siamese (16-D rows) was re-pinned when the Gaussian gradient took its r from the
# Gram's feature-order distances: objective, method_value, grad_norm and meta unchanged, features within 2.1e-16 relative.
# mmd-rff, dm-dp_merf and mmd-rff-siamese were re-pinned when the random-feature S gradient
# became the pullback (u * -sqrt(2/p) sin(xW^T + b)) @ W instead of an einsum over the (B, p, n)
# Jacobian: objective, method_value and meta unchanged, grad_norm within 3.7e-16 relative,
# features within 2.3e-16 relative (dm-dp_merf's unchanged).
OUTER_PINS = json.loads((Path(__file__).parent / "outer_loop_pins.json").read_text())
_GAUSS = gaussian_spec(0.8)
_NFK = KernelSpec(family="nfk", model=Mlp.init((3, 5, 2), "tanh", seed=1))
_RFF = KernelSpec("random_feature", scale=1.0, feature_dim=16, seed=0)
_ROBUST = {"robust_outer": {"eps": 0.05, "steps": 2}}
_RAT = {"rat_truncation": {"window": 2}}
OUTER_CASES = {
    "dm": {}, "gm": {}, "mmd": {"kernel": _GAUSS}, "moment": {}, "sam": {},
    "krr": {"kernel": _GAUSS}, "kcenter": {}, "kmeans": {}, "cig_ridge": {"ridge_lambda": 0.1},
    "trajectory": {}, "bptt": {}, "robdc": {"variants": _ROBUST}, "curvdc": {"curv_iters": 3},
    "krr-nfk": {"kernel": _NFK},
    "krr-ridge_robust": {"kernel": _GAUSS, "variants": {"ridge_robust": {"eps": 0.05, "steps": 2}}},
    "bptt-rat": {"inner_steps": 3, "variants": _RAT},
    "robdc-rat": {"inner_steps": 3, "variants": {**_ROBUST, **_RAT}},
    "curvdc-rat": {"inner_steps": 3, "curv_iters": 3, "variants": _RAT},
    "bptt-rat-offset": {"inner_steps": 3, "seed": 8, "variants": _RAT},  # seed 8 draws offsets 1, 1, 1
    "trajectory-minibatch": {"inner_batch": 3},  # 4 S rows: batches of 3 + 1
    "gm-curvature": {"curv_iters": 3, "variants": {"curvature": {"rho": 0.1}}},
    "gm-contrastive": {"variants": {"contrastive": {}}},
    "gm-dp_grad": {"variants": {"dp_grad": {"sigma": 0.5}}},
    "gm-kmeans_proxy": {"variants": {"kmeans_proxy": {"k": 3, "period": 2}}},
    "mmd-nfk": {"kernel": _NFK},
    "mmd-rff": {"kernel": _RFF},
    "dm-dp_merf": {"kernel": _RFF, "variants": {"dp_merf": {"sigma": 0.5}}},
    "dm-pretrained": {"provenance": "pretrained", "pretrain_epochs": 2},
    "gm-pretrained": {"provenance": "pretrained", "pretrain_epochs": 2},
    "mmd-latent_latent": {"kernel": _GAUSS, "regime": "latent_latent"},
    "dm-input_latent": {"regime": "input_latent"},
    "dm-multiform": {"image_shape": (1, 4, 4), "variants": {"multiform": {"r": 2}}},
    "gm-multiform": {"image_shape": (1, 4, 4), "variants": {"multiform": {"r": 2}}},  # img8-gm's variant
    "gm-siamese": {"image_shape": (1, 4, 4), "variants": {"siamese": {"op": "flip"}}},
    "mmd-siamese": {"kernel": _GAUSS, "image_shape": (1, 4, 4), "variants": {"siamese": {"op": "shift"}}},
    "sam-channel_multiform": {"image_shape": (1, 4, 4), "variants": {"channel_multiform": {}}},
    "dm-reg": {"regularizers": {"rep": 0.1, "div": 0.1}},
    "gm-reg": {"regularizers": {"inter": 0.1, "con": 0.05, "cos": 0.05}},
    "mmd-reg": {"kernel": _GAUSS, "regularizers": {"dis": 0.1, "intra": 0.1, "proj": 0.1}},
    "dm-dp_merf-reg": {"kernel": _RFF, "variants": {"dp_merf": {"sigma": 0.5}}, "regularizers": {"div": 0.1}},
    "mmd-rff-reg": {"kernel": _RFF, "regularizers": {"inter": 0.1}},
    "mmd-rff-siamese": {"kernel": _RFF, "image_shape": (1, 4, 4), "variants": {"siamese": {"op": "shift"}}},
    "gm-contrastive-multiform": {"image_shape": (1, 4, 4), "variants": {"contrastive": {}, "multiform": {"r": 2}}},
    "moment-siamese": {"image_shape": (1, 4, 4), "variants": {"siamese": {"op": "scale"}}},
    "gm-kmeans_proxy-dp_grad": {"variants": {"kmeans_proxy": {"k": 3, "period": 2}, "dp_grad": {"sigma": 0.5}}},
    "sam-latent_latent": {"regime": "latent_latent"},
    "gm-refresh1-curvature": {"refresh": 1, "curv_iters": 2, "variants": {"curvature": {"rho": 0.1}}},
}
OUTER_PROBES = ("matching_value_and_grad", "bptt_outer_gradient", "krr_loss_and_grads")


def _digest_array(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def outer_loop_record(name):
    """The pinned quantities of one case of OUTER_CASES or OUTER_PROBES."""
    from dckit.condense import _krr_loss_and_grads
    from dckit import fit_linear_autoencoder

    rng = np.random.default_rng(2024)
    x = rng.uniform(0.0, 1.0, (12, 3))
    y = np.array([0] * 6 + [1] * 6)
    img = rng.uniform(0.0, 1.0, (12, 16))
    t = LabeledDataset(x, y, 2)
    s = SyntheticDataset(x[[0, 1, 6, 7]], y[[0, 1, 6, 7]], per_class_size=2, origin="init")
    if name == "matching_value_and_grad":
        value, grad = matching_value_and_grad(small_cfg("gm"), t, s)
        return {"value": _hex(value), "grad": _hex(grad)}
    if name == "bptt_outer_gradient":
        cfg = MethodConfig(method="bptt", hidden=(4,), activation="tanh", inner_steps=2, seed=3)
        model = Mlp.init((3, 4, 2), "tanh", seed=0)
        _, grad = _bptt_value_and_grad(cfg, t, model, s.labels, model.flat_params(), s.features, 0.1, 2)
        return {"grad_s": _hex(grad[:-1]), "grad_eta": _hex(grad[-1])}
    if name == "krr_loss_and_grads":
        loss, grad_s, grad_t = _krr_loss_and_grads(_NFK, x, np.eye(2)[y], s.features, np.eye(2)[s.labels],
                                                   0.1, want_grad_t=True)
        return {"loss": _hex(loss), "grad_s": _hex(grad_s), "grad_t": _digest_array(grad_t)}
    kw = dict(outer_steps=3, outer_lr=0.05, ensemble=2, refresh=2, hidden=(4,), activation="tanh",
              inner_steps=2, inner_lr=0.1, inner_batch=6, seed=3)
    kw.update(OUTER_CASES[name])
    if "image_shape" in kw:
        t = LabeledDataset(img, y, 2)
        s = SyntheticDataset(img[[0, 6]], y[[0, 6]], per_class_size=1, origin="init")
    if kw.get("regime", "input_input") != "input_input":
        kw["autoencoder"] = fit_linear_autoencoder(t, 2)
    out, log = condense(MethodConfig(method=name.split("-")[0], **kw), t, s)
    record = {k: _hex([r[k] for r in log.rows]) for k in sorted(log.rows[0]) if k != "step"}
    record["features"] = _hex(out.features) if name.endswith("-reg") else _digest_array(out.features)
    record["meta"] = hashlib.sha256(repr((log.meta, out.meta)).encode()).hexdigest()
    return record


@pytest.mark.parametrize("name", [*OUTER_CASES, *OUTER_PROBES])
def test_outer_loop_values_pinned(name):
    got, want = outer_loop_record(name), OUTER_PINS[name]
    if not name.endswith("-reg"):
        assert got == want
        return
    assert got.keys() == want.keys() and got["meta"] == want["meta"]
    for key in want.keys() - {"meta"}:
        assert [float.fromhex(v) for v in got[key]] == pytest.approx(
            [float.fromhex(v) for v in want[key]], rel=1e-9), key


# --- kernel ridge regression ---------------------------------------------------------


def test_krr_scalar_oracle():
    # k(x, x') = x x' + 1 (the bias adds 1), so alpha = 1 / (k(2, 2) + lam) = 1/6 and pred(3) = k(3, 2) / 6
    spec = KernelSpec("empirical_ntk", model=linear_mlp(np.ones((1, 1))))
    pred = krr_fit_targets(spec, np.array([[2.0]]), np.array([[1.0]]), lam=1.0)
    assert pred.alpha[0, 0] == pytest.approx(1 / 6, abs=1e-12)
    assert pred(np.array([[3.0]]))[0, 0] == pytest.approx(7 / 6, abs=1e-12)


@pytest.mark.parametrize("family", ["gamma_exponential", "nfk", "empirical_ntk"])
def test_krr_step_evaluates_each_point_set_once_per_gram(family, rng, monkeypatch):
    # each of K(S, S) and K(T, S) comes with its VJP from one evaluation of its two point sets:
    # one sq_distances per Gram, or per member one forward sweep of each side
    import dckit.kernels
    from dckit.condense import _krr_loss_and_grads

    members = (Mlp.init([3, 5, 2], "tanh", seed=1), Mlp.init([3, 4, 2], "relu", seed=2))
    spec = gaussian_spec(0.8) if family == "gamma_exponential" else KernelSpec(family, model=members)
    x_t, s = rng.uniform(size=(12, 3)), rng.uniform(size=(4, 3))
    y_t, y_s = np.eye(2)[rng.integers(0, 2, 12)], np.eye(2)[[0, 0, 1, 1]]
    calls = []
    forward, sq_distances = Mlp._forward, dckit.kernels.sq_distances
    monkeypatch.setattr(Mlp, "_forward", lambda self, x: calls.append(self) or forward(self, x))
    monkeypatch.setattr(dckit.kernels, "sq_distances", lambda a, b: calls.append("sq") or sq_distances(a, b))
    _krr_loss_and_grads(spec, x_t, y_t, s, y_s, 0.1)
    if family == "gamma_exponential":
        assert calls == ["sq"] * 2
    else:
        assert [calls.count(m) for m in members] == [4, 4] and len(calls) == 8


def test_krr_ridge_dominance(rng):
    s = SyntheticDataset(rng.uniform(size=(4, 2)), np.array([0, 0, 1, 1]), per_class_size=2, origin="x")
    pred = krr_fit(gaussian_spec(1.0), s, lam=1e9)
    out = pred(rng.uniform(size=(3, 2)))
    assert np.max(np.abs(out)) <= 1e-6


def test_krr_interpolation_limit(rng):
    s = SyntheticDataset(rng.uniform(size=(4, 2)), np.array([0, 0, 1, 1]), per_class_size=2, origin="x")
    spec = gaussian_spec(2.0)
    pred = krr_fit(spec, s, lam=1e-8)
    from dckit import gram_matrix, one_hot

    direct = np.linalg.solve(gram_matrix(spec, s.features, s.features) + 1e-8 * np.eye(4),
                             one_hot(s.labels, 2))
    assert np.allclose(pred.alpha, direct, atol=1e-10)
    assert np.max(np.abs(pred(s.features) - one_hot(s.labels, 2))) <= 1e-4


def test_krr_singular_at_zero_lambda():
    s = SyntheticDataset(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0, 1]), per_class_size=1, origin="x")
    with pytest.raises(SolveError):
        krr_fit(gaussian_spec(1.0), s, lam=0.0)


def test_condense_krr_perfect_single_point():
    x = np.full((5, 2), 0.4)
    t = LabeledDataset(x, np.zeros(5, dtype=int), 1)
    s0 = SyntheticDataset(np.array([[0.4, 0.4]]), np.array([0]), per_class_size=1, origin="init")
    cfg = MethodConfig(method="krr", outer_steps=3, outer_lr=0.1, kernel=gaussian_spec(1.0),
                       ridge_lambda=1e-4, seed=0)
    _, log = condense(cfg, t, s0)
    assert log.rows[-1]["objective"] <= 1e-6


def test_condense_krr_blobs_accuracy(rng):
    d = two_blobs(n_per_class=80, separation=6.0, seed=7)
    from dckit import init_synthetic

    s0 = init_synthetic(d, 1, "subsample", seed=1)
    cfg = tuned_config("krr", outer_steps=200, seed=2)
    out, _ = condense(cfg, d, s0)
    pred = krr_fit(gaussian_spec(1.0 / (2 * 0.4**2)), out, lam=1e-3)
    acc = float(np.mean(pred.predict_labels(d.features) == d.labels))
    assert acc >= 0.95


_NFK_PAIR = KernelSpec("nfk", model=(Mlp.init((3, 5, 2), "tanh", seed=1), Mlp.init((3, 4, 6, 2), "relu", seed=2)))


@pytest.mark.parametrize("kernel", ["nfk", "nfk-linear", "nfk-identity", "pullback-nfk", "pullback-gaussian",
                                    "empirical_ntk", "empirical_ntk-relu", "empirical_ntk-ensemble",
                                    "empirical_ntk-linear", "random_feature", "pullback-random_feature"])
def test_nfk_gradients_match_fd_oracle(kernel):
    from dckit import fit_linear_autoencoder, pullback_spec
    from dckit.condense import _krr_loss_and_grads
    from dckit.kernels import mmd_squared_and_grad_s

    rng = np.random.default_rng(2024)
    x = rng.uniform(0.0, 1.0, (12, 3))
    y = np.eye(2)[[0] * 6 + [1] * 6]
    s, y_s = x[[0, 1, 6, 7]], y[[0, 1, 6, 7]]
    spec = _NFK_PAIR
    if kernel == "nfk-linear":
        spec = KernelSpec("nfk", model=linear_mlp(rng.normal(size=(3, 2))))
    if kernel == "nfk-identity":
        spec = KernelSpec("nfk", model=linear_mlp(np.eye(3)))
    if kernel == "pullback-nfk":
        ae = fit_linear_autoencoder(LabeledDataset(x, np.argmax(y, axis=1), 2), 2)
        spec = pullback_spec(KernelSpec("nfk", model=Mlp.init((2, 5, 2), "tanh", seed=1)), ae)
    if kernel == "pullback-gaussian":
        ae = fit_linear_autoencoder(LabeledDataset(x, np.argmax(y, axis=1), 2), 2)
        spec = pullback_spec(gaussian_spec(2.0), ae)
    if kernel == "empirical_ntk":  # a tangent sweep over the per-logit stack of each row
        spec = KernelSpec("empirical_ntk", model=Mlp.init((3, 4, 2), "tanh", seed=1))
    if kernel == "empirical_ntk-relu":
        spec = KernelSpec("empirical_ntk", model=Mlp.init((3, 4, 2), "relu", seed=1))
    if kernel == "empirical_ntk-ensemble":
        spec = KernelSpec("empirical_ntk", model=_NFK_PAIR.model)
    if kernel == "empirical_ntk-linear":  # a network without hidden layers
        spec = KernelSpec("empirical_ntk", model=linear_mlp(rng.normal(size=(3, 2))))
    if kernel == "random_feature":  # the pullback (u * -sqrt(2/p) sin(xW^T + b)) @ W
        spec = _RFF
    if kernel == "pullback-random_feature":
        ae = fit_linear_autoencoder(LabeledDataset(x, np.argmax(y, axis=1), 2), 2)
        spec = pullback_spec(_RFF, ae)
    _, grad_s, grad_t = _krr_loss_and_grads(spec, x, y, s, y_s, 0.1, want_grad_t=True)
    mmd2, mmd_grad = mmd_squared_and_grad_s(spec, x, s, gram_matrix(spec, x, x).mean())
    assert mmd2 == mmd_squared(spec, x, s)
    oracles = [
        (grad_s, central_diff(lambda u: _krr_loss_and_grads(spec, x, y, u, y_s, 0.1)[0], s)),
        (grad_t, central_diff(lambda u: _krr_loss_and_grads(spec, u, y, s, y_s, 0.1)[0], x)),
        (mmd_grad, central_diff(lambda u: mmd_squared(spec, x, u), s)),
    ]
    for grad, fd in oracles:
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


# --- bilevel flavors ------------------------------------------------------------------


def test_bptt_gradient_small_at_stationary_point(rng):
    # linear (no hidden layer) + mse on a tiny dataset: train to near-stationarity
    xt = rng.uniform(0.1, 0.9, (6, 2))
    yt = np.array([0, 1, 0, 1, 0, 1])
    t = LabeledDataset(xt, yt, 2)
    m0 = Mlp.init((2, 2), "tanh", seed=0)
    trained, _ = sgd_train(m0, t, TrainConfig(learning_rate=0.5, epochs=4000, batch_size=6, loss="mse", seed=1))
    cfg = MethodConfig(method="bptt", outer_steps=1, hidden=(), inner_steps=1, inner_lr=0.1,
                       loss="mse", seed=0)
    _, grad = _bptt_value_and_grad(cfg, t, trained, yt, trained.flat_params(), xt, 0.1, 1)
    assert np.linalg.norm(grad) <= 1e-4


_ADJOINT_CASES = {
    "bptt": {"method": "bptt"},
    "bptt-mse": {"method": "bptt", "loss": "mse"},
    "robdc-eps0": {"method": "robdc", "variants": {"robust_outer": {"eps": 0.0}}},
    "robdc": {"method": "robdc", "variants": {"robust_outer": {"eps": 0.05, "steps": 2}}},
    "curvdc": {"method": "curvdc", "curv_iters": 300},
    "rat": {"method": "bptt", "inner_steps": 5, "variants": {"rat_truncation": {"window": 2}}},
}


def _adjoint_problem(activation, **kw):
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.0, 1.0, (12, 3))
    y = np.array([0] * 6 + [1] * 6)
    cfg = MethodConfig(**{"hidden": (4,), "activation": activation, "inner_steps": 3, "seed": 3, **kw})
    window = cfg.variants["rat_truncation"]["window"] if "rat_truncation" in cfg.variants else cfg.inner_steps
    model = Mlp.init((3, 4, 2), activation, seed=0)
    return cfg, LabeledDataset(x, y, 2), model, x[[0, 1, 6, 7]], y[[0, 1, 6, 7]], window


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("case", sorted(_ADJOINT_CASES))
def test_bptt_adjoint_matches_fd_oracle(case, activation):
    cfg, t, model, s, labels, window = _adjoint_problem(activation, inner_lr=0.3, **_ADJOINT_CASES[case])
    theta = model.flat_params()

    def value(v):
        return _bptt_value_and_grad(cfg, t, model, labels, theta, v[:-1].reshape(s.shape), v[-1], window)[0]

    _, grad = _bptt_value_and_grad(cfg, t, model, labels, theta, s, 0.3, window)
    fd = central_diff(value, np.append(s.ravel(), 0.3))
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_bptt_adjoint_without_inner_steps():
    cfg, t, model, s, labels, _ = _adjoint_problem("tanh", method="bptt", inner_steps=0)
    value, grad = _bptt_value_and_grad(cfg, t, model, labels, model.flat_params(), s, 0.1, 0)
    assert value == model.mean_loss(t.features, t.labels)
    assert grad.shape == (s.size + 1,) and not grad.any()


def test_bptt_outer_overflow_raises_divergence():
    # the one inner step stays finite; the outer mse on T and the adjoint overflow
    cfg, t, _, s, labels, _ = _adjoint_problem("tanh", method="bptt", outer_steps=1, inner_steps=1,
                                               inner_lr=1e160, loss="mse")
    with pytest.raises(DivergenceError, match="hypergradient"):
        condense(cfg, t, SyntheticDataset(s, labels, per_class_size=2, origin="init"))


def test_bptt_step_sweeps_do_not_grow_with_synthetic_size(monkeypatch):
    from dckit.models import _FlatSgd

    d = two_blobs(n_per_class=12, dim=3, separation=3.0, seed=1)
    t = LabeledDataset(np.clip(d.features / 8 + 0.5, 0, 1), d.labels, 2)
    counts = []
    for per_class in (1, 3):
        rows = [*range(per_class), *range(12, 12 + per_class)]
        s = SyntheticDataset(t.features[rows], t.labels[rows], per_class_size=per_class, origin="init")
        calls = []
        for owner, name in ((_FlatSgd, "step"), (Mlp, "backward"), (Mlp, "input_grad_param_tangent")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda self, *a, _f=original, **k: calls.append(1) or _f(self, *a, **k))
        condense(MethodConfig(method="bptt", outer_steps=1, hidden=(4,), inner_steps=3, seed=0), t, s)
        monkeypatch.undo()
        counts.append(len(calls))
    # 3 inner steps, one outer backward, then per reverse step one tangent sweep (input part and HVP)
    assert counts == [3 + 1 + 3] * 2


@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("batch", [3, 4])  # 6 S rows: 3 divides them, 4 leaves a batch of 2
def test_trajectory_adjoint_matches_fd_oracle(loss, epochs, batch):
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.0, 1.0, (12, 3))
    y = np.array([0] * 6 + [1] * 6)
    rows = [0, 1, 2, 6, 7, 8]
    s0 = SyntheticDataset(x[rows], y[rows], per_class_size=3, origin="init")
    cfg = MethodConfig(method="trajectory", hidden=(4,), activation="tanh", inner_steps=epochs,
                       inner_batch=batch, inner_lr=0.3, loss=loss, seed=3)
    _, objective, *_ = _trajectory_problem(cfg, LabeledDataset(x, y, 2), s0)
    _, grad, _ = objective(s0.features, 0)
    fd = central_diff(lambda u: objective(u, 0)[0], s0.features)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_trajectory_step_sweeps_do_not_grow_with_synthetic_size(monkeypatch):
    from dckit.models import _FlatSgd

    counts = []
    for dim in (3, 12):
        d = two_blobs(n_per_class=12, dim=dim, separation=3.0, seed=1)
        t = LabeledDataset(np.clip(d.features / 8 + 0.5, 0, 1), d.labels, 2)
        rows = [*np.flatnonzero(t.labels == 0)[:3], *np.flatnonzero(t.labels == 1)[:3]]
        s = SyntheticDataset(t.features[rows], t.labels[rows], per_class_size=3, origin="init")
        cfg = MethodConfig(method="trajectory", hidden=(4,), inner_steps=2, inner_batch=4, seed=0)
        _, objective, *_ = _trajectory_problem(cfg, t, s)  # trains the expert
        calls = []
        for owner, name in ((_FlatSgd, "step"), (Mlp, "input_grad_param_tangent")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda self, *a, _f=original, **k: calls.append(1) or _f(self, *a, **k))
        objective(s.features, 0)
        monkeypatch.undo()
        counts.append(len(calls))
    # per minibatch step (2 epochs of ceil(6 / 4) = 2): one SGD step, one tangent sweep (input part and HVP)
    assert counts == [2 * 2 * 2] * 2


def test_trajectory_outer_overflow_raises_divergence():
    # the student's and the expert's steps stay finite; the distance between them overflows
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.0, 1.0, (12, 3))
    y = np.array([0] * 6 + [1] * 6)
    s = SyntheticDataset(x[[0, 1, 6, 7]], y[[0, 1, 6, 7]], per_class_size=2, origin="init")
    cfg = MethodConfig(method="trajectory", outer_steps=1, hidden=(4,), inner_steps=2, inner_batch=12,
                       inner_lr=1e100, seed=3)
    with pytest.raises(DivergenceError, match="hypergradient"):
        condense(cfg, LabeledDataset(x, y, 2), s)


def test_cig_matches_fd(rng):
    for trial in range(5):
        r = np.random.default_rng(trial)
        s = r.uniform(0.1, 0.9, (2, 2))
        y_s = np.eye(2)
        x_t = r.uniform(size=(6, 2))
        y_t = np.eye(2)[r.integers(0, 2, 6)]
        lam = 0.4
        _, grad = cig_ridge_value_and_grad(s, y_s, x_t, y_t, lam)
        h = 1e-6
        fd = np.zeros_like(s)
        for j in range(2):
            for k in range(2):
                sp, sm = s.copy(), s.copy()
                sp[j, k] += h
                sm[j, k] -= h
                fd[j, k] = (cig_ridge_value_and_grad(sp, y_s, x_t, y_t, lam)[0]
                            - cig_ridge_value_and_grad(sm, y_s, x_t, y_t, lam)[0]) / (2 * h)
        assert np.max(np.abs(fd - grad) / (np.abs(fd) + 1e-8)) <= 1e-4


def test_bilevel_flavor_validation():
    with pytest.raises(ConfigError):
        MethodConfig(method="robdc", seed=0)  # robust_outer variant missing


def test_rat_truncation_window_validated():
    with pytest.raises(ConfigError, match="rat_truncation.window"):
        MethodConfig(method="bptt", outer_steps=1, inner_steps=3, hidden=(4,),
                     variants={"rat_truncation": {"window": 9}}, seed=0)


def test_rat_truncation_runs(toy_pair):
    t, _ = toy_pair
    s = SyntheticDataset(t.features[[0, 6]], t.labels[[0, 6]], per_class_size=1, origin="init")
    cfg = MethodConfig(method="bptt", outer_steps=2, outer_lr=0.05, inner_steps=4, inner_lr=0.1,
                       hidden=(4,), activation="tanh",
                       variants={"rat_truncation": {"window": 2}}, seed=1)
    out, log = condense(cfg, t, s)
    assert len(log.rows) == 2 and np.all(np.isfinite(out.features))


def test_curvdc_runs(toy_pair):
    t, _ = toy_pair
    s = SyntheticDataset(t.features[[0, 6]], t.labels[[0, 6]], per_class_size=1, origin="init")
    cfg = MethodConfig(method="curvdc", outer_steps=1, outer_lr=0.05, inner_steps=2, inner_lr=0.1,
                       hidden=(4,), activation="tanh", curv_iters=4, seed=1)
    _, log = condense(cfg, t, s)
    assert np.isfinite(log.rows[0]["objective"])


def test_curvature_gradient_matches_fd_at_converged_eigenvector(toy_pair):
    t, s = toy_pair
    cfg = small_cfg("gm", curv_iters=500, variants={"curvature": {"rho": 0.1}})
    model = Mlp.init((3, 4, 2), "tanh", seed=5)

    def penalty(x_s):
        return _curvature_penalty(model, t.features, t.labels, x_s, s.labels, cfg)

    _, grad = penalty(s.features)
    fd = central_diff(lambda x_s: penalty(x_s)[0], s.features)
    assert np.max(np.abs(grad - fd)) <= 1e-4 * np.max(np.abs(fd))


def test_curvature_step_sweeps_do_not_grow_with_synthetic_size(monkeypatch):
    d = two_blobs(n_per_class=12, dim=3, separation=3.0, seed=1)
    t = LabeledDataset(np.clip(d.features / 8 + 0.5, 0, 1), d.labels, 2)
    counts = []
    for per_class in (1, 3):
        rows = [*range(per_class), *range(12, 12 + per_class)]
        s = SyntheticDataset(t.features[rows], t.labels[rows], per_class_size=per_class, origin="init")
        sweeps = []
        for name in ("backward", "input_grad_param_tangent"):
            original = getattr(Mlp, name)
            monkeypatch.setattr(Mlp, name, lambda self, *a, _f=original, **k: sweeps.append(1) or _f(self, *a, **k))
        matching_value_and_grad(small_cfg("gm", curv_iters=3, variants={"curvature": {"rho": 0.1}}), t, s)
        monkeypatch.undo()
        counts.append(len(sweeps))
    # per member (2) and class (2): one T backward, one S backward, one tangent; per member:
    # curv_iters + 1 = 4 HVPs on each side, doubled when the negative-eigenvalue shift
    # re-runs power iteration, and the two Danskin tangents
    assert all(n <= 2 * (2 * 3 + 2 * 2 * 4 + 2) for n in counts), counts


# --- coreset selectors -----------------------------------------------------------------


def test_kcenter_full_cover(rng):
    pts = rng.uniform(size=(6, 2))
    idx, radius = kcenter_covering(pts, 6)
    assert radius == 0.0 and sorted(idx.tolist()) == list(range(6))


def test_kcenter_fixture():
    idx, radius = kcenter_covering(np.array([0.0, 4.0, 10.0]), 1)
    assert idx.tolist() == [1] and radius == 6.0


def test_kcenter_out_of_range(rng):
    with pytest.raises(CapacityError):
        kcenter_covering(rng.uniform(size=(3, 1)), 4)


def test_kcenter_greedy_within_2x_exact(rng):
    for trial in range(20):
        r = np.random.default_rng(trial)
        pts = r.uniform(size=(int(r.integers(4, 13)), 2))
        m = int(r.integers(1, 4))
        _, greedy = kcenter_covering(pts, m, method="greedy")
        _, exact = kcenter_covering(pts, m, method="exact")
        assert greedy <= 2.0 * exact + 1e-12


def test_kcenter_greedy_matches_full_matrix_greedy(rng):
    # the farthest-point picks on the full distance matrix, the reference the row-per-pick
    # greedy must reproduce bit for bit
    pts = rng.normal(size=(500, 32))
    d = cdist(pts, pts)
    sel, mind = [0], d[0].copy()
    while len(sel) < 12:
        sel.append(int(np.argmax(mind)))
        mind = np.minimum(mind, d[sel[-1]])
    idx, radius = kcenter_covering(pts, 12, method="greedy")
    assert idx.tolist() == sel and radius == mind.max()


def test_kcenter_greedy_memory_is_linear(rng):
    pts = rng.uniform(size=(4000, 2))
    tracemalloc.start()
    try:
        idx, _ = kcenter_covering(pts, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(idx.tolist())) == 10
    assert peak < 4e6  # one 4000 x 4000 distance matrix would be 128 MB


def test_kmeans_k_equals_n(rng):
    pts = rng.uniform(size=(5, 2))
    centers, inertias = kmeans_coreset(pts, 5, seed=0)
    assert inertias[-1] == pytest.approx(0.0, abs=1e-20)
    assert sorted(map(tuple, centers.round(12))) == sorted(map(tuple, pts.round(12)))


def test_kmeans_two_separated_pairs():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    centers, _ = kmeans_coreset(pts, 2, seed=1)
    got = sorted(map(tuple, centers.round(8)))
    assert got == [(0.05, 0.0), (5.05, 5.0)]


def test_kmeans_inertia_monotone(rng):
    for trial in range(5):
        pts = np.random.default_rng(trial).uniform(size=(30, 3))
        _, inertias = kmeans_coreset(pts, 4, iters=20, seed=trial)
        assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))


# --- regularizers -------------------------------------------------------------------


def test_inter_margin_satisfied():
    # class-mean features sit 5 apart; a margin of 2 is satisfied, loss 0
    s = np.array([[5.0, 0.0], [0.0, 0.0]])
    ctx = RegContext(synthetic_features=s, synthetic_labels=np.array([0, 1]), class_count=2, tau=2.0)
    assert regularizer_eval("inter", ctx)[0] == 0.0


def test_rep_member_of_t(rng):
    t = rng.uniform(0.1, 1.0, (5, 3))
    ctx = RegContext(synthetic_features=t[[2]], synthetic_labels=np.array([0]), class_count=1,
                     real_features=t)
    assert regularizer_eval("rep", ctx)[0] == pytest.approx(-1.0, abs=1e-12)


def test_div_duplicates():
    s = np.array([[0.4, 0.2], [0.4, 0.2]])
    ctx = RegContext(synthetic_features=s, synthetic_labels=np.array([0, 0]), class_count=1)
    assert regularizer_eval("div", ctx)[0] == pytest.approx(1.0, abs=1e-12)


def test_proj_in_span(rng):
    traj = rng.normal(size=(4, 20))  # 4 snapshots of 20 parameters
    coef = rng.normal(size=4)
    theta = traj.T @ coef
    ctx = RegContext(theta=theta, trajectory=traj)
    assert regularizer_eval("proj", ctx)[0] <= 1e-9
    # out-of-span component measured in l1, cross-checked by lstsq residual
    theta2 = theta + rng.normal(size=20) * 0.3
    basis = traj.T
    resid = theta2 - basis @ np.linalg.lstsq(basis, theta2, rcond=None)[0]
    assert regularizer_eval("proj", RegContext(theta=theta2, trajectory=traj))[0] == pytest.approx(
        float(np.abs(resid).sum()), rel=1e-9)


def test_con_cos_need_two_models(rng):
    ctx = RegContext(synthetic_features=rng.uniform(size=(2, 2)), synthetic_labels=np.array([0, 0]),
                     class_count=1, models=(Mlp.init((2, 4, 2), "tanh", seed=0),))
    with pytest.raises(ContextError):
        regularizer_eval("con", ctx)
    with pytest.raises(ContextError):
        regularizer_eval("cos", ctx)


def test_con_cos_values(rng):
    models = tuple(Mlp.init((2, 4, 2), "tanh", seed=i) for i in range(2))
    ctx = RegContext(synthetic_features=rng.uniform(size=(3, 2)),
                     synthetic_labels=np.zeros(3, dtype=int), class_count=1, models=models, tau=1.0)
    assert np.isfinite(regularizer_eval("con", ctx)[0])
    assert -1.001 <= regularizer_eval("cos", ctx)[0] <= 1.001


def test_dis_and_intra_need_real(rng):
    ctx = RegContext(synthetic_features=rng.uniform(size=(2, 2)),
                     synthetic_labels=np.array([0, 1]), class_count=2)
    with pytest.raises(ContextError):
        regularizer_eval("dis", ctx)
    with pytest.raises(ContextError):
        regularizer_eval("intra", ctx)


def intra_reference(s, y, emb, tau):
    """intra without models, row by row: each row's cross-entropy of its real class mean against
    its other same-class rows, by scipy's max-shifted log-sum-exp and softmax."""
    value, g = 0.0, np.zeros_like(s)
    for i in range(len(s)):
        others = np.flatnonzero((y == y[i]) & (np.arange(len(s)) != i))
        scores = np.concatenate([[s[i] @ emb[y[i]]], s[others] @ s[i]]) / tau
        p = softmax(scores)
        value += logsumexp(scores) - scores[0]
        g[i] += ((p[0] - 1.0) * emb[y[i]] + p[1:] @ s[others]) / tau
        g[others] += np.outer(p[1:], s[i]) / tau
    return value / len(s), g / len(s)


def con_reference(s, y, models, tau):
    """con row by row: per class and ordered model pair, each row's cross-entropy of its own
    pairing, by scipy's max-shifted log-sum-exp and softmax, mapped back through each model."""
    feats = [_nfk_features(m, s) for m in models]
    n_h, value = len(models), 0.0
    ups = [np.zeros_like(h) for h, _ in feats]
    for k in np.unique(y):
        rows = np.flatnonzero(y == k)
        for j, l in itertools.permutations(range(n_h), 2):
            a, b = feats[j][0][rows], feats[l][0][rows]
            for i in range(len(rows)):
                scores = b @ a[i] / tau
                coef = softmax(scores) - np.eye(len(rows))[i]
                value += (logsumexp(scores) - scores[i]) / (n_h**2 * len(rows))
                ups[j][rows[i]] += coef @ b / (n_h**2 * len(rows) * tau)
                ups[l][rows] += np.outer(coef, a[i]) / (n_h**2 * len(rows) * tau)
    return value, sum(vjp(up) for (_, vjp), up in zip(feats, ups))


@pytest.mark.parametrize("name", ["con", "intra"])
def test_contrastive_regularizers_do_not_overflow_at_a_small_tau(name):
    # scores of order 50 * 50 / 1e-3: an exp without the row maximum subtracted overflows
    rng = np.random.default_rng(2)
    s, y_s = 50.0 * rng.uniform(size=(8, 3)), np.repeat(np.arange(2), 4)
    x_t, y_t = 50.0 * rng.uniform(size=(10, 3)), np.repeat(np.arange(2), 5)
    models = tuple(Mlp.init((3, 6, 2), "tanh" if i else "relu", seed=i) for i in range(2))
    ctx = RegContext(s, y_s, 2, x_t, y_t, models if name == "con" else (), tau=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = regularizer_eval(name, ctx)
    emb = np.stack([x_t[y_t == k].mean(axis=0) for k in range(2)])
    want, want_grad = (con_reference(s, y_s, models, 1e-3) if name == "con"
                       else intra_reference(s, y_s, emb, 1e-3))
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert abs(value - want) <= 1e-12 * abs(want)
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("name", ["rep", "div", "inter", "intra", "con", "cos", "dis"])
def test_regularizer_gradient_matches_fd_oracle(name, activation):
    rng = np.random.default_rng(7)
    x_t, y_t = rng.uniform(size=(12, 4)), np.repeat(np.arange(3), 4)
    s, y_s = rng.uniform(size=(9, 4)), np.repeat(np.arange(3), 3)
    # two hidden layers, so the penultimate feature is not the first; tau 0.5 leaves some inter hinges active
    models = tuple(Mlp.init((4, 6, 5, 3), activation, seed=i) for i in range(3))

    def value_and_grad(u):
        return regularizer_eval(name, RegContext(u, y_s, 3, x_t, y_t, models, tau=0.5))

    value, grad = value_and_grad(s)
    fd = central_diff(lambda u: value_and_grad(u)[0], s)
    assert value != 0.0 and np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_rep_gradient_on_a_large_real_set_stays_linear_in_its_size():
    import tracemalloc

    rng = np.random.default_rng(11)
    x_t, s = rng.uniform(size=(3000, 4)), rng.uniform(size=(3, 4))
    ctx = lambda u: RegContext(u, np.zeros(3, dtype=np.int64), 1, x_t, np.zeros(3000, dtype=np.int64))
    tracemalloc.start()
    value, grad = regularizer_eval("rep", ctx(s))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3000**2 * 8 / 10  # far below one N_T x N_T float array
    fd = central_diff(lambda u: regularizer_eval("rep", ctx(u))[0], s)
    assert value < 0.0 and np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_regularizers_in_latent_regime_match_fd_oracle(toy_pair):
    from dckit import fit_linear_autoencoder
    from dckit.condense import _matching_problem

    t, s = toy_pair
    cfg = small_cfg("dm", regime="latent_latent", autoencoder=fit_linear_autoencoder(t, 2),
                    regularizers={name: 0.1 for name in ("rep", "div", "inter", "intra", "con", "cos", "dis")})
    v0, objective, *_ = _matching_problem(cfg, t, s)
    _, grad, extra = objective(v0, 0)
    fd = central_diff(lambda u: objective(u, 0)[0], v0)
    assert extra["reg_inter"] > 0.0 and np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_regularizer_sweeps_do_not_grow_with_synthetic_size(monkeypatch):
    condense_module = importlib.import_module("dckit.condense")
    d = two_blobs(n_per_class=12, dim=3, separation=3.0, seed=1)
    t = LabeledDataset(np.clip(d.features / 8 + 0.5, 0, 1), d.labels, 2)
    counts = []
    for per_class in (1, 3):
        rows = [*np.flatnonzero(t.labels == 0)[:per_class], *np.flatnonzero(t.labels == 1)[:per_class]]
        s = SyntheticDataset(t.features[rows], t.labels[rows], per_class_size=per_class, origin="init")
        calls = []
        forward, stacked = Mlp._forward, condense_module._forward_sweep
        monkeypatch.setattr(Mlp, "_forward", lambda self, x: calls.append("member") or forward(self, x))
        monkeypatch.setattr(condense_module, "_forward_sweep", lambda *a: calls.append("stack") or stacked(*a))
        cfg = MethodConfig(method="dm", ensemble=3, hidden=(4,), regularizers={"inter": 0.1, "con": 0.1}, seed=0)
        matching_value_and_grad(cfg, t, s)
        monkeypatch.undo()
        counts.append((calls.count("member"), calls.count("stack")))
    # forward sweeps. dm: per member one T forward per class, then one S forward of the class stack
    # through every member; inter one forward on the first member, con one per member
    assert counts == [(3 * 2 + 1 + 3, 1)] * 2


@pytest.mark.parametrize("method", ["dm", "moment", "sam"])
def test_feature_matching_s_sweeps_do_not_grow_with_class_count(method, monkeypatch):
    condense_module = importlib.import_module("dckit.condense")
    rng = np.random.default_rng(5)
    for classes, ensemble in itertools.product((2, 4), (2, 4)):
        rows = rng.uniform(0.0, 1.0, (4 * classes, 3))
        labels = np.repeat(np.arange(classes), 4)
        t = LabeledDataset(rows, labels, classes)
        keep = np.arange(4 * classes) % 4 < 2  # the first 2 rows of each class
        s = SyntheticDataset(rows[keep], labels[keep], per_class_size=2, origin="init")
        calls = []
        for owner, name in ((Mlp, "_forward"), (Mlp, "forward_batch"), (Mlp, "feature_input_vjp"),
                            (condense_module, "_forward_sweep"), (condense_module, "_reverse_sweep")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
        matching_value_and_grad(MethodConfig(method=method, ensemble=ensemble, hidden=(4,), seed=0), t, s)
        monkeypatch.undo()
        # per member one T forward per class, then one forward and one reverse sweep of S's class
        # stack through every member at once
        assert calls.count("_forward") == calls.count("forward_batch") == ensemble * classes
        assert calls.count("_forward_sweep") == calls.count("_reverse_sweep") == 1
        assert calls.count("feature_input_vjp") == 0


def per_member_objective(cfg, t, s, v, step):
    """A matching objective's value and gradient at ``step`` as a loop over the members of the
    ensemble drawn at the last refresh, each member's terms added into ``grad[rows]`` in the
    ensemble's order. dm, moment and sam: per member its T statistics, S's features and pullback
    from ``feature_input_vjp`` of S's class stack, and ``_feature_gap``. gm: per member T's class
    gradients through ``backward(out=, input_part=False)``, clipped and noised under dp_grad, and
    S's through ``backward(tangent=True)`` and ``_gradient_gap``, then ``_curvature_penalty``
    under curvature. The reference for the engine's stacked sweep and its one scatter."""
    to_matched, _, fwd, regime_vjp, _ = regime_maps(cfg.regime, cfg.autoencoder)
    t_matched, s_matched = to_matched(t.features), fwd(v)
    tr = _Transforms(cfg, step)
    refresh = step - step % cfg.refresh
    members = _make_ensemble(cfg, tr.output_dim(t_matched.shape[1]), t.class_count, t_matched, t.labels, refresh)
    rows = np.stack(per_class_partition(s))
    t_side = [tr.apply(t_matched[p], t.labels[p], "t", [y])[:2] for y, p in enumerate(per_class_partition(t))]
    rs, ls, vjp_s = tr.apply(s_matched[rows], s.labels[rows], "s", range(t.class_count))
    sigma, rng_grad = cfg.variant("dp_grad")["sigma"], derived_rng(cfg.seed, f"dp_grad:{refresh}")
    value, grad = 0.0, np.zeros_like(s_matched)
    for m in members:
        if cfg.method == "gm":
            stats = np.empty((t.class_count, m.param_count))
            for stat, (r, labels) in zip(stats, t_side):
                m.backward(r, labels, cfg.loss, out=stat, input_part=False)
                if sigma > 0:
                    stat /= max(np.linalg.norm(stat), 1.0)
                    stat += sigma * rng_grad.normal(size=stat.shape)
            _, grads, _, tangent = m.backward(rs, ls, cfg.loss, tangent=True, input_part=False)
            values, upstream = _gradient_gap("contrastive" in cfg.variants, stats, grads)
            g = tangent(upstream)
        else:
            per_class = (_feature_stats(cfg.method, m.forward_batch(r)[1]) for r, _ in t_side)
            feats, pullback = m.feature_input_vjp(rs)
            values, upstream = _feature_gap(cfg.method, [np.stack(stat) for stat in zip(*per_class)], feats)
            g = pullback(upstream)
        for val in values:
            value += val / len(members)
        grad[rows] += vjp_s(g) / len(members)
        if "curvature" in cfg.variants:
            rho = cfg.variants["curvature"]["rho"]
            lam, grad_lam = _curvature_penalty(m, t_matched, t.labels, s_matched, s.labels, cfg)
            value += 0.5 * rho * lam / len(members)
            grad[rows] += (0.5 * rho / len(members)) * grad_lam[rows]
    return value, regime_vjp(grad)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("method", ["dm", "moment", "sam"])
@pytest.mark.parametrize("shape", [(2, 1, 2, (32,)), (10, 2, 64, (32,)), (10, 10, 32, (64, 64)),
                                   (10, 10, 64, (128,))], ids=["2x1x2-32", "10x2x64-32", "10x10x32-64x64",
                                                               "10x10x64-128"])
def test_stacked_feature_objective_equals_per_member_loop(shape, method, activation):
    # the one stacked sweep through every member, into the run's workspace, keeps the bits of the
    # per-member loop: on cached steps, after a refresh, and under siamese, which redraws T each step
    classes, m, d, hidden = shape
    rng = np.random.default_rng(d)
    rows = rng.uniform(0.0, 1.0, ((m + 3) * classes, d))
    labels = np.repeat(np.arange(classes), m + 3)
    t = LabeledDataset(rows, labels, classes)
    s = SyntheticDataset(rows[np.arange(len(rows)) % (m + 3) < m], labels[:: m + 3].repeat(m), m, origin="init")
    variants = [{}] + ([{"siamese": {"op": "shift"}}] if d > 2 else [])
    for variant in variants:
        image = dict(image_shape=(1, 8, d // 8), variants=variant) if variant else {}
        cfg = MethodConfig(method=method, ensemble=3, hidden=hidden, activation=activation, refresh=2, seed=4,
                           **image)
        v0, objective, *_ = _matching_problem(cfg, t, s)
        for step in range(4):
            v = np.clip(v0 + 0.01 * step * rng.normal(size=v0.shape), 0.0, 1.0)
            value, grad, _ = objective(v, step)
            want_value, want_grad = per_member_objective(cfg, t, s, v, step)
            assert value == want_value and np.array_equal(grad, want_grad)


@pytest.mark.parametrize("regime", ["input_input", "input_latent"])
@pytest.mark.parametrize("variants", [{}, {"contrastive": {}}, {"dp_grad": {"sigma": 0.5}},
                                      {"curvature": {"rho": 0.1}}], ids=["per_class", "contrastive", "dp_grad",
                                                                         "curvature"])
def test_gm_objective_equals_per_member_loop(variants, regime):
    # every member's terms, the curvature penalty's among them, added into one buffer and
    # scattered once keep the bits of adding each term into S's rows in the ensemble's order,
    # on cached steps and after a refresh
    from dckit import fit_linear_autoencoder

    rng = np.random.default_rng(11)
    rows = rng.uniform(0.0, 1.0, (15, 4))
    labels = np.repeat(np.arange(3), 5)
    t = LabeledDataset(rows, labels, 3)
    s = SyntheticDataset(rows[np.arange(15) % 5 < 2], np.repeat(np.arange(3), 2), 2, origin="init")
    latent = dict(autoencoder=fit_linear_autoencoder(t, 2)) if regime == "input_latent" else {}
    cfg = MethodConfig(method="gm", ensemble=3, hidden=(5,), refresh=2, curv_iters=3, regime=regime,
                       variants=variants, seed=6, **latent)
    v0, objective, _, project, _ = _matching_problem(cfg, t, s)
    for step in range(4):
        v = project(v0 + 0.01 * step * rng.normal(size=v0.shape))
        value, grad, _ = objective(v, step)
        want_value, want_grad = per_member_objective(cfg, t, s, v, step)
        assert value == want_value and np.array_equal(grad, want_grad)


@pytest.mark.parametrize("name", ["inter", "intra", "con", "cos", "dis", "proj"])
def test_model_regularizers_reject_multiform(name):
    image = dict(image_shape=(1, 4, 4), variants={"multiform": {"r": 2}})
    with pytest.raises(ConfigError, match=rf"'{name}'.*variants\.multiform"):
        MethodConfig(method="dm", regularizers={name: 0.1}, **image)
    MethodConfig(method="dm", regularizers={"rep": 0.1, "div": 0.1}, **image)


def test_regularized_condense_logs_terms(toy_pair):
    t, s = toy_pair
    cfg = small_cfg("dm", outer_steps=2, regularizers={"rep": 0.1, "div": 0.1})
    _, log = condense(cfg, t, s)
    assert "reg_rep" in log.rows[0] and "reg_div" in log.rows[0]
    assert log.rows[0]["objective"] == pytest.approx(
        log.rows[0]["method_value"] + 0.1 * log.rows[0]["reg_rep"] + 0.1 * log.rows[0]["reg_div"], rel=1e-12)


# --- privacy ---------------------------------------------------------------------------


def test_dp_sigma_formula():
    got = dp_noise_calibration(1.0, 1e-5, 1.0)
    assert got == pytest.approx(math.sqrt(2.0 * math.log(1.25e5)), abs=1e-12)
    assert got == pytest.approx(4.844805262605389, abs=1e-9)


def test_dp_sigma_inverse_in_eps():
    a = dp_noise_calibration(1.0, 1e-5, 1.0)
    b = dp_noise_calibration(2.0, 1e-5, 1.0)
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_dp_invalid_params():
    with pytest.raises(DomainError):
        dp_noise_calibration(0.0, 1e-5, 1.0)
    with pytest.raises(DomainError):
        dp_noise_calibration(1.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        dp_noise_calibration(1.0, 1e-5, 0.0)


def test_dp_grad_bookkeeping(toy_pair):
    t, s = toy_pair
    cfg = small_cfg("gm", outer_steps=4, refresh=2, variants={"dp_grad": {"sigma": 0.5}})
    _, log = condense(cfg, t, s)
    meta = log.meta["dp_grad"]
    assert meta["sigma"] == 0.5 and meta["clip_norm"] == 1.0
    assert meta["mechanism_invocations"] == 2 * 2 * 2  # refreshes x ensemble x classes


def test_dp_merf_noise_changes_target(toy_pair):
    t, s = toy_pair
    rff = KernelSpec("random_feature", scale=1.0, feature_dim=32, seed=0)
    base = MethodConfig(method="mmd", outer_steps=3, outer_lr=0.1, kernel=rff, seed=2)
    noisy = MethodConfig(method="mmd", outer_steps=3, outer_lr=0.1, kernel=rff, seed=2,
                         variants={"dp_merf": {"sigma": 0.8}})
    _, log_a = condense(base, t, s)
    _, log_b = condense(noisy, t, s)
    assert log_a.rows[0]["objective"] != log_b.rows[0]["objective"]


# --- image variants and proxies inside condense ---------------------------------------


def image_fixture(rng, n_per_class=6, c=1, h=4, w=4):
    n = 2 * n_per_class
    rows = rng.uniform(0.0, 1.0, (n, c * h * w))
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    t = LabeledDataset(rows, labels, 2)
    s = SyntheticDataset(rows[[0, n_per_class]], labels[[0, n_per_class]], per_class_size=1, origin="init")
    return t, s, (c, h, w)


@pytest.mark.parametrize("variant,params", [
    ("multiform", {"r": 2}),
    ("channel_multiform", {}),
    ("siamese", {"op": "shift"}),
])
def test_image_variants_run_and_reduce(variant, params, rng):
    t, s, shape = image_fixture(rng)
    cfg = MethodConfig(method="gm", outer_steps=3, outer_lr=0.01, ensemble=1, hidden=(6,),
                       activation="tanh", image_shape=shape, variants={variant: params}, seed=0)
    out, log = condense(cfg, t, s)
    assert np.all(np.isfinite(out.features))
    assert len(log.rows) == 3


def test_dp_grad_noises_t_gradients_under_image_variants(rng):
    t, s, shape = image_fixture(rng)
    # siamese redraws the T rows every step, so the T gradients are drawn at every step;
    # multiform does not depend on the step, so they are drawn once per ensemble refresh
    for variant, params, draws in (("siamese", {"op": "shift"}, 4), ("multiform", {"r": 2}, 2)):
        runs = {}
        for sigma in (0.0, 5.0):
            cfg = MethodConfig(method="gm", outer_steps=4, outer_lr=0.01, ensemble=2, refresh=2, hidden=(6,),
                               activation="tanh", image_shape=shape, seed=0,
                               variants={variant: params, "dp_grad": {"sigma": sigma}})
            runs[sigma] = condense(cfg, t, s)[1]
        assert not np.array_equal(runs[0.0].objectives(), runs[5.0].objectives())
        meta = runs[5.0].meta["dp_grad"]
        assert meta["mechanism_invocations"] == draws * 2 * 2  # draws x ensemble x classes
        assert meta["refreshes"] == draws


def test_gm_multiform_sweeps_do_not_grow_with_class_count(rng, monkeypatch):
    models = importlib.import_module("dckit.models")
    for classes in (2, 5):
        rows = rng.uniform(0.0, 1.0, (3 * classes, 16))
        labels = np.repeat(np.arange(classes), 3)
        t = LabeledDataset(rows, labels, classes)
        s = SyntheticDataset(rows[::3], labels[::3], per_class_size=1, origin="init")
        cfg = MethodConfig(method="gm", outer_steps=4, outer_lr=0.01, ensemble=2, refresh=2, hidden=(6,),
                           activation="tanh", image_shape=(1, 4, 4), variants={"multiform": {"r": 2}}, seed=0)
        v0, objective, *_ = _matching_problem(cfg, t, s)
        calls = []
        for owner, name in ((Mlp, "backward"), (models, "_forward_sweep"), (models, "_reverse_sweep"),
                            (models, "_tangent_sweep")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n + ("+tangent" if k.get("tangent") else "")) or _f(*a, **k))
        for step in range(4):
            calls.clear()
            objective(v0, step)
            t_backward = 2 * classes if step % 2 == 0 else 0  # T gradients only on refresh steps
            # per member (2), one S forward, one reverse and one tangent sweep over the class stack
            assert calls.count("backward") == t_backward
            assert calls.count("backward+tangent") == calls.count("_tangent_sweep") == 2
            assert calls.count("_forward_sweep") == calls.count("_reverse_sweep") == t_backward + 2
        monkeypatch.undo()


@pytest.mark.parametrize("contrastive", [False, True], ids=["per-class", "contrastive"])
def test_gm_step_allocates_nothing_class_gradient_sized(contrastive):
    # img8-gm's shapes: 10 classes of 1x8x8 images under multiform r 2 (320 inputs), 2 rows per class,
    # hidden [32], 3 members (P 10,602). After the refresh step, a step's peak stays below one (C, P)
    # float array (the allocating step made two per member: the S gradients and their gap)
    rng = np.random.default_rng(0)
    t = LabeledDataset(rng.uniform(size=(40, 64)), np.repeat(np.arange(10), 4), 10)
    s = SyntheticDataset(t.features[::2], t.labels[::2], per_class_size=2, origin="init")
    variants = {"multiform": {"r": 2}, **({"contrastive": {}} if contrastive else {})}
    cfg = MethodConfig(method="gm", outer_steps=4, outer_lr=0.01, ensemble=3, refresh=25, hidden=(32,),
                       image_shape=(1, 8, 8), variants=variants, seed=1)
    v0, objective, *_ = _matching_problem(cfg, t, s)
    objective(v0, 0)
    peaks = []
    for step in (1, 2):
        tracemalloc.start()
        try:
            objective(v0, step)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 10 * 10602 * 8


def test_image_variant_gradient_matches_fd(rng):
    t, s, shape = image_fixture(rng, n_per_class=4)
    cfg = MethodConfig(method="dm", outer_steps=1, outer_lr=0.01, ensemble=1, hidden=(5,),
                       activation="tanh", image_shape=shape, variants={"multiform": {"r": 2}}, seed=4)
    value, grad = matching_value_and_grad(cfg, t, s)
    h = 1e-5
    fd = np.zeros_like(s.features)
    for j in range(s.features.shape[0]):
        for k in range(0, s.features.shape[1], 3):  # sample coordinates
            fp, fm = s.features.copy(), s.features.copy()
            fp[j, k] += h
            fm[j, k] -= h
            vp, _ = matching_value_and_grad(cfg, t, replace(s, features=fp))
            vm, _ = matching_value_and_grad(cfg, t, replace(s, features=fm))
            fd[j, k] = (vp - vm) / (2 * h)
            assert fd[j, k] == pytest.approx(grad[j, k], rel=1e-3, abs=1e-7)


def test_siamese_op_applied_once_per_transform(rng, monkeypatch):
    augment = importlib.import_module("dckit.augment")
    condense_module = importlib.import_module("dckit.condense")  # the package exports a same-named function
    t, s, shape = image_fixture(rng)
    calls = []

    def counted(data, op, params):
        calls.append(op)
        return original(data, op, params)

    original = augment._apply_siamese
    monkeypatch.setattr(augment, "_apply_siamese", counted)
    monkeypatch.setattr(condense_module, "_apply_siamese", counted, raising=False)
    cfg = MethodConfig(method="dm", outer_steps=3, outer_lr=0.01, ensemble=1, hidden=(6,), activation="tanh",
                       image_shape=shape, variants={"siamese": {"op": "flip"}}, seed=0)
    condense(cfg, t, s)
    assert len(calls) == 3 * (2 + 1)  # outer steps x (T classes + S's class stack)


def test_kmeans_proxy_runs(toy_pair):
    t, s = toy_pair
    cfg = small_cfg("gm", outer_steps=4, variants={"kmeans_proxy": {"k": 3, "period": 2}})
    _, log = condense(cfg, t, s)
    assert len(log.rows) == 4


def test_latent_regime_condense(rng):
    d = two_blobs(n_per_class=30, dim=3, separation=6.0, seed=2)
    from dckit import fit_linear_autoencoder, init_synthetic

    ae = fit_linear_autoencoder(d, 2)
    s0 = init_synthetic(d, 1, "subsample", seed=0)
    cfg = MethodConfig(method="mmd", outer_steps=20, outer_lr=0.05, kernel=None,
                       regime="latent_latent", autoencoder=ae, seed=1)
    out, log = condense(cfg, d, s0)
    # latent-optimized synthetic points decode into the principal subspace
    rec = ae.decode(ae.encode(out.features))
    assert np.max(np.abs(rec - out.features)) <= 1e-10
    assert log.rows[-1]["objective"] <= log.rows[0]["objective"]
