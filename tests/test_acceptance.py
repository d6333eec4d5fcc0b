"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance is pinned here. Oracles are independent of the code paths they
check: explicit pair loops for MMD, permutation enumeration for W1, central
finite differences for gradients, exhaustive subsets for k-center.
"""
import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from dckit import (
    EvalConfig,
    KernelSpec,
    LabeledDataset,
    Mlp,
    ModelBatch,
    SyntheticDataset,
    cig_ridge_value_and_grad,
    condense,
    gaussian_spec,
    generalization_discrepancy_finite,
    identity_autoencoder,
    init_synthetic,
    kcenter_covering,
    loss_discrepancy,
    mmd_squared,
    random_feature_map,
    regime_objective,
    two_blobs,
    wasserstein1,
)
from dckit.augment import ImageBatch, multi_formation, channel_multi_formation
from dckit.cli import main
from dckit.condense import MethodConfig, kmeans_coreset, tuned_config
from dckit.data import train_eval_split
from dckit.harness import _train_stack
from dckit.seeding import derive_seed
from dckit.spaces import REGIMES
from tests.conftest import matching_value_and_grad, write_csv


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_mmd_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_pair = 0.0
    worst_embed = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 6))
        t = rng.uniform(0.0, 1.0, (int(rng.integers(1, 11)), n))
        s = rng.uniform(0.0, 1.0, (int(rng.integers(1, 11)), n))
        gamma = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.2, 2.0))
        spec = KernelSpec("gamma_exponential", gamma=gamma, scale=c)
        # independent oracle: explicit double sums over exp(-c r^gamma)
        k = lambda a, b: np.exp(-c * np.linalg.norm(a - b) ** gamma)
        tt = np.mean([k(a, b) for a in t for b in t])
        ts = np.mean([k(a, b) for a in t for b in s])
        ss = np.mean([k(a, b) for a in s for b in s])
        worst_pair = max(worst_pair, abs(mmd_squared(spec, t, s) - (tt - 2 * ts + ss)))
        if trial % 2 == 0:
            rf = KernelSpec("random_feature", scale=c, feature_dim=64, seed=trial)
            pt = np.mean([random_feature_map(rf, row) for row in t], axis=0)
            ps = np.mean([random_feature_map(rf, row) for row in s], axis=0)
            worst_embed = max(worst_embed, abs(mmd_squared(rf, t, s) - float((pt - ps) @ (pt - ps))))
    elapsed = time.time() - start
    assert worst_pair <= 1e-10
    assert worst_embed <= 1e-10
    assert elapsed < 10.0
    _report(1, f"double-sum err {worst_pair:.2e}, embedding err {worst_embed:.2e}, {elapsed:.1f}s")


def test_criterion_2_w1_oracle_and_axioms():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, int(rng.integers(1, 4))))
        b = rng.normal(size=(n, a.shape[1]))
        d = cdist(a, b)
        brute = min(sum(d[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))) / n
        worst = max(worst, abs(wasserstein1(a, b) - brute))
    assert worst <= 1e-9
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        a = rng.normal(size=(int(rng.integers(1, 5)), dim))
        b = rng.normal(size=(int(rng.integers(1, 5)), dim))
        c = rng.normal(size=(int(rng.integers(1, 5)), dim))
        assert abs(wasserstein1(a, b) - wasserstein1(b, a)) <= 1e-9
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, f"permutation-oracle err {worst:.2e}, axioms on 100 triples, {elapsed:.1f}s")


def _fd_outer(cfg, t, s, h=1e-5):
    fd = np.zeros_like(s.features)
    for j in range(s.features.shape[0]):
        for k in range(s.features.shape[1]):
            fp, fm = s.features.copy(), s.features.copy()
            fp[j, k] += h
            fm[j, k] -= h
            vp, _ = matching_value_and_grad(cfg, t, replace(s, features=fp))
            vm, _ = matching_value_and_grad(cfg, t, replace(s, features=fm))
            fd[j, k] = (vp - vm) / (2 * h)
    return fd


def test_criterion_3_gradient_correctness():
    start = time.time()
    # hand-written network gradients against central finite differences
    worst_net = 0.0
    for case in range(20):
        rng = np.random.default_rng(100 + case)
        widths = [3, int(rng.integers(3, 7)), 2]
        act = "tanh" if case % 2 == 0 else "relu"
        loss = "cross_entropy" if case % 3 else "mse"
        m = Mlp.init(widths, act, seed=case)
        x = rng.uniform(0.05, 0.95, (4, 3))
        y = rng.integers(0, 2, 4)
        _, gp, gx = m.backward(x, y, loss)
        h = 1e-5
        theta = m.flat_params()
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (m.with_params(tp).mean_loss(x, y, loss) - m.with_params(tm).mean_loss(x, y, loss)) / (2 * h)
            worst_net = max(worst_net, abs(fd - gp[i]) / (abs(fd) + 1e-8))
        for b in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[b, j] += h
                xm[b, j] -= h
                fd = (m.mean_loss(xp, y, loss) - m.mean_loss(xm, y, loss)) / (2 * h)
                worst_net = max(worst_net, abs(fd - gx[b, j]) / (abs(fd) + 1e-8))
    assert worst_net <= 1e-4

    # analytic outer gradients of the matching objectives and gamma-exponential krr
    worst_outer = {}
    for method in ("dm", "gm", "mmd", "moment", "krr"):
        worst = 0.0
        for case in range(20):
            rng = np.random.default_rng(1000 * hash(method) % 7919 + case)
            n = int(rng.integers(2, 4))
            t = LabeledDataset(rng.uniform(0.05, 0.95, (8, n)),
                               np.array([0] * 4 + [1] * 4), 2)
            s = SyntheticDataset(rng.uniform(0.1, 0.9, (2, n)), np.array([0, 1]),
                                 per_class_size=1, origin="x")
            kw = dict(outer_steps=1, outer_lr=1e-6, ensemble=2, hidden=(5,),
                      activation="tanh", seed=case)
            if method in ("mmd", "krr"):
                kw["kernel"] = gaussian_spec(float(rng.uniform(0.4, 1.6)))
            if method == "krr":
                kw["ridge_lambda"] = 0.1
            cfg = MethodConfig(method=method, **kw)
            if method == "krr":
                from dckit.condense import _krr_fit
                from dckit.data import one_hot

                y_t = one_hot(t.labels, 2)
                y_s = one_hot(s.labels, 2)
                _, grad = _krr_fit(cfg.kernel, s.features, y_s, 0.1)[0](t.features, y_t)
                h = 1e-5
                fd = np.zeros_like(s.features)
                for j in range(2):
                    for k in range(n):
                        sp, sm = s.features.copy(), s.features.copy()
                        sp[j, k] += h
                        sm[j, k] -= h
                        fd[j, k] = (_krr_fit(cfg.kernel, sp, y_s, 0.1)[0](t.features, y_t)[0]
                                    - _krr_fit(cfg.kernel, sm, y_s, 0.1)[0](t.features, y_t)[0]) / (2 * h)
            else:
                _, grad = matching_value_and_grad(cfg, t, s)
                fd = _fd_outer(cfg, t, s)
            worst = max(worst, float(np.max(np.abs(fd - grad) / (np.abs(fd) + 1e-6))))
        worst_outer[method] = worst
        assert worst <= 1e-4, f"{method}: {worst}"
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(3, "net grads "
            f"{worst_net:.2e}; outer " + " ".join(f"{m}={v:.2e}" for m, v in worst_outer.items())
            + f", {elapsed:.1f}s")


def test_criterion_4_hierarchy_bound():
    rng = np.random.default_rng(4)
    violations = 0
    for trial in range(100):
        n = int(rng.integers(2, 4))
        rows = int(rng.integers(4, 10))
        labels = rng.integers(0, 2, rows)
        labels[:2] = [0, 1]
        t = LabeledDataset(rng.uniform(size=(rows, n)), labels, 2)
        s_rows = int(rng.integers(2, 6))
        s_labels = rng.integers(0, 2, s_rows)
        s = LabeledDataset(rng.uniform(size=(s_rows, n)), s_labels, 2)
        size = int(rng.integers(2, 17))
        batch = ModelBatch(tuple(Mlp.init((n, 6, 2), "tanh", seed=trial * 50 + i) for i in range(size)))
        gd, _, _ = generalization_discrepancy_finite(batch, t, s)
        if gd > 2.0 * loss_discrepancy(batch, t, s) + 1e-9:
            violations += 1
    assert violations == 0
    _report(4, "gd <= 2 dd on 100 random finite-hypothesis triples, zero violations")


def test_criterion_5_cig_equals_finite_differences():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        c = int(rng.integers(1, 3))
        s = rng.uniform(0.1, 0.9, (m, n))
        y_s = rng.normal(size=(m, c))
        x_t = rng.uniform(size=(7, n))
        y_t = rng.normal(size=(7, c))
        lam = float(rng.uniform(0.1, 1.0))
        _, grad = cig_ridge_value_and_grad(s, y_s, x_t, y_t, lam)
        h = 1e-6
        fd = np.zeros_like(s)
        for j in range(m):
            for k in range(n):
                sp, sm = s.copy(), s.copy()
                sp[j, k] += h
                sm[j, k] -= h
                fd[j, k] = (cig_ridge_value_and_grad(sp, y_s, x_t, y_t, lam)[0]
                            - cig_ridge_value_and_grad(sm, y_s, x_t, y_t, lam)[0]) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - grad) / (np.abs(fd) + 1e-8))))
    assert worst <= 1e-4
    _report(5, f"implicit vs finite differences, worst rel err {worst:.2e} over 20 instances")


def test_criterion_6_kcenter_quality():
    idx, radius = kcenter_covering(np.array([0.0, 4.0, 10.0]), 1)
    assert radius == 6.0 and idx.tolist() == [1]
    worst_ratio = 0.0
    for trial in range(50):
        rng = np.random.default_rng(600 + trial)
        pts = rng.uniform(size=(int(rng.integers(4, 13)), 2))
        m = int(rng.integers(1, 4))
        _, greedy = kcenter_covering(pts, m, method="greedy")
        _, exact = kcenter_covering(pts, m, method="exact")
        ratio = greedy / exact if exact > 0 else 1.0
        worst_ratio = max(worst_ratio, ratio)
        assert greedy <= 2.0 * exact + 1e-12
    _report(6, f"fixture d_H=6 exact; greedy/exact worst ratio {worst_ratio:.3f} over 50 instances")


def test_criterion_7_desk_scale_condensation():
    start = time.time()
    methods = ("dm", "gm", "mmd", "krr", "kcenter", "kmeans")
    eval_cfg = EvalConfig(repeats=3, epochs=200, hidden_architectures=((16,),))
    results = {m: [] for m in methods}
    for seed in range(5):
        d = two_blobs(n_per_class=1000, dim=2, separation=6.0, seed=700 + seed)
        t_train, t_eval = train_eval_split(d, 0.2, seed=derive_seed(seed, "split"))
        s0 = init_synthetic(t_train, 1, "subsample", seed=derive_seed(seed, "init"))
        eval_seeds = [derive_seed(seed, f"eval:{r}") for r in range(3)]
        base_accs = [m.accuracy(t_eval.features, t_eval.labels)
                     for m in _train_stack((16,), t_train, eval_cfg, eval_seeds)]
        baseline = float(np.mean(base_accs))
        assert baseline >= 0.99, f"seed {seed}: baseline {baseline}"
        for method in methods:
            if method in ("kcenter", "kmeans"):
                cfg = MethodConfig(method=method, seed=derive_seed(seed, "condense"))
            else:
                cfg = tuned_config(method, seed=derive_seed(seed, "condense"))
            s_star, _ = condense(cfg, t_train, s0)
            accs = [m.accuracy(t_eval.features, t_eval.labels)
                    for m in _train_stack((16,), s_star, eval_cfg, eval_seeds)]
            acc = float(np.mean(accs))
            results[method].append((acc, baseline))
            assert acc >= baseline - 0.05, f"seed {seed} {method}: {acc} vs baseline {baseline}"
    elapsed = time.time() - start
    assert elapsed < 300.0
    summary = " ".join(f"{m}={min(a for a, _ in v):.3f}" for m, v in results.items())
    _report(7, f"worst accuracies {summary}, baselines >= 0.99, {elapsed:.0f}s")


def test_criterion_8_regime_consistency():
    rng = np.random.default_rng(8)
    t = rng.uniform(size=(12, 3))
    s = rng.uniform(size=(4, 3))
    ae = identity_autoencoder(3)
    vals = [regime_objective(r, ae, t, s, disc="mmd", kernel=gaussian_spec(1.0)) for r in REGIMES]
    spread = max(vals) - min(vals)
    assert spread <= 1e-10
    # rank-deficient encoder: a null-space shift is invisible in latent space
    from dckit import LinearAutoencoder

    enc = LinearAutoencoder(mean=np.zeros(2), basis=np.array([[1.0], [0.0]]))
    s1 = rng.uniform(size=(4, 2))
    s2 = s1 + np.array([0.0, 0.3])
    kern = gaussian_spec(1.0)
    latent_gap = mmd_squared(kern, enc.encode(s1), enc.encode(s2))
    input_gap = mmd_squared(kern, s1, s2)
    assert latent_gap <= 1e-12
    assert input_gap > 1e-3
    _report(8, f"identity-encoder spread {spread:.1e}; null-space pair latent {latent_gap:.1e} "
               f"vs input {input_gap:.3f}")


def test_criterion_9_degeneracy_ladders(rng):
    xt = rng.uniform(0, 1, (12, 3))
    yt = np.array([0] * 6 + [1] * 6)
    t = LabeledDataset(xt, yt, 2)
    s0 = SyntheticDataset(rng.uniform(0, 1, (4, 3)), np.array([0, 0, 1, 1]), per_class_size=2, origin="i")

    rff = KernelSpec("random_feature", scale=1.0, feature_dim=64, seed=9)
    a = condense(MethodConfig(method="dm", outer_steps=6, outer_lr=0.3, kernel=rff, seed=5,
                              variants={"dp_merf": {"sigma": 0.0}}), t, s0)
    b = condense(MethodConfig(method="mmd", outer_steps=6, outer_lr=0.3, kernel=rff, seed=5), t, s0)
    assert np.array_equal(a[0].features, b[0].features)
    assert a[1].objectives().tolist() == b[1].objectives().tolist()

    a = condense(MethodConfig(method="gm", outer_steps=5, outer_lr=0.2, ensemble=2, hidden=(8,),
                              activation="tanh", seed=4, variants={"dp_grad": {"sigma": 0.0}}), t, s0)
    b = condense(MethodConfig(method="gm", outer_steps=5, outer_lr=0.2, ensemble=2, hidden=(8,),
                              activation="tanh", seed=4), t, s0)
    assert np.array_equal(a[0].features, b[0].features)
    assert a[1].objectives().tolist() == b[1].objectives().tolist()

    a = condense(MethodConfig(method="krr", outer_steps=5, outer_lr=0.5, kernel=gaussian_spec(1.0),
                              ridge_lambda=1e-3, seed=2, variants={"ridge_robust": {"eps": 0.0}}), t, s0)
    b = condense(MethodConfig(method="krr", outer_steps=5, outer_lr=0.5, kernel=gaussian_spec(1.0),
                              ridge_lambda=1e-3, seed=2), t, s0)
    assert np.array_equal(a[0].features, b[0].features)
    assert a[1].objectives().tolist() == b[1].objectives().tolist()

    s_small = SyntheticDataset(xt[[0, 6]], yt[[0, 6]], per_class_size=1, origin="i")
    a = condense(MethodConfig(method="robdc", outer_steps=3, outer_lr=0.1, hidden=(6,), activation="tanh",
                              inner_steps=3, inner_lr=0.1, seed=8,
                              variants={"robust_outer": {"eps": 0.0, "steps": 3}}), t, s_small)
    b = condense(MethodConfig(method="bptt", outer_steps=3, outer_lr=0.1, hidden=(6,), activation="tanh",
                              inner_steps=3, inner_lr=0.1, seed=8), t, s_small)
    assert a[1].objectives().tolist() == b[1].objectives().tolist()

    t1 = LabeledDataset(xt[:6], np.zeros(6, dtype=int), 1)
    s1 = SyntheticDataset(rng.uniform(0, 1, (2, 3)), np.zeros(2, dtype=int), per_class_size=2, origin="i")
    a = condense(MethodConfig(method="gm", outer_steps=5, outer_lr=0.2, ensemble=2, hidden=(8,),
                              activation="tanh", seed=4, variants={"contrastive": {}}), t1, s1)
    b = condense(MethodConfig(method="gm", outer_steps=5, outer_lr=0.2, ensemble=2, hidden=(8,),
                              activation="tanh", seed=4), t1, s1)
    assert np.array_equal(a[0].features, b[0].features)
    assert a[1].objectives().tolist() == b[1].objectives().tolist()
    _report(9, "dp_merf(0)=mmd-rff, dp_grad(0)=gm, ridge_robust(0)=krr, robdc(0)=bptt, "
               "contrastive(C=1)=per-class, all byte-identical")


def test_criterion_10_formation_operators(rng):
    checked = 0
    for (b, c, h, w, r) in [(1, 1, 2, 2, 1), (2, 3, 8, 8, 2), (1, 2, 6, 6, 3), (3, 1, 4, 8, 2), (2, 2, 4, 4, 4)]:
        x = ImageBatch(rng.uniform(0, 1, (b, c, h, w)))
        out = multi_formation(x, r)
        assert out.shape == (b, c * (r * r + 1), h, w)
        ch = channel_multi_formation(x, seed=checked)
        assert ch.shape == (4 * b, c, h, w)
        checked += 1
    a = ImageBatch(rng.uniform(0, 1, (2, 3, 4, 4)))
    b2 = ImageBatch(rng.uniform(0, 1, (2, 3, 4, 4)))
    al, be = 0.35, 0.4
    combo = ImageBatch(al * a.data + be * b2.data)
    gap = np.max(np.abs(multi_formation(combo, 2).data
                        - (al * multi_formation(a, 2).data + be * multi_formation(b2, 2).data)))
    assert gap <= 1e-12
    _report(10, f"shape contracts on {checked} grids; linearity gap {gap:.1e}")


def test_criterion_11_end_to_end_determinism(tmp_path):
    d = two_blobs(n_per_class=40, dim=2, separation=6.0, seed=11)
    data_path = tmp_path / "blobs.csv"
    write_csv(d, data_path)
    cfg = {
        "dataset": str(data_path),
        "per_class": 1,
        "seed": 21,
        "method": {"method": "dm", "outer_steps": 12, "outer_lr": 0.02, "ensemble": 2,
                   "hidden": [8], "activation": "tanh"},
        "eval": {"repeats": 2, "epochs": 50, "hidden_architectures": [[8]]},
    }
    results = []
    for name in ("r1", "r2"):
        cfg["out_dir"] = str(tmp_path / name)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["condense", "--config", str(cfg_path)]) == 0
        results.append(tmp_path / name)
    for artifact in ("synthetic.csv", "report.json", "steps.csv"):
        assert (results[0] / artifact).read_bytes() == (results[1] / artifact).read_bytes()
    _report(11, "repeated CLI condense runs produced byte-identical synthetic CSVs and reports")
