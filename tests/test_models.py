import hashlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dckit import Mlp, TrainConfig, pgd_attack, sgd_train, sgd_train_stack, two_blobs
from dckit.errors import ConfigError, DivergenceError, DomainError, ShapeError, ValidationError
from dckit.condense import _unroll
from dckit.models import (_FlatSgd, _forward_sweep, _loss_value_and_grad, _loss_workspace, _reverse_sweep,
                          _tangent_sweep, epoch_batches, loss_hvp, max_eigenvalue)
from tests.conftest import central_diff, reference_per_sample_loss, reference_sgd_step


def fd_param_grad(m, x, y, loss, h=1e-5):
    theta = m.flat_params()
    out = np.zeros_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        out[i] = (m.with_params(tp).mean_loss(x, y, loss) - m.with_params(tm).mean_loss(x, y, loss)) / (2 * h)
    return out


def fd_input_grad(m, x, y, loss, h=1e-5):
    out = np.zeros_like(x)
    for b in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[b, j] += h
            xm[b, j] -= h
            out[b, j] = (m.mean_loss(xp, y, loss) - m.mean_loss(xm, y, loss)) / (2 * h)
    return out


def test_zero_weight_logits_equal_bias():
    m = Mlp.init([2, 3, 2], "relu", seed=0)
    flat = np.zeros(m.param_count)
    m0 = m.with_params(flat)
    bias = np.array([0.5, -0.25])
    flat2 = m0.flat_params()
    flat2[-2:] = bias
    m1 = m0.with_params(flat2)
    logits, _ = m1.forward_batch(np.array([[0.3, 0.9]]))
    assert np.allclose(logits[0], bias)


def test_relu_all_negative_preactivation_zero_features():
    m = Mlp([1, 2, 1], "relu", [1.0, 1.0, -5.0, -5.0, 1.0, 1.0, 0.0])  # w0, b0, w1, b1
    _, feats = m.forward_batch(np.array([[0.5]]))
    assert np.all(feats[0][0] == 0.0)


def test_tanh_hand_computation():
    # 1-2-1 network with hand-set weights, checked against a pencil computation
    # w1 = [[0.5, -1.0]], b1 = [0.1, 0.2], w2 = [[2.0], [-0.5]], b2 = [0.3]
    m = Mlp([1, 2, 1], "tanh", [0.5, -1.0, 0.1, 0.2, 2.0, -0.5, 0.3])
    x = 0.4
    h = np.tanh(np.array([0.5 * x + 0.1, -1.0 * x + 0.2]))
    expected = 2.0 * h[0] - 0.5 * h[1] + 0.3
    logits, _ = m.forward_batch(np.array([[x]]))
    assert logits[0, 0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradients_match_finite_differences(loss, activation, rng):
    m = Mlp.init([3, 4, 2], activation, seed=11)
    x = rng.uniform(0.05, 0.95, (5, 3))
    y = rng.integers(0, 2, 5)
    _, gp, gx = m.backward(x, y, loss)
    fp = fd_param_grad(m, x, y, loss)
    fx = fd_input_grad(m, x, y, loss)
    assert np.max(np.abs(fp - gp) / (np.abs(fp) + 1e-8)) <= 1e-5
    assert np.max(np.abs(fx - gx) / (np.abs(fx) + 1e-8)) <= 1e-5


def test_backward_rejects_an_empty_batch_and_takes_one_row(rng):
    m = Mlp.init([1, 3, 2], "tanh", seed=5)
    for x in (np.empty((0, 1)), np.empty((2, 0, 1))):
        with pytest.raises(ShapeError, match="nonempty"):
            m.backward(x, np.empty(x.shape[:-1], dtype=np.int64))
    # a batch of one element, its cross-entropy gradient written out by hand: p - onehot back
    # through tanh
    x, y = rng.uniform(size=(1, 1)), np.array([1])
    (w1, w2), (b1, b2) = m.weights, m.biases
    h = np.tanh(x[0] @ w1 + b1)
    z = h @ w2 + b2
    p = np.exp(z - z.max())
    p /= p.sum()
    dz = p - np.eye(2)[1]
    dh = (w2 @ dz) * (1.0 - h * h)
    value, g, gx = m.backward(x, y)
    (g1, g2), (gb1, gb2) = m._split_flat(g)
    assert value == pytest.approx(-np.log(p[1]), rel=1e-14)
    for got, want in ((g1, np.outer(x[0], dh)), (gb1, dh), (g2, np.outer(h, dz)), (gb2, dz), (gx[0], w1 @ dh)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-16)


def test_duplicated_rows_same_gradient(rng):
    m = Mlp.init([2, 4, 2], "tanh", seed=3)
    x = rng.uniform(size=(3, 2))
    y = np.array([0, 1, 1])
    _, g1, _ = m.backward(x, y, "cross_entropy")
    _, g2, _ = m.backward(np.vstack([x, x]), np.concatenate([y, y]), "cross_entropy")
    assert np.allclose(g1, g2, atol=1e-14)


def test_tangent_matches_fd(rng):
    m = Mlp.init([3, 5, 2], "tanh", seed=4)
    x = rng.uniform(size=(4, 3))
    y = rng.integers(0, 2, 4)
    v = rng.normal(size=m.param_count)
    tan = m.input_grad_param_tangent(x, y, "cross_entropy", v)
    h = 1e-6
    _, _, gp = m.with_params(m.flat_params() + h * v).backward(x, y, "cross_entropy")
    _, _, gm = m.with_params(m.flat_params() - h * v).backward(x, y, "cross_entropy")
    fd = (gp - gm) / (2 * h)
    assert np.max(np.abs(fd - tan)) <= 1e-7


@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_exact_hvp_matches_fd_of_backward(loss, activation, rng):
    # the oracle differences backward's exact parameter gradient at a step small
    # enough not to cross a relu kink on these rows
    m = Mlp.init([5, 7, 6, 3], activation, seed=2)
    x = rng.uniform(size=(30, 5))
    y = rng.integers(0, 3, 30)
    v = rng.normal(size=m.param_count)
    hv = loss_hvp(m, x, y, loss)(v)
    h = 1e-6
    _, gp, _ = m.with_params(m.flat_params() + h * v).backward(x, y, loss)
    _, gm, _ = m.with_params(m.flat_params() - h * v).backward(x, y, loss)
    fd = (gp - gm) / (2 * h)
    assert np.max(np.abs(hv - fd)) <= 1e-8 * np.max(np.abs(fd))


@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_stacked_sweeps_equal_per_batch_sweeps(loss, activation, rng):
    # a (C, m, n) stack of C = 4 batches: every per-batch result is bit-identical to the unstacked sweep
    m = Mlp.init([6, 7, 5, 3], activation, seed=3)
    x = rng.uniform(size=(4, 2, 6))
    y = rng.integers(0, 3, (4, 2))
    v = rng.normal(size=(4, m.param_count))
    values, grads, ginputs = m.backward(x, y, loss)
    tangents = m.input_grad_param_tangent(x, y, loss, v)
    hvps = np.empty_like(v)
    tangents_hvp = m.input_grad_param_tangent(x, y, loss, v, grads=m._split_flat(hvps))
    assert values.shape == (4,) and grads.shape == v.shape and tangents.shape == x.shape
    out = np.empty_like(v)  # the gradients written into a given buffer; the forward's features in place of the input part
    values_o, flat_o, feats_o = m.backward(x, y, loss, out=out, input_part=False)
    assert np.array_equal(values_o, values) and flat_o is out and np.array_equal(out, grads)
    assert len(feats_o) == 3 and all(np.array_equal(a, b) for a, b in zip(feats_o, m.forward_batch(x)[1]))
    for c in range(4):
        value_c, grad_c, ginput_c = m.backward(x[c], y[c], loss)
        hvp_c = np.empty(m.param_count)
        tangent_c = m.input_grad_param_tangent(x[c], y[c], loss, v[c], grads=m._split_flat(hvp_c))
        assert values[c] == value_c
        assert np.array_equal(grads[c], grad_c)
        assert np.array_equal(ginputs[c], ginput_c)
        assert np.array_equal(tangents[c], tangent_c) and np.array_equal(tangents_hvp[c], tangent_c)
        assert np.array_equal(tangent_c, m.input_grad_param_tangent(x[c], y[c], loss, v[c]))
        assert np.array_equal(hvps[c], hvp_c) and np.array_equal(hvp_c, loss_hvp(m, x[c], y[c], loss)(v[c]))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [0, 1], ids=["0-hidden", "1-hidden"])
def test_tangent_sweep_takes_per_batch_weights(activation, hidden, rng):
    # (C, in, out) weights give each batch of a (C, B, n) stack its own network, bit for bit the 2-D
    # sweep of its slice; at C = in = out a transpose of the stack's first two axes would raise nothing
    for widths in ((4, 5, 3)[-hidden - 2:], (2,) * (hidden + 2)):
        nets = [Mlp.init(widths, activation, seed=seed) for seed in (1, 2)]
        ws, bs = ([np.stack(layer) for layer in zip(*params)] for params in
                  ([n.weights for n in nets], [n.biases for n in nets]))
        x, y = rng.uniform(size=(2, 6, widths[0])), rng.integers(0, widths[-1], (2, 6))
        v = rng.normal(size=(2, nets[0].param_count))
        zs, acts = _forward_sweep(ws, bs, activation, x)
        _, g = _loss_value_and_grad(acts[-1], y, "cross_entropy")
        hvps = np.empty_like(v)
        gx = _tangent_sweep(ws, activation, zs, acts, g, "cross_entropy", *nets[0]._split_flat(v),
                            grads=nets[0]._split_flat(hvps))
        for c, net in enumerate(nets):
            hvp = np.empty(net.param_count)
            want = net.input_grad_param_tangent(x[c], y[c], "cross_entropy", v[c], grads=net._split_flat(hvp))
            assert np.array_equal(gx[c], want) and np.array_equal(hvps[c], hvp)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(), (5,), (5, 4)], ids=["0-hidden", "1-hidden", "2-hidden"])
def test_sweeps_take_an_ensemble_stack(activation, hidden, rng):
    # an ensemble's (M, 1, in, out) weights sweep a (C, m, n) class stack into (M, C, m, .) arrays,
    # each member's slice bit for bit its own sweep of the stack
    nets = [Mlp.init([3, *hidden, 2], activation, seed=seed) for seed in (1, 2, 3)]
    ws, bs = nets[0]._split_flat(np.stack([n.flat_params() for n in nets])[:, None])
    x, y = rng.uniform(size=(4, 5, 3)), rng.integers(0, 2, (4, 5))
    g_logits = rng.normal(size=(3, 4, 5, 2))
    upstream = [rng.normal(size=(3, 4, 5, w)) for w in hidden]  # one per hidden activation
    v = rng.normal(size=(3, nets[0].param_count))
    zs, acts = _forward_sweep(ws, bs, activation, x)
    grads = np.empty((3, 4, nets[0].param_count))
    gx = _reverse_sweep(ws, activation, zs, acts, g_logits, upstream, grads=nets[0]._split_flat(grads))
    _, g = _loss_value_and_grad(acts[-1], np.broadcast_to(y, (3, 4, 5)), "cross_entropy")
    hvps = np.empty_like(grads)
    tangent = _tangent_sweep(ws, activation, zs, acts, g, "cross_entropy", *nets[0]._split_flat(v[:, None]),
                             grads=nets[0]._split_flat(hvps))
    assert gx.shape == tangent.shape == (3, 4, 5, 3)
    for i, net in enumerate(nets):
        zs_i, acts_i = _forward_sweep(net.weights, net.biases, activation, x)
        assert all(np.array_equal(a[i], b) for a, b in zip([*zs, *acts[1:]], [*zs_i, *acts_i[1:]], strict=True))
        grads_i = np.empty((4, net.param_count))
        gx_i = _reverse_sweep(net.weights, activation, zs_i, acts_i, g_logits[i],
                              [u[i] for u in upstream], grads=net._split_flat(grads_i))
        assert np.array_equal(gx[i], gx_i) and np.array_equal(grads[i], grads_i)
        hvp_i = np.empty((4, net.param_count))
        tangent_i = net.input_grad_param_tangent(x, y, "cross_entropy", np.tile(v[i], (4, 1)),
                                                 grads=net._split_flat(hvp_i))
        assert np.array_equal(tangent[i], tangent_i) and np.array_equal(hvps[i], hvp_i)


def test_sweep_takes_any_leading_stack_axes(rng):
    m = Mlp.init([3, 4, 2], "relu", seed=0)
    x = rng.uniform(size=(2, 3, 5, 3))
    logits = m.forward_batch(x)[0]
    assert all(np.array_equal(logits[i, j], m.forward_batch(x[i, j])[0]) for i in range(2) for j in range(3))
    for x in (np.ones(3), np.ones((2, 4)), np.ones((3, 2, 2, 4))):
        with pytest.raises(ShapeError, match="expected"):
            _forward_sweep(m.weights, m.biases, "relu", x)


@pytest.mark.parametrize("model", [Mlp.init([3, *hidden, 2], activation, seed=5) for activation in ("relu", "tanh")
                                   for hidden in ((), (5,), (5, 4))],
                         ids=[f"{a}-{h}" for a in ("relu", "tanh") for h in (0, 1, 2)])
def test_output_param_jacobian_matches_fd_oracle(model, rng):
    x = rng.uniform(size=(3, 3))
    jac = model.logit_jacobian(x)[0]
    assert jac.shape == (3, 2, model.param_count)
    for b in range(3):
        for c in range(2):
            fd = central_diff(lambda p: model.with_params(p).forward_batch(x[b : b + 1])[0][0, c], model.flat_params())
            assert np.max(np.abs(jac[b, c] - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_tangent_at_other_params_builds_no_mlp(rng, monkeypatch):
    m = Mlp.init([3, 4, 2], "tanh", seed=1)
    theta = m.flat_params() + 0.1 * rng.normal(size=m.param_count)
    x, y, v = rng.uniform(size=(5, 3)), rng.integers(0, 2, 5), rng.normal(size=m.param_count)
    other = m.with_params(theta)
    built = []
    with_params = Mlp.with_params
    monkeypatch.setattr(Mlp, "with_params", lambda self, flat: built.append(1) or with_params(self, flat))
    got = m.input_grad_param_tangent(x, y, "cross_entropy", v, params=theta)
    assert np.array_equal(got, other.input_grad_param_tangent(x, y, "cross_entropy", v))
    assert built == []


def test_lambda_max_estimate_builds_no_mlp(monkeypatch):
    d = two_blobs(20, seed=0)
    m = Mlp.init([2, 4, 2], "tanh", seed=0)
    built = []
    with_params = Mlp.with_params
    monkeypatch.setattr(Mlp, "with_params", lambda self, flat: built.append(1) or with_params(self, flat))
    assert np.isfinite(max_eigenvalue(loss_hvp(m, d.features, d.labels, "cross_entropy"), m.param_count, iters=5)[0])
    assert built == []


def test_hvp_builds_its_primal_once(rng, monkeypatch):
    # each product of a power iteration is one tangent sweep from one forward sweep and one act' at theta
    import dckit.models

    m = Mlp.init([4, 6, 3], "relu", seed=1)
    x, y = rng.uniform(size=(9, 4)), rng.integers(0, 3, 9)
    vs = rng.normal(size=(5, m.param_count))
    expected = []
    for v in vs:
        hv = np.empty(m.param_count)
        m.input_grad_param_tangent(x, y, "cross_entropy", v, grads=m._split_flat(hv))
        expected.append(hv)
    sweeps, primes = [], []
    forward, act_prime = dckit.models._forward_sweep, dckit.models._act_prime
    monkeypatch.setattr(dckit.models, "_forward_sweep", lambda *a: sweeps.append(1) or forward(*a))
    monkeypatch.setattr(dckit.models, "_act_prime", lambda *a, **k: primes.append(1) or act_prime(*a, **k))
    hvp = loss_hvp(m, x, y, "cross_entropy")
    assert all(np.array_equal(hvp(v), e) for v, e in zip(vs, expected))
    assert len(sweeps) == 1 and len(primes) == 1  # one hidden layer


def test_sgd_zero_epochs_unchanged(rng):
    m = Mlp.init([2, 4, 2], "relu", seed=0)
    d = (rng.uniform(size=(6, 2)), rng.integers(0, 2, 6))
    out, traj = sgd_train(m, d, TrainConfig(epochs=0, seed=1), record=True)
    assert np.array_equal(out.flat_params(), m.flat_params())
    assert len(traj) == 1


def test_sgd_deterministic(rng):
    d = two_blobs(40, seed=2)
    cfg = TrainConfig(epochs=5, seed=9)
    a, _ = sgd_train(Mlp.init([2, 8, 2], "relu", seed=1), d, cfg)
    b, _ = sgd_train(Mlp.init([2, 8, 2], "relu", seed=1), d, cfg)
    assert np.array_equal(a.flat_params(), b.flat_params())


def test_sgd_separable_blobs_accuracy():
    d = two_blobs(100, separation=6.0, seed=5)
    m, _ = sgd_train(Mlp.init([2, 16, 2], "relu", seed=0), d, TrainConfig(epochs=50, seed=3))
    assert m.accuracy(d.features, d.labels) >= 0.99


def test_sgd_divergence_names_epoch():
    d = two_blobs(30, seed=1)
    # mse gradients scale with the residual, so a huge step compounds to overflow
    cfg = TrainConfig(learning_rate=1e150, epochs=3, loss="mse", seed=0)
    with pytest.raises(DivergenceError, match="epoch"):
        sgd_train(Mlp.init([2, 8, 2], "relu", seed=0), d, cfg)


def _reference_sgd(m, x, y, cfg):
    """Plain per-batch SGD through the allocating ``reference_sgd_step``: the loop the stacked trainer must match."""
    rng = np.random.default_rng(cfg.seed)
    theta = m.flat_params()
    snaps = [theta]
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            rows = perm[start : start + cfg.batch_size]
            _, theta = reference_sgd_step(m, theta, x[rows], y[rows], cfg.loss, cfg.learning_rate)
        snaps.append(theta)
    return m.with_params(theta), np.stack(snaps)


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
@pytest.mark.parametrize("epochs, hidden", [(0, (5,)), (4, (5,)), (3, (5, 4))])
def test_sgd_train_stack_equals_separate_runs(members, activation, loss, epochs, hidden):
    # 31 rows in batches of 7 leave a short last batch, so the step's workspace shape changes every
    # epoch; each member has its own init and shuffling seed
    d = two_blobs(15, seed=3)
    x, y = np.vstack([d.features, [[0.5, 0.5]]]), np.append(d.labels, 1)
    cfg = TrainConfig(learning_rate=0.2, epochs=epochs, batch_size=7, loss=loss, seed=123)
    models = [Mlp.init((2, *hidden, 2), activation, seed=10 + r) for r in range(members)]
    seeds = [40 + 7 * r for r in range(members)]
    stacked, trajectories = sgd_train_stack(models, (x, y), cfg, seeds, record=True)
    assert len(stacked) == len(trajectories) == members
    for m, seed, out, traj in zip(models, seeds, stacked, trajectories):
        alone, alone_traj = sgd_train(m, (x, y), replace(cfg, seed=seed), record=True)
        ref, ref_snaps = _reference_sgd(m, x, y, replace(cfg, seed=seed))
        assert np.array_equal(out.flat_params(), alone.flat_params())
        assert np.array_equal(out.flat_params(), ref.flat_params())
        assert np.array_equal(traj, alone_traj) and np.array_equal(traj, ref_snaps)
        if epochs == 0:
            assert out is m and alone is m


def test_sgd_train_stack_one_diverging_member_raises():
    # member 1 starts at huge weights, so its mse loss overflows in the first epoch; the others are healthy
    d = two_blobs(30, seed=1)
    cfg = TrainConfig(learning_rate=0.1, epochs=3, loss="mse")
    models = [Mlp.init([2, 8, 2], "relu", seed=r) for r in range(3)]
    models[1] = models[1].with_params(1e200 * models[1].flat_params())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="epoch 0"):
            sgd_train_stack(models, d, cfg, [1, 2, 3])
        with pytest.raises(DivergenceError, match="epoch"):  # lr 1e150 overflows every member
            sgd_train_stack(models[::2], d, replace(cfg, learning_rate=1e150), [1, 3])


def test_sgd_train_stack_rejects_mismatched_members():
    d = two_blobs(10, seed=1)
    cfg = TrainConfig(epochs=1)
    a, b = Mlp.init([2, 4, 2], "relu", seed=0), Mlp.init([2, 5, 2], "relu", seed=1)
    with pytest.raises(ShapeError):
        sgd_train_stack([a, b], d, cfg, [0, 1])
    with pytest.raises(ShapeError):
        sgd_train_stack([a, Mlp.init([2, 4, 2], "tanh", seed=1)], d, cfg, [0, 1])
    with pytest.raises(ConfigError):
        sgd_train_stack([a, a], d, cfg, [0])
    with pytest.raises(ConfigError):
        sgd_train_stack([], d, cfg, [])


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
@pytest.mark.parametrize("batches", ["full", "ragged"])
def test_unroll_tapes_equal_allocating_reference(activation, loss, batches):
    # the tape keeps a copy of each step's theta_k and gradient, not a view of a reused buffer
    d = two_blobs(15, seed=5)
    s, labels = d.features[:10], d.labels[:10]
    m = Mlp.init((2, 6, 2), activation, seed=4)
    epochs = ([(np.arange(len(s)),)] * 4 if batches == "full"
              else list(epoch_batches(len(s), TrainConfig(epochs=2, batch_size=4, seed=6))))
    ends, tapes = _unroll(m, m.flat_params(), s, labels, loss, 0.3, epochs, "step")
    theta = m.flat_params()
    for end, tape in zip(ends[1:], tapes):
        for rows, theta_k, grad_k in tape:
            grad, after = reference_sgd_step(m, theta, s[rows], labels[rows], loss, 0.3)
            assert np.array_equal(theta_k, theta) and np.array_equal(grad_k, grad)
            theta = after
        assert np.array_equal(end, theta)


def test_sgd_step_allocates_nothing_batch_sized(monkeypatch):
    # a (1, 480, 32) batch through a 32-64-10 net: after the warm-up step that makes the workspace,
    # a step's peak stays below one (R, B, h) float array (the allocating step made about six)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(size=(480, 32)), rng.integers(0, 10, 480)
    peaks, step = [], _FlatSgd.step

    def traced(self, *args):
        if not peaks:
            peaks.append(None)
            return step(self, *args)
        tracemalloc.start()
        try:
            step(self, *args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(_FlatSgd, "step", traced)
    sgd_train_stack([Mlp.init((32, 64, 10), "relu", seed=0)], (x, y), TrainConfig(epochs=4, batch_size=480), [1])
    assert len(peaks) == 4 and max(peaks[1:]) < 480 * 64 * 8


@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
def test_per_row_losses_are_the_reference_formula_bit_for_bit(loss):
    # the workspace's per-row losses, which pgd_attack reads, and their mean, which mean_loss returns
    rng = np.random.default_rng(3)
    for b, k in [(1, 1), (1, 7), (5, 2), (33, 3), (64, 10), (700, 11)]:
        for scale in (1e-3, 1.0, 1e3):
            logits, y = scale * rng.normal(size=(b, k)), rng.integers(0, k, b)
            ws = _loss_workspace(logits.shape)
            value = _loss_value_and_grad(logits, y, loss, ws)[0]
            want = reference_per_sample_loss(logits, y, loss)
            assert np.array_equal(ws[3], want)
            assert np.mean(want) == value == _loss_value_and_grad(logits, y, loss)[0]
    ws = _loss_workspace((0, 3))
    assert _loss_value_and_grad(np.empty((0, 3)), [], loss, ws)[0] == 0.0 and ws[3].shape == (0,)  # no RuntimeWarning


@pytest.mark.parametrize("hidden", [(), (5,), (5, 4)], ids=["0-hidden", "1-hidden", "2-hidden"])
def test_feature_input_vjp_is_forward_batch_and_its_pullback(hidden, rng, monkeypatch):
    m = Mlp.init([3, *hidden, 2], "tanh", seed=4)
    x = rng.uniform(size=(6, 3))
    up = [rng.normal(size=(6, w)) for w in (*hidden, 2)]
    calls = []
    forward = Mlp._forward
    monkeypatch.setattr(Mlp, "_forward", lambda self, x: calls.append(1) or forward(self, x))
    feats, pullback = m.feature_input_vjp(x)
    grad = pullback(up)
    assert len(calls) == 1  # the pullback reuses the call's forward sweep
    monkeypatch.undo()
    assert all(np.array_equal(f, g) for f, g in zip(feats, m.forward_batch(x)[1], strict=True))
    fd = central_diff(lambda u: sum(np.sum(a * f) for a, f in zip(up, m.forward_batch(u)[1])), x)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))
    with pytest.raises(ShapeError, match="align"):
        pullback(up[:-1])


def test_labels_outside_the_logits_rejected(rng):
    m = Mlp.init([3, 4, 2], "relu", seed=0)
    x = rng.uniform(size=(4, 3))
    for y in ([0, 1, 2, 0], [0, -1, 1, 0]):
        with pytest.raises(ValidationError, match="labels"):
            m.backward(x, y)
        with pytest.raises(ValidationError, match="labels"):
            m.mean_loss(x, y)
        with pytest.raises(ValidationError, match="labels"):
            sgd_train(m, (x, np.array(y)), TrainConfig(epochs=1))


def test_trajectory_prefix_reproducible():
    d = two_blobs(30, seed=4)
    m = Mlp.init([2, 6, 2], "tanh", seed=7)
    _, full = sgd_train(m, d, TrainConfig(epochs=5, seed=2), record=True)
    short, _ = sgd_train(m, d, TrainConfig(epochs=3, seed=2))
    assert full.shape == (6, m.param_count)
    assert np.array_equal(full[0], m.flat_params())
    assert np.array_equal(full[3], short.flat_params())


def test_pgd_zero_eps_identity(rng):
    m = Mlp.init([2, 6, 2], "relu", seed=0)
    x = rng.uniform(size=(4, 2))
    y = rng.integers(0, 2, 4)
    assert np.array_equal(pgd_attack(m, x, y, eps=0.0), x)


def test_pgd_negative_eps_rejected(rng):
    m = Mlp.init([2, 6, 2], "relu", seed=0)
    with pytest.raises(DomainError):
        pgd_attack(m, rng.uniform(size=(2, 2)), np.array([0, 1]), eps=-0.1)


def test_pgd_loss_never_below_clean_and_projected(rng):
    m = Mlp.init([2, 8, 2], "tanh", seed=1)
    x = rng.uniform(0.2, 0.8, (6, 2))
    y = rng.integers(0, 2, 6)
    adv = pgd_attack(m, x, y, eps=0.1, steps=8)
    assert np.max(np.abs(adv - x)) <= 0.1 + 1e-12
    assert adv.min() >= 0.0 and adv.max() <= 1.0
    clean = m.mean_loss(x, y)
    attacked = m.mean_loss(adv, y)
    assert attacked >= clean - 1e-12


def _reference_pgd(m, x, y, eps, steps, loss):
    # the ascent written plainly: a full backward at each iterate, then a forward for its losses
    step_size = max(eps / max(steps, 1) * 2.5, 1e-12)
    best, best_loss, adv = x.copy(), reference_per_sample_loss(m.forward_batch(x)[0], y, loss), x.copy()
    for _ in range(steps):
        adv = np.clip(np.clip(adv + step_size * np.sign(m.backward(adv, y, loss)[2]), x - eps, x + eps), 0.0, 1.0)
        cand = reference_per_sample_loss(m.forward_batch(adv)[0], y, loss)
        better = cand > best_loss
        best[better] = adv[better]
        best_loss = np.where(better, cand, best_loss)
    return best


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
def test_pgd_matches_reference_ascent(activation, loss):
    rng = np.random.default_rng(7)
    for seed in range(4):
        m = Mlp.init([5, 16, 16, 3], activation, seed=seed)
        x, y = rng.uniform(size=(30, 5)), rng.integers(0, 3, 30)
        assert np.array_equal(pgd_attack(m, x, y, eps=0.1, steps=5, loss=loss), _reference_pgd(m, x, y, 0.1, 5, loss))


def test_pgd_forwards_each_iterate_once(rng, monkeypatch):
    # steps + 1 forwards: one per iterate gives its losses and, through an input-only reverse
    # sweep, its ascent direction
    m = Mlp.init([5, 16, 16, 3], "relu", seed=0)
    x, y = rng.uniform(size=(20, 5)), rng.integers(0, 3, 20)
    calls, forward = [], Mlp._forward
    monkeypatch.setattr(Mlp, "_forward", lambda self, x: calls.append(1) or forward(self, x))
    pgd_attack(m, x, y, eps=0.1, steps=5)
    assert len(calls) == 5 + 1


def test_power_iteration_identity_quadratic():
    # quadratic loss 0.5 ||theta||^2 has identity Hessian
    est, _ = max_eigenvalue(lambda v: v, dim=12, iters=30, seed=0)
    assert est == pytest.approx(1.0, abs=1e-6)


def test_power_iteration_of_the_zero_operator_is_zero():
    est, u = max_eigenvalue(lambda v: 0.0 * v, dim=7, iters=30, seed=0)
    assert est == 0.0 and np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 3.0])
def test_power_iteration_scaled_quadratic(a):
    est, _ = max_eigenvalue(lambda v: a * v, dim=9, iters=40, seed=1)
    assert est == pytest.approx(a, abs=1e-6 * a)


def test_lambda_max_stable_across_starts():
    d = two_blobs(40, seed=3)
    m, _ = sgd_train(Mlp.init([2, 6, 2], "tanh", seed=0), d, TrainConfig(epochs=10, seed=1))
    hvp = loss_hvp(m, d.features, d.labels, "cross_entropy")
    a, _ = max_eigenvalue(hvp, m.param_count, iters=60, seed=0)
    b, _ = max_eigenvalue(hvp, m.param_count, iters=60, seed=99)
    assert abs(a - b) / max(abs(a), 1e-9) <= 1e-3


def test_lambda_max_iters_validated():
    d = two_blobs(10, seed=0)
    m = Mlp.init([2, 4, 2], "relu", seed=0)
    with pytest.raises(ConfigError):
        max_eigenvalue(loss_hvp(m, d.features, d.labels, "cross_entropy"), m.param_count, iters=0)


def test_param_count_reported():
    m = Mlp.init([3, 4, 2], "relu", seed=0)
    assert m.param_count == 3 * 4 + 4 + 4 * 2 + 2


def test_layers_are_views_of_one_read_only_vector():
    m = Mlp.init([3, 4, 5, 2], "tanh", seed=0)
    assert m._params.shape == (m.param_count,) and not m._params.flags.writeable
    offset = 0
    for w, b in zip(m.weights, m.biases):
        for layer in (w, b):  # in _split_flat's order: w0, b0, w1, b1, ...
            assert np.shares_memory(layer, m._params[offset:offset + layer.size]) and not layer.flags.writeable
            assert np.array_equal(layer.ravel(), m._params[offset:offset + layer.size])
            offset += layer.size
    assert offset == m.param_count
    assert not np.shares_memory(m.flat_params(), m._params)
    with pytest.raises(ValueError):
        m.weights[1][0, 0] = 1.0


def test_flat_params_is_a_copy():
    m = Mlp.init([2, 3, 2], "relu", seed=4)
    flat = m.flat_params()
    assert np.array_equal(flat, m.flat_params())
    x = np.array([[0.3, -0.2]])
    before = m.forward_batch(x)[0]
    flat[:] = 7.0
    assert np.array_equal(m.forward_batch(x)[0], before) and not np.array_equal(m.flat_params(), flat)


def test_constructor_checks_length_and_finiteness():
    with pytest.raises(ShapeError, match="expected 17 parameters"):
        Mlp([2, 3, 2], "relu", np.zeros(16))
    with pytest.raises(ShapeError, match="expected 17 parameters"):
        Mlp([2, 3, 2], "relu", np.zeros((1, 17)))
    params = np.zeros(17)
    params[5] = np.nan
    with pytest.raises(ValidationError):
        Mlp([2, 3, 2], "relu", params)


@pytest.mark.parametrize("widths", [(3, 2), (3, 5, 2), (4, 6, 3, 2)], ids=["0-hidden", "1-hidden", "2-hidden"])
def test_init_draws_each_layer_in_turn(widths):
    # the reference: each layer's weights drawn as one (in, out) matrix from the seed's stream, zero biases
    rng = np.random.default_rng(7)
    want = []
    for a, b in zip(widths, widths[1:]):
        want += [rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b)), np.zeros(b)]
    m = Mlp.init(widths, "relu", seed=7)
    got = [layer for pair in zip(m.weights, m.biases) for layer in pair]
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


# SHA-256 of the float64 bytes of outputs captured before the flat-buffer
# training loop replaced the per-step Mlp rebuild; any change in the arithmetic
# (operation order, fused loss, in-place update) shows up as a new digest.
def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


SGD_PINS = {
    ("relu", "cross_entropy", 10, (5,)): "441e3c19b6625a57cd02f9c47db4fc29f9e4145c6d886e4ca5fd3c2dadd83c34",
    ("relu", "cross_entropy", 7, (5,)): "c909f9f988796398c045618a1c126e146933cd994368c38e1a1898629352c6db",
    ("relu", "mse", 10, (5,)): "c6f645ffd9d1e4e8e1653f483f1e9a740552798c12a16c36276f7a15bad2d277",
    ("relu", "mse", 7, (5,)): "e4bbf6ee5c027e13606672fd71ba9cbb531d5cf48cdf53496df0ca399d4db369",
    ("tanh", "cross_entropy", 10, (5,)): "bb96fb46547514c237d2a60213fd442504a5877f8c240dbf050f3bdb90818e2c",
    ("tanh", "cross_entropy", 7, (5,)): "a557e4288b33db0c81d7bf01c35a26b51921f1f7f8a47f84e23778b3adb1ffc1",
    ("tanh", "mse", 10, (5,)): "8fbd2f513f81619f7c56e817547062cd75071122763cf5d01cf16ec5563a61c1",
    ("tanh", "mse", 7, (5,)): "6ca7a1c56b96b74f7555eb332145222300b3cb29e340f9f50405a7d09ce54a59",
    ("tanh", "cross_entropy", 7, (5, 4)): "61ffa8fa6197010ddcfdc98be50d4ccb679222ac139c20e148099f0c2c40f814",
}


@pytest.mark.parametrize("case", list(SGD_PINS), ids=lambda c: "-".join(map(str, c)))
def test_sgd_train_values_pinned(case):
    # 30 rows: batch size 10 divides n, 7 leaves a short last batch
    act, loss, bs, hidden = case
    d = two_blobs(15, seed=3)
    m = Mlp.init((2, *hidden, 2), act, seed=5)
    cfg = TrainConfig(learning_rate=0.2, epochs=4, batch_size=bs, loss=loss, seed=8)
    out, traj = sgd_train(m, d, cfg, record=True)
    assert _digest(out.flat_params(), traj) == SGD_PINS[case]


def test_full_batch_steps_values_pinned():
    d = two_blobs(15, seed=3)
    m = Mlp.init((2, 5, 2), "tanh", seed=6)
    theta = m.flat_params()
    ends, _ = _unroll(m, theta, d.features[:6], d.labels[:6], "cross_entropy", 0.3, [(np.arange(6),)] * 5,
                      "inner step")
    assert _digest(ends[-1]) == "eb35bb07ecb36e225326d03571c6407cbef2fbf796561e76d54e3d16ea7696c5"
    assert np.array_equal(theta, m.flat_params())


@pytest.mark.parametrize("loss, value_hex, pin", [
    ("cross_entropy", "0x1.4da737ade429dp+0", "a8c2376c94baf8791c6000e0d3b12bf910f85768b37ad1b3d1b680e030271ad6"),
    ("mse", "0x1.8163569ef0382p+0", "1d7fc8647f5decc79577b9e82c975769b2517ab54649b3c01895570e207ce89d"),
])
def test_backward_values_pinned(loss, value_hex, pin):
    rng = np.random.default_rng(4)
    m = Mlp.init((3, 6, 4, 3), "relu", seed=2)
    x = rng.uniform(size=(9, 3))
    y = rng.integers(0, 3, 9)
    value, g, gx = m.backward(x, y, loss)
    assert value.hex() == value_hex
    assert _digest([value], g, gx) == pin
