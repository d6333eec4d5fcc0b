import hashlib
import warnings

import numpy as np
import pytest

from dckit import Mlp, TrainConfig, lambda_max_estimate, pgd_attack, power_iteration_eig, sgd_train, two_blobs
from dckit.errors import ConfigError, DivergenceError, DomainError
from dckit.condense import _full_batch_steps
from dckit.models import per_sample_loss


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
    m = Mlp([1, 2, 1], "relu", [np.array([[1.0, 1.0]]), np.array([[1.0], [1.0]])],
            [np.array([-5.0, -5.0]), np.array([0.0])])
    _, feats = m.forward_with_features(np.array([0.5]))
    assert np.all(feats[0] == 0.0)


def test_tanh_hand_computation():
    # 1-2-1 network with hand-set weights, checked against a pencil computation
    w1 = np.array([[0.5, -1.0]])
    b1 = np.array([0.1, 0.2])
    w2 = np.array([[2.0], [-0.5]])
    b2 = np.array([0.3])
    m = Mlp([1, 2, 1], "tanh", [w1, w2], [b1, b2])
    x = 0.4
    h = np.tanh(np.array([0.5 * x + 0.1, -1.0 * x + 0.2]))
    expected = 2.0 * h[0] - 0.5 * h[1] + 0.3
    logits, _ = m.forward_with_features(np.array([x]))
    assert logits[0] == pytest.approx(expected, abs=1e-12)


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


def test_trajectory_prefix_reproducible():
    d = two_blobs(30, seed=4)
    m = Mlp.init([2, 6, 2], "tanh", seed=7)
    _, full = sgd_train(m, d, TrainConfig(epochs=5, seed=2), record=True)
    short, _ = sgd_train(m, d, TrainConfig(epochs=3, seed=2))
    assert np.array_equal(full.snapshots[0], m.flat_params())
    assert np.array_equal(full.snapshots[3], short.flat_params())


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
    attacked = np.mean(per_sample_loss(m.forward_batch(adv)[0], y, "cross_entropy"))
    assert attacked >= clean - 1e-12


def test_pgd_monotone_in_steps(rng):
    m = Mlp.init([2, 8, 2], "tanh", seed=2)
    x = rng.uniform(0.2, 0.8, (5, 2))
    y = rng.integers(0, 2, 5)
    losses = []
    for steps in (1, 2, 4, 8):
        adv = pgd_attack(m, x, y, eps=0.15, steps=steps, step_size=0.03)
        losses.append(np.mean(per_sample_loss(m.forward_batch(adv)[0], y, "cross_entropy")))
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


def test_power_iteration_identity_quadratic():
    # quadratic loss 0.5 ||theta||^2 has identity Hessian
    est = power_iteration_eig(lambda v: v, dim=12, iters=30, seed=0)
    assert est == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("a", [0.5, 3.0])
def test_power_iteration_scaled_quadratic(a):
    est = power_iteration_eig(lambda v: a * v, dim=9, iters=40, seed=1)
    assert est == pytest.approx(a, abs=1e-6 * a)


def test_lambda_max_stable_across_starts():
    d = two_blobs(40, seed=3)
    m, _ = sgd_train(Mlp.init([2, 6, 2], "tanh", seed=0), d, TrainConfig(epochs=10, seed=1))
    a = lambda_max_estimate(m, d, iters=60, seed=0)
    b = lambda_max_estimate(m, d, iters=60, seed=99)
    assert abs(a - b) / max(abs(a), 1e-9) <= 1e-3


def test_lambda_max_iters_validated():
    d = two_blobs(10, seed=0)
    m = Mlp.init([2, 4, 2], "relu", seed=0)
    with pytest.raises(ConfigError):
        lambda_max_estimate(m, d, iters=0)


def test_checkpoint_roundtrip():
    m = Mlp.init([3, 5, 2], "tanh", seed=8)
    m2 = Mlp.from_text(m.to_text())
    assert m2.widths == m.widths and m2.activation == m.activation
    assert np.array_equal(m2.flat_params(), m.flat_params())


def test_trajectory_roundtrip():
    d = two_blobs(20, seed=6)
    _, traj = sgd_train(Mlp.init([2, 4, 2], "relu", seed=0), d, TrainConfig(epochs=3, seed=1), record=True)
    from dckit import Trajectory

    again = Trajectory.from_text(traj.to_text())
    assert np.array_equal(again.stack(), traj.stack())


def test_param_count_reported():
    m = Mlp.init([3, 4, 2], "relu", seed=0)
    assert m.param_count == 3 * 4 + 4 + 4 * 2 + 2


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
    assert _digest(out.flat_params(), traj.stack()) == SGD_PINS[case]


def test_full_batch_steps_values_pinned():
    d = two_blobs(15, seed=3)
    m = Mlp.init((2, 5, 2), "tanh", seed=6)
    theta = m.flat_params()
    end = _full_batch_steps(m, theta, d.features[:6], d.labels[:6], 0.3, 5, "cross_entropy")
    assert _digest(end) == "eb35bb07ecb36e225326d03571c6407cbef2fbf796561e76d54e3d16ea7696c5"
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
