import numpy as np
import pytest

from dckit import ImageBatch, channel_multi_formation, multi_formation, siamese_augment
from dckit.augment import (
    _apply_siamese,
    channel_multi_formation_vjp,
    multi_formation_vjp,
    siamese_vjp,
)
from dckit.errors import ShapeError


def rand_batch(rng, b=2, c=3, h=8, w=8):
    return ImageBatch(rng.uniform(0.0, 1.0, (b, c, h, w)))


def test_multi_formation_shape(rng):
    out = multi_formation(rand_batch(rng), 2)
    assert out.shape == (2, 15, 8, 8)


def test_multi_formation_r1(rng):
    x = rand_batch(rng)
    out = multi_formation(x, 1)
    assert out.shape == (2, 6, 8, 8)
    assert np.array_equal(out.data[:, 3:], x.data)


def test_multi_formation_constant_image():
    x = ImageBatch(np.full((1, 2, 4, 4), 0.25))
    out = multi_formation(x, 2)
    assert np.all(out.data == 0.25)


def test_multi_formation_divisibility(rng):
    with pytest.raises(ShapeError):
        multi_formation(ImageBatch(rng.uniform(size=(1, 1, 6, 6))), 4)


def test_formation_rejects_1x1_spatial(rng):
    with pytest.raises(ShapeError):
        multi_formation(ImageBatch(rng.uniform(size=(2, 3, 1, 1))), 1)


def test_multi_formation_linearity(rng):
    a = rand_batch(rng, h=4, w=4)
    b = rand_batch(rng, h=4, w=4)
    al, be = 0.3, 0.45  # convex-ish so the combination stays a valid batch
    combo = ImageBatch(al * a.data + be * b.data)
    lhs = multi_formation(combo, 2).data
    rhs = al * multi_formation(a, 2).data + be * multi_formation(b, 2).data
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_multi_formation_adjoint(rng):
    x = rand_batch(rng, h=4, w=4)
    g = rng.normal(size=(2, 15, 4, 4))
    lhs = np.sum(g * multi_formation(x, 2).data)
    rhs = np.sum(multi_formation_vjp(g, 2, x.shape) * x.data)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def multi_formation_reference(x, r):
    """The formation with each tile upsampled by ``np.repeat`` and the channels concatenated:
    the reference for the one block copy of ``multi_formation``."""
    b, c, h, w = x.shape
    th, tw = h // r, w // r
    tiles = [x[:, :, i * th : (i + 1) * th, j * tw : (j + 1) * tw] for i in range(r) for j in range(r)]
    return np.concatenate([x, *(np.repeat(np.repeat(tile, r, axis=2), r, axis=3) for tile in tiles)], axis=1)


def multi_formation_vjp_reference(grad_out, r, in_shape):
    """The adjoint with each tile's r x r blocks summed by ``reshape`` and ``sum(axis=(3, 5))``:
    the reference for the one block sum of ``multi_formation_vjp``."""
    b, c, h, w = in_shape
    th, tw = h // r, w // r
    g = np.array(grad_out[:, :c], copy=True)
    for k, (i, j) in enumerate(((i, j) for i in range(r) for j in range(r)), start=1):
        pooled = grad_out[:, k * c : (k + 1) * c].reshape(b, c, th, r, tw, r).sum(axis=(3, 5))
        g[:, :, i * th : (i + 1) * th, j * tw : (j + 1) * tw] += pooled
    return g


@pytest.mark.parametrize("tile", [(2, 3), (2, 1)], ids=["2x3", "2x1"])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("b", [1, 7])
def test_multi_formation_and_vjp_equal_their_loop_formulas(b, c, r, tile, rng):
    # gradient entries spread over 12 decades, so that adding a block's entries in another order
    # changes the last bits of its sum, and zeros of both signs, whose sum's sign depends on where
    # it starts; the bytes are compared, so a zero's sign counts
    h, w = tile[0] * r, tile[1] * r
    x = rng.uniform(size=(b, c, h, w))
    assert np.array_equal(multi_formation(ImageBatch(x), r).data, multi_formation_reference(x, r))
    shape = (b, c * (r * r + 1), h, w)
    g = rng.normal(size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
    g[rng.uniform(size=shape) < 0.1] = 0.0
    g[rng.uniform(size=shape) < 0.1] = -0.0
    got, want = multi_formation_vjp(g, r, (b, c, h, w)), multi_formation_vjp_reference(g, r, (b, c, h, w))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_channel_multi_formation_shape(rng):
    out = channel_multi_formation(rand_batch(rng), seed=0)
    assert out.shape == (8, 3, 8, 8)


def test_channel_multi_formation_identity_hook(rng):
    x = rand_batch(rng)
    mixing = np.broadcast_to(np.eye(3), (3, 2, 3, 3)).copy()
    out = channel_multi_formation(x, mixing=mixing)
    for k in range(4):
        assert np.array_equal(out.data[2 * k : 2 * (k + 1)], x.data)


def test_channel_multi_formation_deterministic(rng):
    x = rand_batch(rng)
    a = channel_multi_formation(x, seed=3)
    b = channel_multi_formation(x, seed=3)
    assert np.array_equal(a.data, b.data)


def test_channel_multi_formation_head_rows_are_input(rng):
    x = rand_batch(rng)
    out = channel_multi_formation(x, seed=1)
    assert np.array_equal(out.data[:2], x.data)


def test_channel_multi_formation_adjoint(rng):
    x = rand_batch(rng, h=4, w=4)
    from dckit.augment import _mixing_matrices

    mixing = _mixing_matrices(2, 3, 5)
    out = channel_multi_formation(x, mixing=mixing)
    # restrict to interior values so the clip mask is exactly pass-through
    g = rng.normal(size=out.shape)
    mixed_all = out.data
    interior = np.ones_like(mixed_all)
    interior[2:] = ((mixed_all[2:] > 0) & (mixed_all[2:] < 1)).astype(float)
    g = g * interior
    lhs = np.sum(g * mixed_all)
    rhs_grad = channel_multi_formation_vjp(g, x, mixing=mixing)
    # compare against finite differences on a few coordinates
    h = 1e-6
    for (b, c, i, j) in [(0, 0, 1, 2), (1, 2, 3, 0), (0, 1, 0, 3)]:
        xp = x.data.copy()
        xm = x.data.copy()
        xp[b, c, i, j] += h
        xm[b, c, i, j] -= h
        fp = np.sum(g * channel_multi_formation(ImageBatch(np.clip(xp, 0, 1)), mixing=mixing).data)
        fm = np.sum(g * channel_multi_formation(ImageBatch(np.clip(xm, 0, 1)), mixing=mixing).data)
        assert rhs_grad[b, c, i, j] == pytest.approx((fp - fm) / (2 * h), rel=1e-4, abs=1e-8)


def test_siamese_identity_params(rng):
    x = rand_batch(rng, b=3).data
    for op, params in (("shift", {"dy": 0, "dx": 0}), ("flip", {"flip": False}), ("scale", {"s": 1.0})):
        assert np.array_equal(_apply_siamese(x, op, params), x)


def test_siamese_flip_involution(rng):
    x = rand_batch(rng).data
    once = _apply_siamese(x, "flip", {"flip": True})
    assert not np.array_equal(once, x) and np.array_equal(_apply_siamese(once, "flip", {"flip": True}), x)


def test_siamese_same_seed_same_transform(rng):
    x = rand_batch(rng)
    a1, a2 = siamese_augment(x, x, "shift", seed=9)
    assert np.array_equal(a1.data, a2.data)


def test_siamese_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        siamese_augment(rand_batch(rng), rand_batch(rng, h=4, w=4), "flip")


def test_siamese_range_preserved(rng):
    tb, sb = rand_batch(rng), rand_batch(rng)
    for op in ("shift", "flip", "scale"):
        t2, s2 = siamese_augment(tb, sb, op, seed=2)
        for out in (t2, s2):
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_siamese_shift_adjoint(rng):
    x = rand_batch(rng)
    params = {"dy": 1, "dx": -1}
    out = _apply_siamese(x.data, "shift", params)
    g = rng.normal(size=x.shape)
    lhs = np.sum(g * out)
    rhs = np.sum(siamese_vjp(g, x.data, "shift", params) * x.data)
    assert lhs == pytest.approx(rhs, rel=1e-12)
