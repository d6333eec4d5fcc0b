"""Formation-based and siamese augmentation operators on image batches.

Forward operators are paired with their adjoints (VJPs) so condensation
objectives can differentiate through them.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError


@dataclass(frozen=True)
class ImageBatch:
    """4-D tensor b x c x h x w of reals in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 4 or any(s < 1 for s in d.shape):
            raise ShapeError(f"expected a (b, c, h, w) tensor, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValidationError("image batch contains NaN or Inf")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def shape(self):
        return self.data.shape


def _spatial_ok(shape):
    b, c, h, w = shape
    if h == 1 and w == 1:
        raise ShapeError("formation operators need genuine spatial dims, not 1x1")


def multi_formation(x: ImageBatch, r: int) -> ImageBatch:
    """Channel-expanding formation: original channels plus r^2 upsampled sub-tiles.

    Maps (b, c, h, w) to (b, c (r^2 + 1), h, w): the image is cut into an r x r
    grid of h/r x w/r tiles and each tile is nearest-neighbor upsampled back to
    h x w, tile (i, j) in channels (1 + i r + j) c to (2 + i r + j) c. Deterministic
    and linear in the input.
    """
    _spatial_ok(x.shape)
    b, c, h, w = x.shape
    if r < 1:
        raise ShapeError("formation factor must be >= 1")
    if h % r or w % r:
        raise ShapeError(f"spatial dims ({h}, {w}) must be divisible by r={r}")
    th, tw = h // r, w // r
    # axes (b, k, c, y, p, x, q): pixel (y r + p, x r + q) of channel block k, whose block 0 is the
    # image and block 1 + i r + j tile (i, j), each of its pixels (y, x) repeated over an r x r block
    out = np.empty((b, r * r + 1, c, th, r, tw, r))
    out[:, 0] = x.data.reshape(b, c, th, r, tw, r)
    out[:, 1:] = x.data.reshape(b, c, r, th, r, tw).transpose(0, 2, 4, 1, 3, 5).reshape(b, r * r, c, th, 1, tw, 1)
    return ImageBatch(out.reshape(b, -1, h, w))


def multi_formation_vjp(grad_out: np.ndarray, r: int, in_shape) -> np.ndarray:
    """Adjoint of multi_formation: fold output-channel gradients back onto the input.

    The adjoint of a nearest-neighbor repeat sums each r x r block of a tile's upsampled
    gradient; the sum is added onto the tile's input pixels. The blocks of all tiles are
    summed at once, with the bits of ``reshape(b, c, th, r, tw, r).sum(axis=(3, 5))`` on each
    tile. For 1 < r < 8 and tiles more than one pixel wide that reduction adds each block row
    from left to right and then the row sums in order, and whole-array adds in that order
    avoid its slow inner loops over r entries. Elsewhere its order differs (pairwise over a
    row of 8 or more, a one pixel wide tile's block as one row, from zero when r is 1), so the
    same reduction runs over the blocks of all tiles.
    """
    b, c, h, w = in_shape
    th, tw = h // r, w // r
    g = np.array(grad_out[:, :c], copy=True)
    blk = grad_out.reshape(b, r * r + 1, c, th, r, tw, r)[:, 1:]  # axes as in multi_formation
    if 1 < r < 8 and tw > 1:
        rows = (functools.reduce(np.add, (blk[..., p, :, q] for q in range(r))) for p in range(r))
        pooled = functools.reduce(np.add, rows)
    else:
        pooled = blk.sum(axis=(4, 6))
    tiles = g.reshape(b, c, r, th, r, tw)  # axes (b, c, i, y, j, x), a view of g
    tiles += pooled.reshape(b, r, r, c, th, tw).transpose(0, 3, 1, 4, 2, 5)
    return g


def _mixing_matrices(b: int, c: int, seed: int) -> np.ndarray:
    """Three per-sample channel-mixing matrices with rows normalized to sum 1."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, size=(3, b, c, c)) + 1e-3
    return m / m.sum(axis=3, keepdims=True)


def channel_multi_formation(x: ImageBatch, seed: int = 0, mixing: np.ndarray | None = None) -> ImageBatch:
    """Batch-expanding formation: original plus three color-mapped copies (4b total).

    Each copy applies an independent per-sample 1x1 channel-mixing matrix (rows
    sum to 1, drawn from the seed), clipped back to [0, 1].
    """
    b, c, h, w = x.shape
    m = _mixing_matrices(b, c, seed) if mixing is None else np.asarray(mixing, dtype=np.float64)
    if m.shape != (3, b, c, c):
        raise ShapeError(f"mixing must have shape (3, {b}, {c}, {c})")
    copies = [x.data]
    for k in range(3):
        mixed = np.einsum("bij,bjhw->bihw", m[k], x.data)
        copies.append(np.clip(mixed, 0.0, 1.0))
    return ImageBatch(np.concatenate(copies, axis=0))


def channel_multi_formation_vjp(grad_out: np.ndarray, x: ImageBatch, mixing: np.ndarray) -> np.ndarray:
    """Adjoint of channel_multi_formation with the given mixing matrices, the clip treated as a
    pass-through mask."""
    b = x.shape[0]
    m = np.asarray(mixing, dtype=np.float64)
    g = np.array(grad_out[:b], copy=True)
    for k in range(3):
        mixed = np.einsum("bij,bjhw->bihw", m[k], x.data)
        mask = ((mixed > 0.0) & (mixed < 1.0)).astype(np.float64)
        gk = grad_out[(k + 1) * b : (k + 2) * b] * mask
        g += np.einsum("bij,bihw->bjhw", m[k], gk)
    return g


SIAMESE_OPS = ("shift", "flip", "scale")


def draw_siamese_params(op: str, shape, seed: int) -> dict:
    """One parameter draw for a siamese op, shared by both batches."""
    _, _, h, w = shape
    rng = np.random.default_rng(seed)
    if op == "shift":
        lim_h = max(h // 8, 1)
        lim_w = max(w // 8, 1)
        return {"dy": int(rng.integers(-lim_h, lim_h + 1)), "dx": int(rng.integers(-lim_w, lim_w + 1))}
    if op == "flip":
        return {"flip": bool(rng.integers(0, 2))}
    if op == "scale":
        return {"s": float(rng.uniform(0.8, 1.2))}
    raise ShapeError(f"unknown siamese op {op!r}")


def _apply_siamese(data: np.ndarray, op: str, params: dict) -> np.ndarray:
    if op == "shift":
        dy, dx = params["dy"], params["dx"]
        out = np.zeros_like(data)
        h, w = data.shape[2], data.shape[3]
        ys = slice(max(dy, 0), h + min(dy, 0))
        xs = slice(max(dx, 0), w + min(dx, 0))
        ys_src = slice(max(-dy, 0), h + min(-dy, 0))
        xs_src = slice(max(-dx, 0), w + min(-dx, 0))
        out[:, :, ys, xs] = data[:, :, ys_src, xs_src]
        return out
    if op == "flip":
        return data[:, :, :, ::-1].copy() if params["flip"] else data.copy()
    if op == "scale":
        return np.clip(data * params["s"], 0.0, 1.0)
    raise ShapeError(f"unknown siamese op {op!r}")


def siamese_augment(t_batch: ImageBatch, s_batch: ImageBatch, op: str, seed: int = 0):
    """Apply one identical parameterized transformation to both batches.

    The op's parameters are one ``draw_siamese_params`` draw from ``seed``. Spatial dims of the
    two batches must match.
    """
    if t_batch.shape[2:] != s_batch.shape[2:]:
        raise ShapeError("siamese batches must share spatial dims")
    if op not in SIAMESE_OPS:
        raise ShapeError(f"op must be one of {SIAMESE_OPS}")
    params = draw_siamese_params(op, t_batch.shape, seed)
    return (
        ImageBatch(_apply_siamese(t_batch.data, op, params)),
        ImageBatch(_apply_siamese(s_batch.data, op, params)),
    )


def siamese_vjp(grad_out: np.ndarray, data: np.ndarray, op: str, params: dict) -> np.ndarray:
    """Adjoint of one siamese op applied to ``data``."""
    if op == "shift":
        inv = {"dy": -params["dy"], "dx": -params["dx"]}
        return _apply_siamese(grad_out, "shift", inv)
    if op == "flip":
        return grad_out[:, :, :, ::-1].copy() if params["flip"] else grad_out.copy()
    if op == "scale":
        s = params["s"]
        scaled = data * s
        mask = ((scaled > 0.0) & (scaled < 1.0)).astype(np.float64)
        return grad_out * mask * s
    raise ShapeError(f"unknown siamese op {op!r}")
