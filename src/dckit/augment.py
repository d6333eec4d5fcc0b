"""Formation-based and siamese augmentation operators on image batches.

Forward operators are paired with their adjoints (VJPs) so condensation
objectives can differentiate through them.
"""
from __future__ import annotations

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
    h x w. Deterministic and linear in the input.
    """
    _spatial_ok(x.shape)
    b, c, h, w = x.shape
    if r < 1:
        raise ShapeError("formation factor must be >= 1")
    if h % r or w % r:
        raise ShapeError(f"spatial dims ({h}, {w}) must be divisible by r={r}")
    th, tw = h // r, w // r
    parts = [x.data]
    for i in range(r):
        for j in range(r):
            tile = x.data[:, :, i * th : (i + 1) * th, j * tw : (j + 1) * tw]
            up = np.repeat(np.repeat(tile, r, axis=2), r, axis=3)
            parts.append(up)
    return ImageBatch(np.concatenate(parts, axis=1))


def multi_formation_vjp(grad_out: np.ndarray, r: int, in_shape) -> np.ndarray:
    """Adjoint of multi_formation: fold output-channel gradients back onto the input."""
    b, c, h, w = in_shape
    th, tw = h // r, w // r
    g = np.array(grad_out[:, :c], copy=True)
    k = 1
    for i in range(r):
        for j in range(r):
            blk = grad_out[:, k * c : (k + 1) * c]
            # adjoint of nearest-neighbor repeat is block summation
            pooled = blk.reshape(b, c, th, r, tw, r).sum(axis=(3, 5))
            g[:, :, i * th : (i + 1) * th, j * tw : (j + 1) * tw] += pooled
            k += 1
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


def siamese_augment(t_batch: ImageBatch, s_batch: ImageBatch, op: str, seed: int = 0, params: dict | None = None):
    """Apply one identical parameterized transformation to both batches.

    ``params`` overrides the seed-derived draw (identity values give unchanged
    batches). Spatial dims of the two batches must match.
    """
    if t_batch.shape[2:] != s_batch.shape[2:]:
        raise ShapeError("siamese batches must share spatial dims")
    if op not in SIAMESE_OPS:
        raise ShapeError(f"op must be one of {SIAMESE_OPS}")
    if params is None:
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
