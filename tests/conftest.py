import numpy as np
import pytest

from dckit import LabeledDataset, SyntheticDataset


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def toy_pair(rng):
    """Small labeled (T, S) pair with two classes in 3 dimensions."""
    xt = rng.uniform(0.0, 1.0, (12, 3))
    yt = np.array([0] * 6 + [1] * 6)
    t = LabeledDataset(xt, yt, 2)
    s = SyntheticDataset(
        rng.uniform(0.0, 1.0, (4, 3)), np.array([0, 0, 1, 1]), per_class_size=2, origin="fixture"
    )
    return t, s


def copy_as_synthetic(t: LabeledDataset) -> SyntheticDataset:
    """Per-class grouped copy of all of T (the exact-match fixed point)."""
    order = np.argsort(t.labels, kind="stable")
    counts = np.bincount(t.labels, minlength=t.class_count)
    assert len(set(counts)) == 1, "fixture requires balanced classes"
    return SyntheticDataset(
        t.features[order], t.labels[order], per_class_size=int(counts[0]), origin="copy"
    )


def central_diff(fn, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of the scalar ``fn`` at ``x``, one coordinate at a time: the
    oracle that the exact gradients are checked against."""
    x = np.asarray(x, dtype=np.float64)
    h = 1e-5
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (fn(x + step) - fn(x - step)) / (2 * h)
    return grad
