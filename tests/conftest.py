import csv

import numpy as np
import pytest

from dckit import LabeledDataset, SyntheticDataset
from dckit.condense import _matching_problem


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


def write_csv(d, path) -> None:
    """Write a dataset as the CSV ``load_dataset`` reads; repr floats make a load round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d.features.shape[1])] + ["label"])
        for row, label in zip(d.features, d.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def matching_value_and_grad(cfg, t: LabeledDataset, s0: SyntheticDataset):
    """Objective value and analytic gradient of one matching step at S0 (no update)."""
    v0, objective, *_ = _matching_problem(cfg, t, s0)
    return objective(v0, 0)[:2]
