"""Seeded workload inputs for the dckit benchmark.

Every generator uses numpy's ``default_rng`` only, never ``dckit.data``, so a
library change cannot alter what the benchmark feeds the program. A workload is
a dataset CSV (header ``f0,...,f{n-1},label``, the format ``dckit condense``
reads) plus a JSON run config; ``write_inputs`` writes both.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Evaluation for the workloads whose subject is condensation, not SGD training:
# one full-batch model per side, so it costs a fraction of a second, yet it trains
# the tiny synthetic sets far enough that accuracy is steady from seed to seed
# (the default 16-unit evaluator left some seeds' 1-point-per-class sets at 0.77).
CHEAP_EVAL = {"repeats": 1, "epochs": 100, "batch_size": 2000, "learning_rate": 0.5,
              "hidden_architectures": [[64]]}


@dataclass(frozen=True)
class Workload:
    name: str
    make_data: object  # seed -> (features, labels)
    method: dict
    per_class: int
    eval: dict


def two_blobs_2d(seed: int, n: int = 1000):
    """Two unit-variance 2-D Gaussian blobs, ``n`` points each, means 6 sigma apart."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, 1.0, size=(n, 2))
    x1 = rng.normal(0.0, 1.0, size=(n, 2)) + np.array([6.0, 0.0])
    return _shuffled(rng, np.vstack([x0, x1]), np.repeat(np.arange(2), n))


def blobs_32d(seed: int):
    """Ten 32-D Gaussian blobs (sigma 0.4), 60 points each, means orthogonal at radius 4."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(32, 10)))
    means = 4.0 * basis.T  # every pair of means is 4*sqrt(2) apart, whatever the seed
    x = np.repeat(means, 60, axis=0) + rng.normal(0.0, 0.4, size=(600, 32))
    return _shuffled(rng, x, np.repeat(np.arange(10), 60))


def images_8x8(seed: int):
    """Ten classes of 1x8x8 images, 50 each: a smooth class template plus pixel noise."""
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0.0, 1.0, size=(10, 4, 4))
    templates = np.repeat(np.repeat(coarse, 2, axis=1), 2, axis=2).reshape(10, 64)
    x = np.repeat(templates, 50, axis=0) + rng.normal(0.0, 0.25, size=(500, 64))
    return _shuffled(rng, np.clip(x, 0.0, 1.0), np.repeat(np.arange(10), 50))


def _shuffled(rng, x, y):
    order = rng.permutation(x.shape[0])
    return x[order], y[order].astype(np.int64)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "blobs-dm",
            two_blobs_2d,
            {"method": "dm", "outer_lr": 0.01, "outer_steps": 300, "ensemble": 3,
             "hidden": [32], "refresh": 30},
            1,
            {"repeats": 3, "epochs": 35},  # the default 32-row SGD evaluator, 35/200 of its epochs
        ),
        Workload(
            "blobs-mmd-pc10",
            lambda seed: two_blobs_2d(seed, 500),
            {"method": "mmd", "outer_lr": 0.05, "outer_steps": 300},
            10,
            CHEAP_EVAL,
        ),
        Workload(
            "blobs32-bptt",
            blobs_32d,
            {"method": "bptt", "hidden": [16], "inner_steps": 10, "outer_steps": 1, "outer_lr": 0.1},
            1,
            CHEAP_EVAL,
        ),
        Workload(
            "img8-gm",
            images_8x8,
            {"method": "gm", "outer_lr": 0.01, "outer_steps": 40, "ensemble": 3,
             "hidden": [32], "refresh": 25, "image_shape": [1, 8, 8],
             "variants": {"multiform": {"r": 2}}},
            2,
            CHEAP_EVAL,
        ),
    )
}


def run_config(w: Workload, dataset: str, seed: int) -> dict:
    """The JSON config ``dckit condense --config`` reads for this workload."""
    return {"dataset": dataset, "method": w.method, "per_class": w.per_class,
            "eval": w.eval, "seed": seed}


def write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    lines = [",".join([f"f{i}" for i in range(x.shape[1])] + ["label"])]
    lines += [",".join([*map(repr, map(float, row)), str(int(lab))]) for row, lab in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")


def write_inputs(w: Workload, seed: int, work: Path) -> int:
    """Write ``dataset.csv`` and ``config.json`` for (workload, seed) under ``work``.

    Returns the dataset's class count.

    The config names the dataset relative to ``work``, so the CLI runs with ``work``
    as its directory and ``report.json`` does not depend on where the checkout is.
    """
    work.mkdir(parents=True, exist_ok=True)
    x, y = w.make_data(seed)
    write_csv(work / "dataset.csv", x, y)
    config = run_config(w, "dataset.csv", seed)
    (work / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return int(y.max()) + 1
