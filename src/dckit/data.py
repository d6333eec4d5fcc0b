"""Dataset containers, CSV ingestion, per-class partitioning, and synthetic-set initialization."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    EmptyClassError,
    EmptyDatasetError,
    LabelError,
    ParseError,
    ValidationError,
    check_number,
)


INIT_MODES = ("subsample", "gaussian_noise")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class NormParams:
    """Per-feature min-max scaling parameters, recorded in the synthetic set's sidecar."""

    mins: np.ndarray
    ranges: np.ndarray  # max - min; 0 marks a constant feature

    def apply(self, x: np.ndarray) -> np.ndarray:
        safe = np.where(self.ranges > 0, self.ranges, 1.0)
        out = (x - self.mins) / safe
        return np.where(self.ranges > 0, out, 0.0)

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "ranges": self.ranges.tolist()}


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with dense integer class labels in [0, class_count)."""

    features: np.ndarray  # (N, n) float64
    labels: np.ndarray  # (N,) int64
    class_count: int
    norm: NormParams | None = None

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {f.shape}")
        if f.shape[0] < 1:
            raise EmptyDatasetError("dataset has no rows")
        if not np.all(np.isfinite(f)):
            raise ValidationError("features contain NaN or Inf entries")
        y = np.asarray(self.labels, dtype=np.int64)
        if y.ndim != 1 or y.shape[0] != f.shape[0]:
            raise ValidationError("labels length must match feature row count")
        if self.class_count < 1:
            raise LabelError("class_count must be >= 1")
        if y.min() < 0 or y.max() >= self.class_count:
            raise LabelError(f"labels must lie in [0, {self.class_count})")
        object.__setattr__(self, "features", _readonly(f))
        object.__setattr__(self, "labels", _readonly(y))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticDataset:
    """Learnable per-class point set with provenance metadata."""

    features: np.ndarray  # (M, n) float64
    labels: np.ndarray  # (M,) int64
    per_class_size: int
    origin: str
    class_count: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if f.ndim != 2 or f.shape[0] != y.shape[0]:
            raise ValidationError("features/labels shape mismatch")
        if not np.all(np.isfinite(f)):
            raise ValidationError("features contain NaN or Inf entries")
        c = self.class_count if self.class_count else int(y.max()) + 1
        object.__setattr__(self, "class_count", c)
        if f.shape[0] != self.per_class_size * c:
            raise ValidationError(
                f"row count {f.shape[0]} != per_class_size {self.per_class_size} x class_count {c}"
            )
        if np.any((y < 0) | (y >= c)):
            raise LabelError(f"labels must lie in [0, {c})")
        counts = np.bincount(y, minlength=c)
        if not np.all(counts == self.per_class_size):
            raise LabelError("labels must hold per_class_size copies of every class")
        object.__setattr__(self, "features", _readonly(f))
        object.__setattr__(self, "labels", _readonly(y))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def load_dataset(path: str | Path) -> LabeledDataset:
    """Load a labeled dataset from a CSV file with header ``f0,...,f{n-1},label``.

    Labels must be contiguous integers starting at 0. Raises ParseError with the
    offending row index for malformed rows, or naming the file when it is not UTF-8,
    LabelError for non-contiguous labels, and EmptyDatasetError for a header-only file.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyDatasetError(f"{path} is empty") from None
            if len(header) < 2 or header[-1].strip() != "label":
                raise ParseError(f"{path}: header must end with a 'label' column")
            n = len(header) - 1
            feats: list[list[float]] = []
            labels: list[int] = []
            for i, row in enumerate(reader):
                if not row:
                    continue
                if len(row) != n + 1:
                    raise ParseError(f"{path}: row {i + 1} has {len(row)} fields, expected {n + 1}")
                try:
                    feats.append([float(v) for v in row[:n]])
                    labels.append(int(row[n]))
                except ValueError as e:
                    raise ParseError(f"{path}: row {i + 1}: {e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: {e}") from None
    if not feats:
        raise EmptyDatasetError(f"{path} contains a header but no data rows")
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0:
        raise LabelError(f"{path}: negative label {y.min()}")
    c = int(y.max()) + 1
    present = np.bincount(y, minlength=c)
    if np.any(present == 0):
        missing = int(np.argmin(present))
        raise LabelError(f"{path}: labels are not contiguous, class {missing} is absent")
    return LabeledDataset(features=np.asarray(feats, dtype=np.float64), labels=y, class_count=c)


def _json_default(v):
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    raise TypeError(f"not JSON serializable: {type(v)}")


def save_synthetic(s: SyntheticDataset, path: str | Path) -> None:
    """Write a synthetic set as CSV plus a JSON sidecar with its provenance.

    The CSV is the format ``load_dataset`` reads; floats use repr so a load round-trips exactly."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(s.n_features)] + ["label"])
        for row, lab in zip(s.features, s.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])
    meta = {
        "origin": s.origin,
        "per_class_size": s.per_class_size,
        "class_count": s.class_count,
        **s.meta,
    }
    Path(f"{path}.meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2, default=_json_default) + "\n")


def read_json(path: str | Path):
    """The JSON document in the file at path; one that is not UTF-8 JSON raises ParseError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"{path}: {e}") from None


def _read_sidecar(path: str | Path) -> dict:
    """The JSON sidecar that ``save_synthetic`` writes next to the CSV at path; {} if there is none."""
    sidecar = Path(f"{path}.meta.json")
    return read_json(sidecar) if sidecar.exists() else {}


def load_synthetic(path: str | Path) -> SyntheticDataset:
    """The synthetic set at path and its sidecar's provenance; a ``per_class_size`` there that is
    not an integer >= 1 raises ConfigError naming the sidecar."""
    d = load_dataset(path)
    meta = _read_sidecar(path)
    per_class = meta.get("per_class_size", d.n_samples // d.class_count)
    try:
        check_number("per_class_size", per_class, integer=True, low=1)
    except ConfigError as e:
        raise ConfigError(f"{path}.meta.json: {e}") from None
    origin = meta.get("origin", "unknown")
    extra = {k: v for k, v in meta.items() if k not in ("origin", "per_class_size", "class_count")}
    return SyntheticDataset(
        features=d.features,
        labels=d.labels,
        per_class_size=per_class,
        origin=origin,
        class_count=d.class_count,
        meta=extra,
    )


def normalize_features(d: LabeledDataset) -> LabeledDataset:
    """Min-max scale every feature into [0, 1]; constant features map to 0."""
    f = d.features
    mins = f.min(axis=0)
    ranges = f.max(axis=0) - mins
    params = NormParams(mins=_readonly(mins), ranges=_readonly(ranges))
    return LabeledDataset(
        features=params.apply(f), labels=d.labels, class_count=d.class_count, norm=params
    )


def per_class_partition(d: LabeledDataset | SyntheticDataset) -> list[np.ndarray]:
    """The row indices of each class, indexed by label; every class must have at least one row."""
    part = [np.nonzero(d.labels == y)[0] for y in range(d.class_count)]
    for y, rows in enumerate(part):
        if rows.size == 0:
            raise EmptyClassError(f"class {y} has no samples")
    return part


def init_synthetic(
    d: LabeledDataset, per_class: int, mode: str = "subsample", seed: int = 0
) -> SyntheticDataset:
    """Initialize a synthetic set with ``per_class`` points for every class.

    ``subsample`` draws rows of ``d`` without replacement; ``gaussian_noise`` draws
    from N(class mean, 0.1^2 I) clipped to [0, 1]. Deterministic given the seed.
    """
    if per_class < 1:
        raise CapacityError("per_class must be >= 1")
    if mode not in INIT_MODES:
        raise ConfigError(f"unknown init mode {mode!r}")
    part = per_class_partition(d)
    rng = np.random.default_rng(seed)
    feats = []
    labels = []
    for y in range(d.class_count):
        rows = part[y]
        if mode == "subsample":
            if per_class > rows.size:
                raise CapacityError(
                    f"class {y} has {rows.size} samples, cannot subsample {per_class}"
                )
            pick = rng.choice(rows, size=per_class, replace=False)
            feats.append(d.features[np.sort(pick)])
        else:
            mean = d.features[rows].mean(axis=0)
            draw = rng.normal(loc=mean, scale=0.1, size=(per_class, d.n_features))
            feats.append(np.clip(draw, 0.0, 1.0))
        labels.extend([y] * per_class)
    return SyntheticDataset(
        features=np.vstack(feats),
        labels=np.asarray(labels, dtype=np.int64),
        per_class_size=per_class,
        origin=f"init:{mode}",
        class_count=d.class_count,
        meta={"seed": seed},
    )


def one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    out = np.zeros((len(labels), class_count), dtype=np.float64)
    out[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)] = 1.0
    return out


def two_blobs(
    n_per_class: int = 1000,
    dim: int = 2,
    separation: float = 6.0,
    seed: int = 0,
) -> LabeledDataset:
    """Two isotropic Gaussian blobs separated by ``separation`` standard deviations.

    A standard desk-scale fixture: class means sit ``separation`` sigma apart along
    the first axis, unit sigma, min-max normalized into [0, 1].
    """
    rng = np.random.default_rng(seed)
    m0 = np.zeros(dim)
    m1 = np.zeros(dim)
    m1[0] = separation
    x0 = rng.normal(loc=m0, scale=1.0, size=(n_per_class, dim))
    x1 = rng.normal(loc=m1, scale=1.0, size=(n_per_class, dim))
    f = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64)])
    order = rng.permutation(2 * n_per_class)
    return normalize_features(LabeledDataset(features=f[order], labels=y[order], class_count=2))


def train_eval_split(d: LabeledDataset, eval_fraction: float = 0.2, seed: int = 0):
    """Deterministic stratified split into (train, eval) datasets."""
    if not 0.0 < eval_fraction < 1.0:
        raise ConfigError("eval_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    eval_idx: list[np.ndarray] = []
    part = per_class_partition(d)
    for y in range(d.class_count):
        rows = part[y]
        perm = rng.permutation(rows)
        k = max(1, int(round(eval_fraction * rows.size)))
        if k >= rows.size:
            raise CapacityError(f"class {y} too small to split")
        eval_idx.append(perm[:k])
        train_idx.append(perm[k:])
    tr = np.sort(np.concatenate(train_idx))
    ev = np.sort(np.concatenate(eval_idx))
    mk = lambda rows: LabeledDataset(
        features=d.features[rows], labels=d.labels[rows], class_count=d.class_count, norm=d.norm
    )
    return mk(tr), mk(ev)
