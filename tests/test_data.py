import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dckit import (
    LabeledDataset,
    SyntheticDataset,
    init_synthetic,
    load_dataset,
    load_synthetic,
    normalize_features,
    per_class_partition,
    save_synthetic,
    train_eval_split,
    two_blobs,
)
from dckit.errors import (
    CapacityError,
    EmptyClassError,
    EmptyDatasetError,
    LabelError,
    ParseError,
    ValidationError,
)


def write(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text)
    return p


def test_load_three_rows(tmp_path):
    p = write(tmp_path, "f0,f1,label\n0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,0\n")
    d = load_dataset(p)
    assert d.n_samples == 3 and d.n_features == 2 and d.class_count == 2


def test_load_header_only(tmp_path):
    p = write(tmp_path, "f0,f1,label\n")
    with pytest.raises(EmptyDatasetError):
        load_dataset(p)


@pytest.mark.parametrize("text, error, match", [
    ("", EmptyDatasetError, "is empty"),
    ("f0,f1,y\n0.1,0.2,0\n", ParseError, "header must end with a 'label' column"),
    ("label\n0\n", ParseError, "header must end with a 'label' column"),
    ("f0,label\n0.1,0\n0.2,-1\n", LabelError, "negative label -1"),
], ids=["empty-file", "no-label-column", "label-only", "negative-label"])
def test_load_rejects_malformed_files(tmp_path, text, error, match):
    with pytest.raises(error, match=match):
        load_dataset(write(tmp_path, text))


def test_load_skips_blank_rows(tmp_path):
    d = load_dataset(write(tmp_path, "f0,label\n0.1,0\n\n0.3,1\n\n"))
    assert d.features.tolist() == [[0.1], [0.3]] and d.labels.tolist() == [0, 1]


def test_split_rejects_a_class_too_small_to_split():
    d = LabeledDataset(np.array([[0.1], [0.2], [0.3], [0.4]]), np.array([0, 0, 0, 1]), 2)
    with pytest.raises(CapacityError, match="class 1 too small to split"):
        train_eval_split(d, 0.2, seed=0)


def test_load_noncontiguous_labels(tmp_path):
    p = write(tmp_path, "f0,label\n0.1,0\n0.2,2\n")
    with pytest.raises(LabelError):
        load_dataset(p)


def test_load_malformed_row_reports_index(tmp_path):
    p = write(tmp_path, "f0,f1,label\n0.1,0.2,0\nbad,0.4,1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(p)


def test_load_wrong_field_count(tmp_path):
    p = write(tmp_path, "f0,f1,label\n0.1,0.2,0\n0.3,1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(p)


def test_normalize_minmax():
    d = LabeledDataset(np.array([[2.0], [4.0], [6.0]]), np.array([0, 0, 0]), 1)
    out = normalize_features(d)
    assert np.allclose(out.features.ravel(), [0.0, 0.5, 1.0])


def test_normalize_constant_column():
    d = LabeledDataset(np.array([[5.0], [5.0], [5.0]]), np.array([0, 0, 0]), 1)
    out = normalize_features(d)
    assert np.all(out.features == 0.0)


def test_normalize_extremes_unchanged():
    d = LabeledDataset(np.array([[0.0], [1.0]]), np.array([0, 1]), 2)
    out = normalize_features(d)
    assert np.array_equal(out.features, d.features)


def test_normalize_records_inversion():
    d = LabeledDataset(np.array([[2.0, 1.0], [4.0, 3.0]]), np.array([0, 1]), 2)
    out = normalize_features(d)
    assert out.norm.mins.tolist() == [2.0, 1.0] and out.norm.ranges.tolist() == [2.0, 2.0]
    back = out.features * out.norm.ranges + out.norm.mins
    assert np.allclose(back, d.features, atol=1e-12)


def test_nan_rejected():
    with pytest.raises(ValidationError):
        LabeledDataset(np.array([[np.nan]]), np.array([0]), 1)


def test_partition_basic():
    d = LabeledDataset(np.zeros((3, 1)), np.array([0, 1, 0]), 2)
    part = per_class_partition(d)
    assert part[0].tolist() == [0, 2] and part[1].tolist() == [1]


def test_partition_single_class():
    d = LabeledDataset(np.zeros((4, 1)), np.zeros(4, dtype=int), 1)
    assert per_class_partition(d)[0].tolist() == [0, 1, 2, 3]


def test_partition_empty_class():
    d = LabeledDataset(np.zeros((2, 1)), np.array([0, 0]), 2)
    with pytest.raises(EmptyClassError):
        per_class_partition(d)


def test_partition_is_permutation(rng):
    labels = rng.integers(0, 3, 30)
    labels[:3] = [0, 1, 2]  # every class present
    d = LabeledDataset(rng.uniform(size=(30, 2)), labels, 3)
    part = per_class_partition(d)
    merged = np.sort(np.concatenate([part[y] for y in range(3)]))
    assert merged.tolist() == list(range(30))


def test_init_subsample_draws_members(toy_pair):
    t, _ = toy_pair
    s = init_synthetic(t, 2, "subsample", seed=5)
    for row, lab in zip(s.features, s.labels):
        mask = t.labels == lab
        assert any(np.array_equal(row, r) for r in t.features[mask])


def test_init_deterministic(toy_pair):
    t, _ = toy_pair
    a = init_synthetic(t, 2, "subsample", seed=9)
    b = init_synthetic(t, 2, "subsample", seed=9)
    assert np.array_equal(a.features, b.features)


def test_init_capacity(toy_pair):
    t, _ = toy_pair
    with pytest.raises(CapacityError):
        init_synthetic(t, 7, "subsample", seed=0)


def test_init_gaussian_noise_clipped(toy_pair):
    t, _ = toy_pair
    s = init_synthetic(t, 3, "gaussian_noise", seed=1)
    assert s.features.min() >= 0.0 and s.features.max() <= 1.0
    assert np.array_equal(s.features, init_synthetic(t, 3, "gaussian_noise", seed=1).features)


def test_roundtrip_exact(tmp_path, rng):
    d = SyntheticDataset(rng.normal(size=(20, 4)), np.repeat([1, 0], 10), per_class_size=10, origin="x")
    save_synthetic(d, tmp_path / "x.csv")
    d2 = load_dataset(tmp_path / "x.csv")
    assert np.array_equal(d.features, d2.features)
    assert np.array_equal(d.labels, d2.labels)


def test_synthetic_roundtrip_with_sidecar(tmp_path, rng):
    s = SyntheticDataset(
        rng.uniform(size=(4, 2)), np.array([0, 0, 1, 1]), per_class_size=2,
        origin="condense:dm", meta={"seed": 3},
    )
    save_synthetic(s, tmp_path / "s.csv")
    s2 = load_synthetic(tmp_path / "s.csv")
    assert np.array_equal(s.features, s2.features)
    assert s2.origin == "condense:dm" and s2.per_class_size == 2 and s2.meta["seed"] == 3


def test_synthetic_invariants():
    with pytest.raises(ValidationError):
        SyntheticDataset(np.zeros((3, 1)), np.array([0, 0, 1]), per_class_size=2, origin="x")
    with pytest.raises(LabelError):
        SyntheticDataset(np.zeros((4, 1)), np.array([0, 0, 0, 1]), per_class_size=2, origin="x")
    for labels in ([-1, 0], [0, 2]):
        with pytest.raises(LabelError, match=r"\[0, 2\)"):
            SyntheticDataset(np.zeros((2, 2)), np.array(labels), per_class_size=1, origin="x", class_count=2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
def test_blobs_shape_property(n_per_class, seed):
    d = two_blobs(n_per_class=max(n_per_class, 2), dim=2, separation=6.0, seed=seed)
    assert d.class_count == 2
    assert d.features.min() >= 0.0 and d.features.max() <= 1.0
    assert np.bincount(d.labels).tolist() == [max(n_per_class, 2)] * 2
