import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ifutsvm import (
    Dataset,
    InvalidDatasetError,
    NoiseSpec,
    ParseError,
    SplitError,
    inject_label_noise,
    load_dataset,
    parse_csv,
    parse_keel,
    standardize,
    stratified_split,
)


class TestParseKeel:
    def test_minority_token_becomes_positive(self, keel_text):
        ds = parse_keel(keel_text)
        assert ds.m1 == 1 and ds.m2 == 3
        assert ds.labels[0] == 1  # the single 'positive' row
        assert ds.n == 2

    def test_empty_data_section(self):
        with pytest.raises(InvalidDatasetError):
            parse_keel("@relation x\n@data\n")

    def test_majority_positive_token_maps_to_negative(self):
        rows = ["1,positive"] * 3 + ["2,negative"]
        text = "@data\n" + "\n".join(rows)
        ds = parse_keel(text)
        # 'negative' is the minority token, so it becomes +1
        assert ds.m1 == 1
        assert ds.labels[-1] == 1

    def test_wrong_arity_reports_line(self):
        text = "@data\n1.0,2.0,a\n1.0,b\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_keel(text)

    def test_non_numeric_feature_reports_line(self):
        text = "@data\n1.0,oops,a\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_keel(text)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidDatasetError):
            parse_keel("@data\n1.0,a\n2.0,a\n")

    def test_missing_sentinel_rejected(self):
        with pytest.raises(ParseError):
            parse_keel("1.0,a\n2.0,b\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity"])
@pytest.mark.parametrize("suffix", [".dat", ".csv"])
def test_non_finite_feature_reports_line(tmp_path, token, suffix):
    header = "@relation x\n@data\n" if suffix == ".dat" else ""
    path = tmp_path / f"bad{suffix}"
    path.write_text(header + f"1.0,2.0,a\n0.5,{token},b\n")
    line = header.count("\n") + 2
    with pytest.raises(ParseError, match=f"line {line}: non-finite"):
        load_dataset(path)


@pytest.mark.parametrize("parse, text, message", [
    (parse_csv, "1.0\n", "line 1: row needs at least one feature and a class token"),
    (parse_keel, "@relation toy\n@attribute f1 real\n", "missing '@data' sentinel"),
], ids=["one-field-row", "keel-without-data"])
def test_rows_without_data_are_rejected(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_parse_csv_numeric_labels():
    ds = parse_csv("0.5,1\n0.6,1\n0.7,-1\n")
    # '-1' is the minority token here and maps to +1
    assert ds.m1 == 1
    assert ds.labels.tolist() == [-1, -1, 1]


def test_dataset_rejects_bad_labels():
    with pytest.raises(InvalidDatasetError):
        Dataset("x", np.zeros((2, 2)), np.array([1, 2]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(value):
    X = np.zeros((4, 2))
    X[2, 1] = value
    with pytest.raises(InvalidDatasetError, match="finite"):
        Dataset("x", X, np.array([1, 1, -1, -1]))


def test_dataset_arrays_immutable(keel_text):
    ds = parse_keel(keel_text)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0


class TestStratifiedSplit:
    def test_exact_counts(self, blobs):
        ds = blobs(10, 10, seed=0)
        train, test = stratified_split(ds, 0.7, seed=1)
        assert (train.m1, train.m2) == (7, 7)
        assert (test.m1, test.m2) == (3, 3)

    def test_deterministic(self, blobs):
        ds = blobs(8, 20, seed=0)
        a = stratified_split(ds, 0.7, seed=5)
        b = stratified_split(ds, 0.7, seed=5)
        assert_array_equal(a[0].features, b[0].features)
        assert_array_equal(a[1].labels, b[1].labels)

    def test_degenerate_class_errors(self, blobs):
        X = np.vstack([np.zeros((1, 2)), np.ones((10, 2))])
        y = np.array([1] + [-1] * 10)
        with pytest.raises(SplitError):
            stratified_split(Dataset("d", X, y), 0.7, seed=0)

    def test_union_is_whole_dataset(self, blobs):
        ds = blobs(9, 23, seed=3)
        train, test = stratified_split(ds, 0.6, seed=2)
        joined = np.vstack([train.features, test.features])
        assert_array_equal(np.sort(joined, axis=0), np.sort(ds.features, axis=0))
        assert train.m1 + test.m1 == ds.m1
        assert train.m2 + test.m2 == ds.m2


class TestLabelNoise:
    def test_zero_fraction_identity(self, blobs):
        ds = blobs(5, 15, seed=0)
        out = inject_label_noise(ds, NoiseSpec(0.0, seed=3))
        assert_array_equal(out.labels, ds.labels)

    def test_exact_flip_count(self, blobs):
        ds = blobs(3, 7, seed=1)
        out = inject_label_noise(ds, NoiseSpec(0.2, seed=3))
        assert int(np.sum(out.labels != ds.labels)) == 2

    def test_features_untouched_and_deterministic(self, blobs):
        ds = blobs(5, 25, seed=2)
        a = inject_label_noise(ds, NoiseSpec(0.15, seed=9))
        b = inject_label_noise(ds, NoiseSpec(0.15, seed=9))
        assert a.features is ds.features
        assert_array_equal(a.labels, b.labels)

    def test_minority_convention_restored(self):
        # flipping enough negatives can make +1 the majority; labels are then negated
        X = np.arange(8, dtype=float).reshape(4, 2)
        y = np.array([1, 1, -1, -1])
        out = inject_label_noise(Dataset("d", X, y), NoiseSpec(0.5, seed=0))
        assert out.m1 <= out.m2

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.2, 0.3]))
    @settings(max_examples=30, deadline=None)
    def test_hamming_distance_matches_requested_fraction(self, seed, fraction):
        # heavily imbalanced so the convention-restoring negation cannot trigger
        ds = make_imbalanced(seed % 1000)
        out = inject_label_noise(ds, NoiseSpec(fraction, seed=seed))
        expected = int(np.floor(fraction * ds.m + 0.5))
        assert int(np.sum(out.labels != ds.labels)) == expected


def make_imbalanced(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 3))
    y = np.array([1] * 5 + [-1] * 35)
    return Dataset("imb", X, y)


class TestPickle:
    def test_unpickled_arrays_are_read_only(self, blobs):
        ds = blobs(4, 8, seed=2)
        for restored in (pickle.loads(pickle.dumps(ds)),
                         pickle.loads(pickle.dumps(ds.take(np.arange(1, 10), "part")))):
            assert not restored.features.flags.writeable
            assert not restored.labels.flags.writeable
            assert not restored.pairwise_sq_dists.flags.writeable

    def test_part_pickles_as_a_plain_dataset(self, blobs):
        ds = blobs(4, 8, seed=2)
        part = ds.take(np.array([0, 2, 3, 5, 7, 11]), "part")
        part.pairwise_sq_dists  # its block and its source must not travel with it
        plain = Dataset(part.name, part.features.copy(), part.labels.copy())
        blob = pickle.dumps(part)
        assert len(blob) == len(pickle.dumps(plain))
        restored = pickle.loads(blob)
        assert restored.name == "part"
        assert_array_equal(restored.features, part.features)
        assert_array_equal(restored.labels, part.labels)
        assert restored.pairwise_sq_dists.tobytes() == part.pairwise_sq_dists.tobytes()


class TestStandardize:
    def test_constant_column_passes_through(self):
        X = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]])
        y = np.array([1, -1, -1])
        tr, _ = standardize(Dataset("a", X, y), Dataset("b", X, y))
        assert_allclose(tr.features[:, 0], 1.0)

    def test_two_point_column_population_convention(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([1, -1])
        tr, _ = standardize(Dataset("a", X, y), Dataset("b", X, y))
        assert_allclose(tr.features[:, 0], [-1.0, 1.0])

    def test_idempotent(self, blobs):
        ds = blobs(6, 14, seed=4)
        tr1, te1 = standardize(ds, ds)
        tr2, _ = standardize(tr1, te1)
        assert_allclose(tr2.features, tr1.features, atol=1e-12)

    def test_test_set_uses_train_statistics(self):
        Xtr = np.array([[0.0], [2.0]])
        Xte = np.array([[4.0]])
        y2, y1 = np.array([1, -1]), np.array([1])
        _, te = standardize(Dataset("a", Xtr, y2), Dataset("b", Xte, y1))
        assert_allclose(te.features[:, 0], [3.0])  # (4 - 1) / 1


@given(st.integers(0, 10_000), st.floats(0.3, 0.8))
@settings(max_examples=25, deadline=None)
def test_split_preserves_class_counts(seed, fraction):
    ds = make_imbalanced(seed)
    train, test = stratified_split(ds, fraction, seed=seed)
    assert train.m1 + test.m1 == ds.m1
    assert train.m2 + test.m2 == ds.m2
    assert train.m1 == int(np.floor(fraction * ds.m1 + 0.5))
