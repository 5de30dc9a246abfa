import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelsel import (
    DataError,
    EmbeddingMatrix,
    FormatError,
    LabelVector,
    SelectionFile,
    l2_normalize,
    load_embeddings,
    load_labels,
    load_selection,
    save_embeddings,
    save_labels,
    save_selection,
)


def write_fvecs_raw(path, rows):
    with open(path, "wb") as f:
        for row in rows:
            f.write(struct.pack("<i", len(row)))
            f.write(struct.pack(f"<{len(row)}f", *row))


class TestLoadEmbeddings:
    def test_fvecs_three_records_dim_two(self, tmp_path):
        p = tmp_path / "a.fvecs"
        write_fvecs_raw(p, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        m = load_embeddings(p)
        assert (m.n, m.d) == (3, 2)
        assert m.normalized is False
        np.testing.assert_array_equal(m.data, [[1, 2], [3, 4], [5, 6]])

    def test_csv_identity_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,0.0\n0.0,1.0\n")
        m = load_embeddings(p)
        np.testing.assert_array_equal(m.data, np.eye(2))

    def test_fvecs_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((5, 4)).astype(np.float32).astype(np.float64)
        m = EmbeddingMatrix(data=data)
        p = tmp_path / "rt.fvecs"
        save_embeddings(m, p)
        raw1 = p.read_bytes()
        loaded = load_embeddings(p)
        assert loaded.rows.dtype == np.float32
        assert loaded.data.tobytes() == data.tobytes()
        save_embeddings(loaded, tmp_path / "rt2.fvecs")
        assert (tmp_path / "rt2.fvecs").read_bytes() == raw1

    def test_csv_round_trip_bitwise_float64(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((6, 3))
        p = tmp_path / "rt.csv"
        save_embeddings(EmbeddingMatrix(data=data), p)
        assert load_embeddings(p).data.tobytes() == data.tobytes()

    def test_cross_format_equality(self, tmp_path):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        m = EmbeddingMatrix(data=data)
        save_embeddings(m, tmp_path / "x.fvecs")
        save_embeddings(m, tmp_path / "x.csv")
        a = load_embeddings(tmp_path / "x.fvecs")
        b = load_embeddings(tmp_path / "x.csv")
        np.testing.assert_array_equal(a.data, b.data)

    def test_fvecs_inconsistent_dimension_reports_offset(self, tmp_path):
        p = tmp_path / "bad.fvecs"
        with open(p, "wb") as f:
            f.write(struct.pack("<i2f", 2, 1.0, 2.0))
            f.write(struct.pack("<i3f", 3, 1.0, 2.0, 3.0))
        with pytest.raises(FormatError, match="byte offset 12"):
            load_embeddings(p)

    def test_fvecs_bad_second_header_in_whole_records(self, tmp_path):
        # the size divides into 12-byte records, so no payload is truncated
        p = tmp_path / "bad.fvecs"
        with open(p, "wb") as f:
            f.write(struct.pack("<i2f", 2, 1.0, 2.0))
            f.write(struct.pack("<i2f", 5, 3.0, 4.0))
        with pytest.raises(
            FormatError, match=r"inconsistent dimension 5 \(expected 2\) at byte offset 12$"
        ):
            load_embeddings(p)

    def test_fvecs_truncated_record(self, tmp_path):
        p = tmp_path / "trunc.fvecs"
        with open(p, "wb") as f:
            f.write(struct.pack("<i2f", 2, 1.0, 2.0))
            f.write(struct.pack("<if", 2, 1.0))
        with pytest.raises(FormatError, match="byte offset"):
            load_embeddings(p)

    def test_fvecs_non_finite(self, tmp_path):
        p = tmp_path / "nan.fvecs"
        write_fvecs_raw(p, [[1.0, float("nan")]])
        with pytest.raises(FormatError, match="non-finite"):
            load_embeddings(p)

    def test_csv_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(FormatError, match="line 2"):
            load_embeddings(p)

    def test_csv_inconsistent_dimension(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n1.0\n")
        with pytest.raises(FormatError, match="line 2"):
            load_embeddings(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_csv_non_finite_names_its_line(self, tmp_path, value):
        # blank lines still count toward the line number
        p = tmp_path / "bad.csv"
        p.write_text(f"1.0,2.0\n\n3.0,4.0\n5.0,{value}\n6.0,7.0\n")
        with pytest.raises(FormatError) as e:
            load_embeddings(p)
        assert str(e.value) == f"{p}: line 4: non-finite value"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("1,2\nnan,4\n5\n", 2, "non-finite value"),
            ("1,2\n5\nnan,4\n", 2, "expected 2 values, got 1"),
            ("1,2\ninf,1\nx,1\n", 2, "non-finite value"),
            ("1,2\nx,1\ninf,1\n", 2, "could not convert string to float: 'x'"),
        ],
        ids=["non-finite-then-ragged", "ragged-then-non-finite",
             "non-finite-then-malformed", "malformed-then-non-finite"],
    )
    def test_csv_first_bad_line_wins(self, tmp_path, text, line, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(FormatError) as e:
            load_embeddings(p)
        assert str(e.value) == f"{p}: line {line}: {message}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_embeddings(tmp_path / "nope.fvecs")

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "a.bin"
        p.write_text("x")
        with pytest.raises(DataError, match="format"):
            load_embeddings(p)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_fvecs_round_trip_property(self, tmp_path_factory, n, d, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
        p = tmp_path_factory.mktemp("rt") / "m.fvecs"
        save_embeddings(EmbeddingMatrix(data=data), p)
        loaded = load_embeddings(p)
        assert loaded.rows.dtype == np.float32
        assert loaded.data.tobytes() == data.tobytes()


class TestEmbeddingMatrix:
    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            EmbeddingMatrix(data=np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(data=np.empty((0, 3)))

    def test_normalized_flag_validated(self):
        with pytest.raises(DataError, match="norm"):
            EmbeddingMatrix(data=np.array([[3.0, 4.0]]), normalized=True)

    def test_data_is_read_only(self):
        m = EmbeddingMatrix(data=np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0] = 7.0


class TestL2Normalize:
    def test_three_four_five(self):
        m = l2_normalize(EmbeddingMatrix(data=np.array([[3.0, 4.0]])))
        np.testing.assert_allclose(m.data, [[0.6, 0.8]], rtol=0, atol=1e-15)
        assert m.normalized

    def test_unit_row_unchanged(self):
        m = l2_normalize(EmbeddingMatrix(data=np.array([[1.0, 0.0]])))
        np.testing.assert_array_equal(m.data, [[1.0, 0.0]])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(3)
        once = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((10, 8))))
        twice = l2_normalize(once)
        assert twice is once

    def test_random_rows_unit_norm(self):
        rng = np.random.default_rng(4)
        m = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((10, 8))))
        np.testing.assert_allclose(np.linalg.norm(m.data, axis=1), 1.0, atol=1e-6)

    def test_zero_norm_row_reports_index(self):
        data = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        with pytest.raises(DataError, match="index 1"):
            l2_normalize(EmbeddingMatrix(data=data))


class TestSelectionFile:
    def test_save_format(self, tmp_path):
        p = tmp_path / "s.txt"
        save_selection(SelectionFile(indices=np.array([4, 0, 7])), p)
        assert p.read_text() == "4\n0\n7\n"

    def test_empty_budget_rejected(self):
        with pytest.raises(DataError, match="budget"):
            SelectionFile(indices=np.array([], dtype=np.int64))

    def test_round_trip_preserves_order(self, tmp_path):
        rng = np.random.default_rng(11)
        idx = rng.choice(1000, size=40, replace=False)
        p = tmp_path / "s.txt"
        save_selection(SelectionFile(indices=idx), p)
        loaded = load_selection(p)
        np.testing.assert_array_equal(loaded.indices, idx)
        assert loaded.budget == 40

    def test_duplicate_on_load(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1\n2\n1\n")
        with pytest.raises(DataError, match="duplicate index 1"):
            load_selection(p)

    def test_out_of_range_with_n(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0\n5\n")
        with pytest.raises(DataError, match="out of range"):
            load_selection(p, n=5)

    def test_two_dimensional_indices_rejected_with_shape(self):
        with pytest.raises(DataError, match=r"1-D, got shape \(2, 2\)"):
            SelectionFile(indices=np.array([[1, 2], [3, 4]]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), budget=st.integers(1, 50))
    def test_round_trip_property(self, tmp_path_factory, seed, budget):
        rng = np.random.default_rng(seed)
        idx = rng.choice(200, size=budget, replace=False)
        p = tmp_path_factory.mktemp("sel") / "s.txt"
        save_selection(SelectionFile(indices=idx), p)
        np.testing.assert_array_equal(load_selection(p, n=200).indices, idx)


class TestLabels:
    def test_round_trip(self, tmp_path):
        labels = LabelVector(labels=np.array([0, 2, 1, 2]), num_classes=3)
        p = tmp_path / "y.txt"
        save_labels(labels, p)
        assert p.read_text() == "0\n2\n1\n2\n"
        loaded = load_labels(p)
        np.testing.assert_array_equal(loaded.labels, labels.labels)
        assert loaded.num_classes == 3

    def test_negative_label_rejected(self):
        with pytest.raises(DataError, match="negative"):
            LabelVector(labels=np.array([0, -1]), num_classes=2)

    def test_label_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            LabelVector(labels=np.array([0, 3]), num_classes=3)

    def test_load_with_explicit_num_classes(self, tmp_path):
        p = tmp_path / "y.txt"
        p.write_text("0\n1\n")
        assert load_labels(p, num_classes=5).num_classes == 5

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "y.txt"
        p.write_text("0\nx\n")
        with pytest.raises(FormatError, match="line 2"):
            load_labels(p)
