import json

import numpy as np
import pytest

from robrsvd.dataio import (
    MatrixFile,
    ParseError,
    energy_percentages,
    load,
    log_transform,
    matrix_to_json,
    save,
    save_json,
)
from robrsvd.matrices import ObservedMatrix


def write(path, text):
    path.write_text(text)
    return str(path)


def test_dense_csv_with_missing_token(tmp_path):
    path = write(tmp_path / "m.csv", "year\\age,0,1\n1908,0.5,.\n1909,0.25,0.125\n")
    X = load(MatrixFile(path))
    assert X.shape == (2, 2)
    np.testing.assert_array_equal(X.mask, [[True, False], [True, True]])
    assert X.values[0, 0] == 0.5
    np.testing.assert_array_equal(X.row_grid, [1908.0, 1909.0])
    np.testing.assert_array_equal(X.col_grid, [0.0, 1.0])


def test_triplet_format_pivots_and_masks(tmp_path):
    path = write(
        tmp_path / "t.csv",
        "year,age,rate\n1908,0,0.2\n1908,1,0.1\n1909,0,0.15\n1909,1,.\n",
    )
    X = load(MatrixFile(path, format="hmd_triplet"))
    assert X.shape == (2, 2)
    assert X.values[0, 0] == 0.2
    assert X.values[1, 0] == 0.15
    assert not X.mask[1, 1]
    assert X.mask.sum() == 3


def test_triplet_header_optional(tmp_path):
    path = write(tmp_path / "t.csv", "1908,0,0.2\n1908,1,0.1\n1909,0,0.3\n1909,1,0.4\n")
    X = load(MatrixFile(path, format="hmd_triplet"))
    assert X.shape == (2, 2)
    assert X.mask.all()


@pytest.mark.parametrize("fmt, text", [
    ("hmd_triplet", "1908,0,0.5\n1908,1,.\n1909,0,0.25\n1909,1,0.125\n"),
    ("dense_csv", "year\\age,0,1\n1908,0.5,.\n1909,0.25,0.125\n"),
], ids=["hmd_triplet", "dense_csv"])
def test_byte_order_mark_is_not_part_of_the_first_field(tmp_path, fmt, text):
    # a BOM-prefixed first field used to fail float(), so the triplet reader
    # took its first data row for the optional header and dropped cell (1908, 0)
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    want, got = (load(MatrixFile(str(p), format=fmt)) for p in (plain, bom))
    np.testing.assert_array_equal(got.mask, want.mask)
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got.row_grid, want.row_grid)
    np.testing.assert_array_equal(got.col_grid, want.col_grid)
    assert got.mask.sum() == 3


def test_open_age_group_label(tmp_path):
    path = write(tmp_path / "m.csv", "year,109,110+\n1908,0.5,0.7\n1909,0.4,0.6\n")
    X = load(MatrixFile(path))
    np.testing.assert_array_equal(X.col_grid, [109.0, 110.0])


def test_dense_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(100)
    values = rng.standard_normal((7, 5))
    mask = rng.random((7, 5)) > 0.2
    X = ObservedMatrix(values, mask, np.arange(7.0), np.arange(5.0))
    f = MatrixFile(str(tmp_path / "round.csv"))
    save(X, f)
    Y = load(f)
    np.testing.assert_array_equal(Y.values, X.values)
    np.testing.assert_array_equal(Y.mask, X.mask)
    np.testing.assert_array_equal(Y.row_grid, X.row_grid)
    np.testing.assert_array_equal(Y.col_grid, X.col_grid)


def test_triplet_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(101)
    values = rng.standard_normal((4, 6))
    mask = rng.random((4, 6)) > 0.15
    X = ObservedMatrix(values, mask, np.arange(4.0), np.arange(6.0))
    f = MatrixFile(str(tmp_path / "round.csv"), format="hmd_triplet")
    save(X, f)
    Y = load(f)
    np.testing.assert_array_equal(Y.values, X.values)
    np.testing.assert_array_equal(Y.mask, X.mask)


def test_ragged_row_error_carries_line_number(tmp_path):
    path = write(tmp_path / "bad.csv", "r,0,1\n1,0.5,0.5\n2,0.5\n")
    with pytest.raises(ParseError, match=":3"):
        load(MatrixFile(path))


def test_unparseable_cell_error_carries_line_number(tmp_path):
    path = write(tmp_path / "bad.csv", "r,0,1\n1,0.5,oops\n2,0.5,0.5\n")
    with pytest.raises(ParseError, match=":2"):
        load(MatrixFile(path))


def test_duplicate_triplet_key_rejected(tmp_path):
    path = write(tmp_path / "bad.csv", "1908,0,0.2\n1908,0,0.3\n1909,0,0.1\n1909,1,0.1\n1908,1,0.1\n")
    with pytest.raises(ParseError, match="duplicate"):
        load(MatrixFile(path, format="hmd_triplet"))


def test_non_numeric_label_rejected(tmp_path):
    path = write(tmp_path / "bad.csv", "r,a,b\n1,0.5,0.5\n2,0.5,0.5\n")
    with pytest.raises(ParseError, match="label"):
        load(MatrixFile(path))


def test_log_transform_examples():
    X = ObservedMatrix(np.array([[0.0, 0.5], [3.5, 1.5]]))
    T = log_transform(X)
    assert T.values[0, 0] == pytest.approx(-1.0)
    assert T.values[0, 1] == pytest.approx(0.0)
    assert T.values[1, 0] == pytest.approx(2.0)
    np.testing.assert_array_equal(T.mask, X.mask)


def test_log_transform_monotone_and_mask_preserving():
    rng = np.random.default_rng(102)
    values = rng.uniform(0, 5, (6, 6))
    mask = rng.random((6, 6)) > 0.2
    X = ObservedMatrix(values, mask)
    T = log_transform(X)
    order = np.argsort(values[mask])
    assert np.all(np.diff(T.values[mask][order]) >= 0)
    assert np.all(T.values[~mask] == 0.0)


def test_log_transform_rejects_negative_cell():
    X = ObservedMatrix(np.array([[1.0, -0.25], [1.0, 1.0]]))
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        log_transform(X)


def test_energy_rank_one_is_hundred_percent():
    u = np.arange(1.0, 6.0)
    v = np.ones(4)
    pct = energy_percentages(np.outer(u, v), 2)
    assert pct[0] == pytest.approx(100.0, abs=1e-9)
    assert pct[1] == pytest.approx(0.0, abs=1e-9)


def test_energy_diagonal_example():
    pct = energy_percentages(np.diag([3.0, 4.0]), 2)
    np.testing.assert_allclose(pct, [64.0, 36.0], atol=1e-12)


def test_energy_matches_full_svd_oracle():
    rng = np.random.default_rng(103)
    X = rng.standard_normal((10, 6))
    pct = energy_percentages(X)
    svals = np.linalg.svd(X, compute_uv=False)
    np.testing.assert_allclose(pct, 100 * svals**2 / np.sum(svals**2), rtol=1e-12)
    assert np.sum(pct) == pytest.approx(100.0, abs=1e-9)
    assert np.all(np.diff(pct) <= 0)


def test_energy_scale_invariant():
    rng = np.random.default_rng(104)
    X = rng.standard_normal((5, 5))
    np.testing.assert_allclose(energy_percentages(X), energy_percentages(-3.7 * X), rtol=1e-10)


def test_energy_rejects_incomplete_or_zero():
    with pytest.raises(ValueError, match="zero"):
        energy_percentages(np.zeros((3, 3)))
    X = ObservedMatrix(np.ones((3, 3)), np.eye(3, dtype=bool))
    with pytest.raises(ValueError, match="impute"):
        energy_percentages(X)
    with pytest.raises(ValueError):
        energy_percentages(np.ones((3, 3)), 5)


def test_json_export(tmp_path):
    X = ObservedMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[True, False], [True, True]]))
    d = matrix_to_json(X)
    assert d["values"][0][1] == 0.0
    assert d["mask"][0][1] is False
    path = tmp_path / "m.json"
    save_json(X, path)
    loaded = json.loads(path.read_text())
    assert loaded == d


def test_matrix_file_validation():
    with pytest.raises(ValueError):
        MatrixFile("x.csv", format="parquet")
