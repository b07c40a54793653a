"""Loading and saving observed matrices, the log transform, and energy diagnostics.

Two on-disk formats are supported, both comma-separated UTF-8 text with a
configurable missing-value token (default ".", the mortality-database
convention):

* ``dense_csv`` -- first row holds column labels, first column row labels,
  the body holds numbers or the missing token.
* ``hmd_triplet`` -- one (row-label, col-label, value) triple per line,
  pivoted into a matrix; combinations that never appear are missing.

Labels must parse as numbers (a trailing "+" as in the "110+" age group is
stripped) and become the sampling grids of the matrix. ``write_csv`` is the
package's one CSV writer: every CSV output (matrices, vectors, GCV curves,
spline evaluations, simulation summaries) goes through it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .matrices import ObservedMatrix

__all__ = [
    "MatrixFile",
    "ParseError",
    "load",
    "save",
    "save_dense_csv",
    "save_hmd_triplet",
    "write_csv",
    "matrix_to_json",
    "save_json",
    "log_transform",
    "energy_percentages",
    "format_number",
]


def format_number(x) -> str:
    """A number as CSV text: fixed 17-significant-digit scientific notation,
    which keeps CSV output byte-identical across runs and platforms."""
    return f"{float(x):.16e}"


class ParseError(ValueError):
    """A matrix file failed to parse; the message carries the line number."""


@dataclass(frozen=True)
class MatrixFile:
    """Where a matrix lives on disk and how to read it."""

    path: str
    format: str = "dense_csv"
    missing_token: str = "."

    def __post_init__(self):
        if self.format not in ("dense_csv", "hmd_triplet"):
            raise ValueError(f"format must be 'dense_csv' or 'hmd_triplet', got {self.format!r}")


def _parse_label(text: str, path, line_no: int) -> float:
    # age groups like "110+" are open-ended; strip the marker
    cleaned = text.strip().rstrip("+")
    try:
        return float(cleaned)
    except ValueError:
        raise ParseError(f"{path}:{line_no}: label {text!r} is not numeric") from None


def _parse_cell(text: str, missing_token: str, path, line_no: int):
    text = text.strip()
    if text == missing_token:
        return None
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}: cell {text!r} is neither a number nor the "
            f"missing token {missing_token!r}"
        ) from None


def _load_dense_csv(file: MatrixFile) -> ObservedMatrix:
    with open(file.path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3:
        raise ParseError(f"{file.path}:1: dense matrix needs a header row and at least 2 data rows")
    header = rows[0]
    n = len(header) - 1
    if n < 2:
        raise ParseError(f"{file.path}:1: need at least 2 data columns")
    col_grid = [_parse_label(lab, file.path, 1) for lab in header[1:]]

    row_grid, values, mask = [], [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise ParseError(
                f"{file.path}:{line_no}: ragged row ({len(row)} fields, expected {n + 1})"
            )
        row_grid.append(_parse_label(row[0], file.path, line_no))
        vals, obs = [], []
        for text in row[1:]:
            cell = _parse_cell(text, file.missing_token, file.path, line_no)
            vals.append(0.0 if cell is None else cell)
            obs.append(cell is not None)
        values.append(vals)
        mask.append(obs)
    return ObservedMatrix(np.array(values), np.array(mask), np.array(row_grid), np.array(col_grid))


def _load_hmd_triplet(file: MatrixFile) -> ObservedMatrix:
    with open(file.path, newline="") as fh:
        rows = list(csv.reader(fh))
    entries = {}
    start = 0
    if rows:
        # an optional header line is recognized by a non-numeric first field
        try:
            float(rows[0][0].strip().rstrip("+"))
        except (ValueError, IndexError):
            start = 1
    for line_no, row in enumerate(rows[start:], start=start + 1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ParseError(f"{file.path}:{line_no}: expected 3 fields, got {len(row)}")
        r = _parse_label(row[0], file.path, line_no)
        c = _parse_label(row[1], file.path, line_no)
        if (r, c) in entries:
            raise ParseError(f"{file.path}:{line_no}: duplicate key ({row[0].strip()}, {row[1].strip()})")
        entries[(r, c)] = _parse_cell(row[2], file.missing_token, file.path, line_no)
    if not entries:
        raise ParseError(f"{file.path}:1: no data rows")

    row_grid = sorted({r for r, _ in entries})
    col_grid = sorted({c for _, c in entries})
    values = np.zeros((len(row_grid), len(col_grid)))
    mask = np.zeros_like(values, dtype=bool)
    ri = {r: i for i, r in enumerate(row_grid)}
    ci = {c: j for j, c in enumerate(col_grid)}
    for (r, c), val in entries.items():
        if val is not None:
            values[ri[r], ci[c]] = val
            mask[ri[r], ci[c]] = True
    return ObservedMatrix(values, mask, np.array(row_grid), np.array(col_grid))


def load(file: MatrixFile) -> ObservedMatrix:
    """Read a matrix file into an :class:`ObservedMatrix`."""
    if file.format == "dense_csv":
        return _load_dense_csv(file)
    return _load_hmd_triplet(file)


def _grid_label(x: float) -> str:
    # years/ages print as integers when they are integers
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def write_csv(path, header, rows) -> None:
    """Write a header row, then ``rows``, as comma-separated text with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cells(X: ObservedMatrix, missing_token: str):
    """Per row of X: its grid label and its cells as text, shortest round-trip decimals."""
    for g, values, mask in zip(X.row_grid, X.values.tolist(), X.mask.tolist()):
        yield _grid_label(g), [repr(x) if ok else missing_token for x, ok in zip(values, mask)]


def save_dense_csv(X: ObservedMatrix, path, missing_token: str = ".") -> None:
    """Write the dense format; values use shortest round-trip decimals."""
    write_csv(path, ["row\\col"] + [_grid_label(c) for c in X.col_grid],
              ([label] + cells for label, cells in _cells(X, missing_token)))


def save_hmd_triplet(X: ObservedMatrix, path, missing_token: str = ".") -> None:
    """Write the triplet format, one (row, col, value) line per cell."""
    cols = [_grid_label(c) for c in X.col_grid]
    write_csv(path, ["row", "col", "value"],
              ([label, col, cell] for label, cells in _cells(X, missing_token) for col, cell in zip(cols, cells)))


def save(X: ObservedMatrix, file: MatrixFile) -> None:
    """Write ``X`` in the format described by ``file`` (load/save round-trips)."""
    if file.format == "dense_csv":
        save_dense_csv(X, file.path, file.missing_token)
    else:
        save_hmd_triplet(X, file.path, file.missing_token)


def matrix_to_json(X: ObservedMatrix) -> dict:
    """JSON-ready dict of values, mask, and grids."""
    return {
        "values": X.values.tolist(),
        "mask": X.mask.tolist(),
        "row_grid": X.row_grid.tolist(),
        "col_grid": X.col_grid.tolist(),
    }


def save_json(X: ObservedMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(X), fh)
        fh.write("\n")


def log_transform(X: ObservedMatrix) -> ObservedMatrix:
    """Map every observed cell x to log2(x + 1/2); the mask is untouched.

    The shift keeps zero rates finite (0 maps to -1). Negative observed
    values are rejected by cell.
    """
    bad = X.mask & (X.values < 0)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"log transform needs nonnegative values; cell ({i}, {j}) is {X.values[i, j]}")
    transformed = np.where(X.mask, np.log2(np.where(X.mask, X.values, 1.0) + 0.5), 0.0)
    return X.with_values(transformed)


def energy_percentages(X, k: int = None) -> np.ndarray:
    """Percent of total squared mass captured by each leading singular value.

    Needs a complete matrix, or one whose missing cells are filled, e.g. from
    a fit's reconstruction. The full set sums to 100; the returned leading
    ``k`` are nonincreasing.
    """
    values = X.values if isinstance(X, ObservedMatrix) else np.asarray(X, dtype=float)
    if isinstance(X, ObservedMatrix) and not X.is_complete:
        raise ValueError("energy percentages need a complete matrix; impute the missing cells from a fit's "
                         "reconstruction first: np.where(X.mask, X.values, fit(X).reconstruction())")
    if not values.any():
        raise ValueError("energy percentages are undefined for a zero matrix")
    k = min(values.shape) if k is None else int(k)
    if not 1 <= k <= min(values.shape):
        raise ValueError(f"k must be between 1 and {min(values.shape)}")
    svals = np.linalg.svd(values, compute_uv=False)
    total = float(np.sum(svals**2))
    return 100.0 * svals[:k] ** 2 / total
