"""CSV import/export for frames and data vectors, and plain report values.

Complex values are stored as paired ``*_re`` / ``*_im`` columns: one row
per point and one column pair per vector.  Rows follow the point order, so
exports are deterministic.
"""
from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np


def write_columns_csv(path, matrix: np.ndarray) -> None:
    """Write complex column vectors (frame or data) as paired re/im columns."""
    arr = np.asarray(matrix, dtype=complex)
    mat = arr[:, None] if arr.ndim == 1 else np.atleast_2d(arr)
    header = [f"c{j}_{part}" for j in range(mat.shape[1]) for part in ("re", "im")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # row x of the float64 view is re, im of each column in turn; rows
        # go out as lists of Python floats, which format faster than
        # numpy scalars, to the same text
        writer.writerows(map(np.ndarray.tolist, np.ascontiguousarray(mat).view(np.float64)))


def read_columns_csv(path) -> np.ndarray:
    """Read complex column vectors written by :func:`write_columns_csv`.

    Its exact inverse: each row's fields are read back as the float64 view
    of a complex row, so every bit returns as written, signed zeros too.
    Every refusal is a ``ValueError`` naming the file: an empty file (no
    header), a bad header, a row of the wrong width, a non-finite value,
    no data rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: no header")
        if len(header) % 2 or not header:
            raise ValueError(f"{path}: expected paired re/im columns")
        d = len(header) // 2
        for j in range(d):
            if header[2 * j] != f"c{j}_re" or header[2 * j + 1] != f"c{j}_im":
                raise ValueError(f"{path}: unexpected header {header}")
        data = []
        for line, row in enumerate(reader, start=2):
            if len(row) != 2 * d:
                raise ValueError(f"{path}:{line}: expected {2 * d} fields")
            values = [float(v) for v in row]
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{line}: non-finite value")
            data.append(values)
    if not data:
        raise ValueError(f"{path}: no data rows")
    return np.array(data, dtype=np.float64).view(complex)


def plain_value(value):
    """``value`` as plain JSON data: a dataclass as the dict of its fields,
    a tuple or list as a list, a numpy scalar as the Python value, anything
    else as it is.  ``bool`` is tested before ``int``, its base class."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain_value(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [plain_value(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def ensure_parent(path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p
