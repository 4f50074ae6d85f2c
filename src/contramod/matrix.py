"""Sparse exact matrices and the global tensor index convention.

Everything in this package identifies a basis vector ``e_i (x) e_j`` of a
tensor product ``X (x) Y`` with the single index ``i * dim(Y) + j``; the
identification is associative, so triple products need no extra bookkeeping.
Linear maps ``Hom(X, Y)`` are flattened the same way via ``X* (x) Y``, i.e.
the matrix entry ``F[y, x]`` sits at flat index ``x * dim(Y) + y``.

Matrices are immutable by convention: construct once, never mutate.  Storage
is a dict keyed by ``(row, col)`` holding nonzero scalars only, which is what
the 512-dimensional coalgebras at the top of the catalog require.
"""

from __future__ import annotations

from typing import Iterable

from .fields import FieldSpec


class Mat:
    """Sparse matrix over an exact field."""

    __slots__ = ("rows", "cols", "field", "data")

    def __init__(self, rows: int, cols: int, field: FieldSpec, data=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        self.field = field
        self.data = {} if data is None else data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, field):
        return cls(rows, cols, field)

    @classmethod
    def identity(cls, n, field):
        one = field.one()
        return cls(n, n, field, {(i, i): one for i in range(n)})

    @classmethod
    def from_entries(cls, rows, cols, field, entries: Iterable):
        """Accumulate ``(i, j, value)`` triples; repeated keys add up."""
        data = {}
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = field.of(v)
            if v == 0:
                continue
            acc = field.add(data.get((i, j), field.zero()), v)
            if acc == 0:
                data.pop((i, j), None)
            else:
                data[(i, j)] = acc
        return cls(rows, cols, field, data)

    @classmethod
    def from_dense(cls, rows_list, field):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        entries = (
            (i, j, v) for i, row in enumerate(rows_list) for j, v in enumerate(row)
        )
        return cls.from_entries(rows, cols, field, entries)

    @classmethod
    def column(cls, vec: dict, rows: int, field):
        return cls(rows, 1, field, {(i, 0): v for i, v in vec.items() if v != 0})

    # -- accessors ----------------------------------------------------------

    def __getitem__(self, key):
        return self.data.get(key, self.field.zero())

    def col(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.data.items() if jj == j}

    def columns(self) -> dict:
        """Group entries by column: ``{j: {i: value}}``, zero columns absent."""
        out: dict = {}
        for (i, j), v in self.data.items():
            out.setdefault(j, {})[i] = v
        return out

    def row_groups(self) -> dict:
        out: dict = {}
        for (i, j), v in self.data.items():
            out.setdefault(i, {})[j] = v
        return out

    def to_dense(self):
        z = self.field.zero()
        dense = [[z] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            dense[i][j] = v
        return dense

    @property
    def nnz(self) -> int:
        return len(self.data)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field}, nnz={self.nnz})"

    # -- arithmetic ----------------------------------------------------------

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._check_same_shape(other)
        f = self.field
        data = dict(self.data)
        for k, v in other.data.items():
            s = f.add(data.get(k, f.zero()), v)
            if s == 0:
                data.pop(k, None)
            else:
                data[k] = s
        return Mat(self.rows, self.cols, f, data)

    def __neg__(self):
        f = self.field
        return Mat(self.rows, self.cols, f, {k: f.neg(v) for k, v in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        if self.field != other.field:
            raise ValueError("field mismatch")
        f = self.field
        brows = other.row_groups()
        acc: dict = {}
        for (i, k), va in self.data.items():
            row = brows.get(k)
            if not row:
                continue
            for j, vb in row.items():
                key = (i, j)
                s = f.add(acc.get(key, 0), f.mul(va, vb))
                acc[key] = s
        data = {k: v for k, v in acc.items() if v != 0}
        return Mat(self.rows, other.cols, f, data)

    def transpose(self):
        return Mat(
            self.cols, self.rows, self.field,
            {(j, i): v for (i, j), v in self.data.items()},
        )

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product under the fixed convention: block (i, j) is
        ``self[i, j] * other``, so ``e_i (x) e_k`` maps to index
        ``i * other.rows + k``."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        f = self.field
        data = {}
        for (i, j), va in self.data.items():
            for (k, l), vb in other.data.items():
                data[(i * other.rows + k, j * other.cols + l)] = f.mul(va, vb)
        return Mat(self.rows * other.rows, self.cols * other.cols, f, data)

    def apply(self, vec: dict) -> dict:
        """Image of a sparse column vector, as a sparse dict."""
        f = self.field
        cols = self.columns()
        acc: dict = {}
        for j, c in vec.items():
            col = cols.get(j)
            if not col:
                continue
            for i, v in col.items():
                s = f.add(acc.get(i, f.zero()), f.mul(v, c))
                if s == 0:
                    acc.pop(i, None)
                else:
                    acc[i] = s
        return acc

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.field != other.field:
            raise ValueError("hstack mismatch")
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i, j + self.cols)] = v
        return Mat(self.rows, self.cols + other.cols, self.field, data)

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols or self.field != other.field:
            raise ValueError("vstack mismatch")
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i + self.rows, j)] = v
        return Mat(self.rows + other.rows, self.cols, self.field, data)


def kron(f: Mat, g: Mat) -> Mat:
    return f.kron(g)


def vec_of_map(m: Mat) -> dict:
    """Flatten Hom(X, Y) to X* (x) Y coordinates: F[y, x] at x*rows(Y)+y."""
    return {x * m.rows + y: v for (y, x), v in m.data.items()}


def map_of_vec(vec: dict, dim_x: int, dim_y: int, field: FieldSpec) -> Mat:
    """Inverse of :func:`vec_of_map`."""
    data = {}
    for idx, v in vec.items():
        x, y = divmod(idx, dim_y)
        if v != 0:
            data[(y, x)] = v
    return Mat(dim_y, dim_x, field, data)
