"""Sparse exact matrices and the global tensor index convention.

Everything in this package identifies a basis vector ``e_i (x) e_j`` of a
tensor product ``X (x) Y`` with the single index ``i * dim(Y) + j``; the
identification is associative, so triple products need no extra bookkeeping.
Linear maps ``Hom(X, Y)`` are flattened the same way via ``X* (x) Y``, i.e.
the matrix entry ``F[y, x]`` sits at flat index ``x * dim(Y) + y``.

Matrices are immutable by convention: construct once, never mutate.  Storage
is a dict keyed by ``(row, col)`` holding nonzero scalars only, which is what
the 512-dimensional coalgebras at the top of the catalog require.

Products (``@``, ``apply``, ``kron``, ``push``) run on Python ints: over Q
each row of the left operand and each column of the right one (each row, for
``kron``) is scaled to integers by the lcm of its own denominators, and an
output nonzero is an int where the scale divides it and a ``Fraction`` only
for a true fraction.  A rational operand whose scalars are all integral
(canonical rationals are ints when integral, see :mod:`fields`) is read as
it stands, with no conversion and no scale.  Over F_p each output entry is
reduced once.  :func:`push` applies a map along one tensor factor, the
product ``kron_identity(t, n, left) @ m`` without forming the Kronecker
product; restriction, coaction pushes and the comodule-map test run on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable

from .fields import FieldSpec


def _ints(data: dict, field: FieldSpec, line=None) -> tuple[dict, dict]:
    """Scalars as ints, each line of entries scaled by the lcm of its own
    denominators, so the scale stays bounded by one row or column however
    many denominators the whole operand has.  ``line(key)`` names the line
    of an entry (its row or column); without it the dict is one line, keyed
    ``None``.  Returns the ints and ``{line: scale}`` for the lines whose
    scale is not 1.  A dict with no ``Fraction`` in it (every one over F_p,
    and over Q every one whose scalars are integral) is returned itself,
    not copied, with ``{}``: callers read it and never write to it."""
    if field.characteristic or Fraction not in set(map(type, data.values())):
        return data, {}
    # Fraction's numerator and denominator are properties, a Python call
    # each; the slots behind them are read directly
    scales: dict = {}
    for k, v in data.items():
        if type(v) is not int and v._denominator != 1:
            ln = line(k) if line else None
            s = scales.get(ln, 1)
            if s % v._denominator:
                scales[ln] = lcm(s, v._denominator)
    if line is None:
        s = scales.get(None, 1)
        return {k: v * s if type(v) is int else v._numerator * (s // v._denominator)
                for k, v in data.items()}, scales
    get = scales.get
    return {k: v * get(line(k), 1) if type(v) is int
            else v._numerator * (get(line(k), 1) // v._denominator)
            for k, v in data.items()}, scales


def _scalars(acc: dict, field: FieldSpec, scale=1) -> dict:
    """Turn an int accumulator into canonical nonzero scalars in place and
    return it: entry k becomes ``acc[k] / scale``, where ``scale`` is an int
    or a function of k.  Over Q that is an int where the scale divides the
    entry, and a ``Fraction`` only for a true fraction."""
    p = field.characteristic
    if p:
        for k, v in acc.items():
            acc[k] = v % p
    elif callable(scale):
        for k, v in acc.items():
            s = scale(k)
            if s != 1:
                acc[k] = v // s if v % s == 0 else Fraction(v, s)
    elif scale != 1:
        for k, v in acc.items():
            acc[k] = v // scale if v % scale == 0 else Fraction(v, scale)
    if 0 in acc.values():
        for k in [k for k, v in acc.items() if not v]:
            del acc[k]
    return acc


_row, _col = itemgetter(0), itemgetter(1)


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
    def identity(cls, n, field):
        one = field.one()
        return cls(n, n, field, {(i, i): one for i in range(n)})

    @classmethod
    def from_entries(cls, rows, cols, field, entries: Iterable):
        """Accumulate ``(i, j, value)`` triples; repeated keys add up."""
        p = field.characteristic
        data = {}
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            # canonical scalars need no coercion
            if p == 0:
                if type(v) is not int:
                    v = field.of(v)
            elif type(v) is not int or not 0 <= v < p:
                v = field.of(v)
            if not v:
                continue
            old = data.get((i, j))
            if old is None:
                data[i, j] = v
            elif acc := field.add(old, v):
                data[i, j] = acc
            else:
                del data[i, j]
        return cls(rows, cols, field, data)

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
        a, sa = _ints(self.data, f, _row)
        b, sb = _ints(other.data, f, _col)
        brows: dict = {}
        for (k, j), vb in b.items():
            brows.setdefault(k, {})[j] = vb
        acc: dict = {}
        get = acc.get
        for (i, k), va in a.items():
            row = brows.get(k)
            if row:
                for j, vb in row.items():
                    acc[i, j] = get((i, j), 0) + va * vb
        scale = (lambda k: sa.get(k[0], 1) * sb.get(k[1], 1)) if sa or sb else 1
        return Mat(self.rows, other.cols, f, _scalars(acc, f, scale))

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
        a, sa = _ints(self.data, f, _row)
        b, sb = _ints(other.data, f, _row)
        r, c = other.rows, other.cols
        data = {(i * r + k, j * c + l): va * vb
                for (i, j), va in a.items() for (k, l), vb in b.items()}
        # output row i*r + k carries the scales of row i of self and row k of other
        scale = (lambda key: sa.get(key[0] // r, 1) * sb.get(key[0] % r, 1)) if sa or sb else 1
        return Mat(self.rows * r, self.cols * c, f, _scalars(data, f, scale))

    def apply(self, vec: dict) -> dict:
        """Image of a sparse column vector, as a sparse dict."""
        f = self.field
        a, sa = _ints(self.data, f, _row)
        x, sx = _ints(vec, f)
        acc: dict = {}
        get = acc.get
        for (i, j), v in a.items():
            c = x.get(j)
            if c:
                acc[i] = get(i, 0) + v * c
        s = sx.get(None, 1)
        return _scalars(acc, f, (lambda i: sa.get(i, 1) * s) if sa else s)

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols or self.field != other.field:
            raise ValueError("vstack mismatch")
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i + self.rows, j)] = v
        return Mat(self.rows + other.rows, self.cols, self.field, data)


def kron_identity(t: Mat, n: int, left: bool) -> Mat:
    """``Id_n (x) t`` when ``left``, else ``t (x) Id_n``: the Kronecker
    product with an identity, its entries copied without arithmetic."""
    r, c = t.rows, t.cols
    if left:
        data = {(a * r + i, a * c + j): v for a in range(n) for (i, j), v in t.data.items()}
    else:
        data = {(i * n + a, j * n + a): v for (i, j), v in t.data.items() for a in range(n)}
    return Mat(n * r, n * c, t.field, data)


def push(t: Mat, n: int, left: bool, m: Mat) -> Mat:
    """``kron_identity(t, n, left) @ m`` by index arithmetic, on ints as ``@``
    runs: weight t[i, j] takes m's row a*t.cols + j to row a*t.rows + i when
    ``left``, else row j*n + a to row i*n + a."""
    r, c = t.rows, t.cols
    if n * c != m.rows:
        raise ValueError(f"cannot compose {n * r}x{n * c} with {m.rows}x{m.cols}")
    if t.field != m.field:
        raise ValueError("field mismatch")
    f = t.field
    a, sa = _ints(t.data, f, _row)
    b, sb = _ints(m.data, f, _col)
    tcols: dict = {}
    for (i, j), va in a.items():
        tcols.setdefault(j, []).append((i if left else i * n, va))
    acc: dict = {}
    get = acc.get
    for (x, k), vb in b.items():
        hi, lo = divmod(x, c if left else n)
        base, j = (hi * r, lo) if left else (lo, hi)
        for off, va in tcols.get(j, ()):
            key = base + off, k
            acc[key] = get(key, 0) + va * vb
    t_row = (lambda y: y % r) if left else (lambda y: y // n)
    scale = (lambda key: sa.get(t_row(key[0]), 1) * sb.get(key[1], 1)) if sa or sb else 1
    return Mat(n * r, m.cols, f, _scalars(acc, f, scale))


def map_of_vec(vec: dict, dim_x: int, dim_y: int, field: FieldSpec) -> Mat:
    """The map F: k^dim_x -> k^dim_y whose X* (x) Y coordinates are vec:
    entry F[y, x] is vec[x*dim_y + y]."""
    data = {}
    for idx, v in vec.items():
        x, y = divmod(idx, dim_y)
        if v != 0:
            data[(y, x)] = v
    return Mat(dim_y, dim_x, field, data)
