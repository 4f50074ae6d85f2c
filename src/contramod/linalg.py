"""Exact Gaussian elimination, kernels, images, equalizers, coequalizers and
the exactness test for chains of maps.

Two echelon engines share one interface: a generic one over Q and F_p whose
rows are sparse dicts of Python ints, and a GF(2) one whose rows are Python
ints used as bitmasks.  Both keep rows fully reduced on demand (Jordan
form), which makes kernels, particular solutions and canonical subspace
bases read off directly.

The engines are incremental: rows are fed one at a time, so very wide or very
tall sparse systems (the Cohom coequalizers over the 512-dimensional
coalgebras) never materialize densely.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .fields import FieldSpec
from .matrix import Mat, _ints, _scalars, kron_identity, map_of_vec


def _eliminate(row: dict, existing: dict, j: int, p: int) -> int:
    """Clear column j of an int row with a stored row whose pivot is j:
    ``row <- e*row - c*existing``, with c and e the two entries at j over
    their gcd, reduced mod p when p > 0.  Returns e (always 1 over F_p,
    whose stored pivots are 1)."""
    c, e = row[j], existing[j]
    if e != 1:
        g = gcd(c, e)
        c, e = c // g, e // g
        if e != 1:
            for k, v in row.items():
                row[k] = v * e
    get = row.get
    for k, v in existing.items():
        s = get(k, 0) - c * v
        if p:
            s %= p
        if s:
            row[k] = s
        else:
            del row[k]
    return e


def _primitive(row: dict) -> None:
    """Divide an int row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k, v in row.items():
            row[k] = v // g


class _EchelonGeneric:
    """Row echelon accumulator over Q or F_p, fraction-free.

    A stored row is a sparse dict of ints standing for itself divided by its
    pivot entry, the entry at its smallest column: over Q the ints are
    coprime and the pivot is positive, over F_p they are representatives
    ``0..p-1`` and the pivot is 1.  Field scalars are read on input and made
    again only by ``row_items`` and ``reduce_vector``.
    """

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: dict[int, dict] = {}  # pivot column -> row
        self._jordan = True

    def rank(self) -> int:
        return len(self.rows)

    def _int_row(self, row: dict) -> tuple[dict, int]:
        """A fresh int copy of a row of scalars, zeros dropped, and the
        scale it was multiplied by."""
        ints, scale = _ints(row, self.field)
        if 0 in ints.values():
            ints = {j: v for j, v in ints.items() if v}
        elif ints is row:
            ints = dict(row)
        return ints, scale.get(None, 1)

    def add_row(self, row: dict) -> bool:
        p = self.field.characteristic
        row, _ = self._int_row(row)
        while row:
            piv = min(row)
            existing = self.rows.get(piv)
            if existing is None:
                if p:
                    inv = pow(row[piv], -1, p)
                    row = {j: v * inv % p for j, v in row.items()}
                else:
                    _primitive(row)
                    if row[piv] < 0:
                        row = {j: -v for j, v in row.items()}
                self.rows[piv] = row
                self._jordan = False
                return True
            if _eliminate(row, existing, piv, p) != 1:
                _primitive(row)
        return False

    def finalize(self):
        """Back-eliminate so every pivot column appears in one row only.
        Rows are done from the last pivot down, so each row met is already
        reduced and one pass over a row's pivot columns clears them all."""
        if self._jordan:
            return
        p, rows = self.field.characteristic, self.rows
        for piv in sorted(rows, reverse=True):
            row = rows[piv]
            scaled = False
            for j in [j for j in row if j != piv and j in rows]:
                scaled |= _eliminate(row, rows[j], j, p) != 1
            if scaled:
                _primitive(row)
        self._jordan = True

    def reduce_vector(self, row: dict) -> dict:
        """Residual of a vector after full reduction (no insertion)."""
        p, rows = self.field.characteristic, self.rows
        row, scale = self._int_row(row)
        # a stored row has no entry left of its pivot, so clearing pivot
        # columns from the left never brings back one already cleared
        done = -1
        while hits := [j for j in row if j > done and j in rows]:
            done = min(hits)
            scale *= _eliminate(row, rows[done], done, p)
        return _scalars(row, self.field, scale)

    def row_items(self):
        f = self.field
        return [(piv, _scalars(dict(r), f, r[piv])) for piv, r in sorted(self.rows.items())]


class _EchelonGF2:
    """Bitmask echelon over GF(2); rows are ints, bit j = column j."""

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: dict[int, int] = {}
        self._jordan = True

    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _pack(row: dict) -> int:
        r = 0
        for j, v in row.items():
            if v & 1:
                r |= 1 << j
        return r

    def add_row(self, row) -> bool:
        r = row if isinstance(row, int) else self._pack(row)
        rows = self.rows
        while r:
            piv = (r & -r).bit_length() - 1
            existing = rows.get(piv)
            if existing is None:
                rows[piv] = r
                self._jordan = False
                return True
            r ^= existing
        return False

    def finalize(self):
        if self._jordan:
            return
        rows = self.rows
        for piv in sorted(rows, reverse=True):
            r = rows[piv]
            own = 1 << piv
            t = r ^ own
            while t:
                low = t & -t
                j = low.bit_length() - 1
                if j in rows and j != piv:
                    r ^= rows[j]
                    t = (r ^ own) & ~((low << 1) - 1)
                else:
                    t &= ~low
            rows[piv] = r
        self._jordan = True

    def reduce_vector(self, row) -> dict:
        r = row if isinstance(row, int) else self._pack(row)
        rows = self.rows
        out = 0
        while r:
            low = r & -r
            j = low.bit_length() - 1
            existing = rows.get(j)
            if existing is None:
                out |= low
                r ^= low
            else:
                r ^= existing
        one = self.field.one()
        return {j: one for j in _bits(out)}

    def row_items(self):
        one = self.field.one()
        return [
            (piv, {j: one for j in _bits(r)})
            for piv, r in sorted(self.rows.items())
        ]


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def make_echelon(field: FieldSpec, ncols: int):
    if field.characteristic == 2:
        return _EchelonGF2(field, ncols)
    return _EchelonGeneric(field, ncols)


# -- subspaces ---------------------------------------------------------------


class Subspace:
    """Subspace of k^ambient with a canonical reduced column-echelon basis.

    ``basis`` has one column per basis vector; ``pivots[t]`` is the leading
    row of column t, and every pivot row meets exactly one basis column with
    entry 1.  Canonicity makes equality a plain comparison.
    """

    __slots__ = ("ambient", "field", "basis", "pivots")

    def __init__(self, ambient: int, field: FieldSpec, basis: Mat, pivots: list):
        self.ambient = ambient
        self.field = field
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_columns(cls, ambient: int, field: FieldSpec, columns) -> "Subspace":
        """Span of sparse column dicts (need not be independent)."""
        ech = make_echelon(field, ambient)
        for col in columns:
            ech.add_row(col)
        ech.finalize()
        items = ech.row_items()
        pivots = [p for p, _ in items]
        entries = [(i, t, v) for t, (_, vec) in enumerate(items) for i, v in vec.items()]
        basis = Mat.from_entries(ambient, len(items), field, entries)
        return cls(ambient, field, basis, pivots)

    @classmethod
    def full(cls, ambient: int, field: FieldSpec) -> "Subspace":
        return cls(
            ambient, field, Mat.identity(ambient, field), list(range(ambient))
        )

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis_columns(self) -> list[dict]:
        cols = self.basis.columns()
        return [cols.get(t, {}) for t in range(self.dim)]

    def contains(self, vec: dict) -> bool:
        return self.coords(vec) is not None

    def coords(self, vec: dict) -> dict | None:
        """Coordinates of vec in the canonical basis, or None if outside.
        Pivot row ``pivots[t]`` meets only column t, with entry 1, so
        coordinate t is ``vec[pivots[t]]``."""
        coeffs = {t: vec[p] for t, p in enumerate(self.pivots) if vec.get(p, 0) != 0}
        if self.basis.apply(coeffs) != {i: v for i, v in vec.items() if v != 0}:
            return None
        return coeffs

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        stacked = self.basis.hstack(other.basis)
        ker = kernel(stacked)
        cols = []
        for kcol in ker.basis_columns():
            part = {i: v for i, v in kcol.items() if i < self.dim}
            vec = self.basis.apply(part)
            cols.append(vec)
        return Subspace.from_columns(self.ambient, self.field, cols)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace.from_columns(
            self.ambient, self.field,
            self.basis_columns() + other.basis_columns(),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim} in k^{self.ambient} over {self.field})"


# -- derived operations --------------------------------------------------------


def row_echelon(mat: Mat):
    ech = make_echelon(mat.field, mat.cols)
    for row in mat.row_groups().values():
        ech.add_row(row)
    return ech


def rank(mat: Mat) -> int:
    # eliminate in the cheaper orientation; rank is symmetric
    if mat.cols <= mat.rows:
        return row_echelon(mat).rank()
    ech = make_echelon(mat.field, mat.rows)
    for col in mat.columns().values():
        ech.add_row(col)
    return ech.rank()


def kernel(mat: Mat) -> Subspace:
    """Right kernel {x : mat @ x = 0} as a canonical subspace of k^cols."""
    f = mat.field
    ech = row_echelon(mat)
    ech.finalize()
    items = ech.row_items()
    pivot_set = {p for p, _ in items}
    free_cols = [j for j in range(mat.cols) if j not in pivot_set]
    cols = []
    one = f.one()
    for j in free_cols:
        vec = {j: one}
        for p, row in items:
            c = row.get(j)
            if c is not None and c != 0:
                vec[p] = f.neg(c)
        cols.append(vec)
    return Subspace.from_columns(mat.cols, f, cols)


def image(mat: Mat) -> Subspace:
    """Column space as a canonical subspace of k^rows."""
    return Subspace.from_columns(mat.rows, mat.field, mat.columns().values())


def exactness_failures(maps: list[Mat]) -> list[int]:
    """Positions where 0 -> X_0 -> X_1 -> ... -> X_k -> 0 is not exact, with
    maps[i]: X_i -> X_{i+1} and k = len(maps): 0 when maps[0] is not
    injective, i when Im maps[i-1] != Ker maps[i], and k when maps[-1] is not
    surjective.  Im = Ker is read as a zero composite (Im inside Ker) plus
    equal dimensions by rank-nullity, so no kernel basis is built; maps that
    do not compose raise ValueError."""
    ranks = [rank(m) for m in maps]
    failures = [0] if ranks[0] != maps[0].cols else []
    for i in range(1, len(maps)):
        if not (maps[i] @ maps[i - 1]).is_zero() or ranks[i - 1] != maps[i].cols - ranks[i]:
            failures.append(i)
    if ranks[-1] != maps[-1].rows:
        failures.append(len(maps))
    return failures


def solve(mat: Mat, rhs: dict) -> dict | None:
    """One solution x of mat @ x = rhs, or None.  Free variables are 0."""
    f = mat.field
    aug_col = mat.cols
    ech = make_echelon(f, mat.cols + 1)
    rows = mat.row_groups()
    for i in range(mat.rows):
        row = dict(rows.get(i, {}))
        b = rhs.get(i)
        if b is not None and b != 0:
            row[aug_col] = b
        if row:
            ech.add_row(row)
    if aug_col in ech.rows:
        return None
    ech.finalize()
    x = {}
    for p, row in ech.row_items():
        c = row.get(aug_col)
        if c is not None and c != 0:
            x[p] = c
    return x


def split_solve(hom_rows: Mat, t: Mat, section: bool) -> Mat | None:
    """A map X with hom_rows @ vec(X) = 0 that splits t, found by one solve,
    or None if there is none: a section, t @ X = identity, when ``section``,
    else a retraction, X @ t = identity.  vec flattens X as in
    :func:`matrix.vec_of_map`, which turns t @ X into (Id (x) t) @ vec(X) and
    X @ t into (t^T (x) Id) @ vec(X)."""
    f = hom_rows.field
    if section:
        e, block = t.rows, kron_identity(t, t.rows, left=True)
    else:
        e, block = t.cols, kron_identity(t.transpose(), t.cols, left=False)
    x = solve(hom_rows.vstack(block), {hom_rows.rows + i * e + i: f.one() for i in range(e)})
    return None if x is None else map_of_vec(x, t.rows, t.cols, f)


@dataclass
class Coequalizer:
    """Quotient of k^ambient by a column span: surjection, dim, and a section
    picking the coset representatives supported on non-pivot rows."""

    quotient_map: Mat
    dim: int
    section: Mat
    image_subspace: Subspace

    def descend(self, lifted: Mat, error: str) -> Mat:
        """The map out of the quotient induced by ``lifted``, a map out of
        k^ambient; raises ValueError(error) unless lifted kills the span."""
        if not (lifted @ self.image_subspace.basis).is_zero():
            raise ValueError(error)
        return lifted @ self.section


def quotient_by_image(sub: Subspace) -> Coequalizer:
    f = sub.field
    ambient = sub.ambient
    pivot_rows = sub.pivots
    pivot_set = set(pivot_rows)
    nonpivot = [i for i in range(ambient) if i not in pivot_set]
    qdim = len(nonpivot)
    basis_cols = sub.basis_columns()
    q_entries = []
    for t, i in enumerate(nonpivot):
        q_entries.append((t, i, f.one()))
        # subtract the echelon combination hitting pivot rows
        for s, col in enumerate(basis_cols):
            c = col.get(i)
            if c is not None and c != 0:
                q_entries.append((t, pivot_rows[s], f.neg(c)))
    quotient_map = Mat.from_entries(qdim, ambient, f, q_entries)
    section = Mat.from_entries(
        ambient, qdim, f, [(i, t, f.one()) for t, i in enumerate(nonpivot)]
    )
    return Coequalizer(quotient_map, qdim, section, sub)


def equalizer(f: Mat, g: Mat) -> Subspace:
    """Kernel of f - g; f and g must have identical shapes."""
    if f.rows != g.rows or f.cols != g.cols:
        raise ValueError(
            f"equalizer shape mismatch: {f.rows}x{f.cols} vs {g.rows}x{g.cols}"
        )
    return kernel(f - g)


def coequalizer(f: Mat, g: Mat) -> Coequalizer:
    """Quotient of the common codomain by Im(f - g); f and g must have
    identical shapes."""
    if f.rows != g.rows or f.cols != g.cols:
        raise ValueError(
            f"coequalizer shape mismatch: {f.rows}x{f.cols} vs {g.rows}x{g.cols}"
        )
    return quotient_by_image(image(f - g))
