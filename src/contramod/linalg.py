"""Exact Gaussian elimination, kernels, images, equalizers, coequalizers and
the exactness test for chains of maps.

Two echelon engines share one interface: a generic one over Q and F_p whose
rows are sparse dicts of Python ints, and a GF(2) one whose rows are Python
ints used as bitmasks.  Both keep rows fully reduced on demand (Jordan
form), which makes kernels, particular solutions and canonical subspace
bases read off directly.

The engines are incremental: rows are fed one at a time, so very wide or very
tall sparse systems (the Cohom coequalizers over the 512-dimensional
coalgebras) never materialize densely.  ``add_ints`` takes int rows the
engine owns, converted once per matrix (:func:`_lines`) or built as ints
(:func:`comodule._hom_rows`); ``add_row`` converts one row of scalars.
"""

from __future__ import annotations

from math import gcd

from .fields import FieldSpec, Record
from .matrix import Mat, _col, _ints, _row, _scalars, kron_identity, map_of_vec


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

    def __init__(self, field: FieldSpec):
        self.field = field
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
        return self.add_ints(self._int_row(row)[0])

    def add_ints(self, row: dict) -> bool:
        """Feed an owned row of nonzero ints, reduced mod p; it is eliminated in place."""
        p = self.field.characteristic
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

    def __init__(self, field: FieldSpec):
        self.field = field
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

    add_ints = add_row

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


def make_echelon(field: FieldSpec, rows=()):
    """An echelon over field, fed the owned int rows ``rows`` (``add_ints``)."""
    ech = _EchelonGF2(field) if field.characteristic == 2 else _EchelonGeneric(field)
    for row in rows:
        ech.add_ints(row)
    return ech


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
        ech = make_echelon(field)
        for col in columns:
            ech.add_row(col)
        return _span(ambient, ech)

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


def _span(ambient: int, ech) -> Subspace:
    """Span of the rows fed to ech as a canonical subspace of k^ambient."""
    ech.finalize()
    items, field = ech.row_items(), ech.field
    # the rows' entries are canonical nonzero scalars at distinct keys
    basis = Mat(ambient, len(items), field,
                {(i, t): v for t, (_, vec) in enumerate(items) for i, v in vec.items()})
    return Subspace(ambient, field, basis, [p for p, _ in items])


def _null_space(ncols: int, ech) -> Subspace:
    """Kernel in k^ncols of the rows fed to ech with column j at ncols - 1 - j."""
    last, field = ncols - 1, ech.field
    ech.finalize()
    items, one = ech.row_items(), field.one()
    free = [j for j in range(ncols) if last - j not in ech.rows]
    where = {last - j: t for t, j in enumerate(free)}
    data = {(j, t): one for t, j in enumerate(free)}
    # a reduced row meets its own pivot and free columns only
    data.update({(last - p, where[k]): field.neg(c) for p, row in items for k, c in row.items() if k != p})
    return Subspace(ncols, field, Mat(ncols, len(free), field, data), free)


# -- derived operations --------------------------------------------------------


def _lines(mat: Mat, line, at):
    """mat's lines as fresh int dicts, entry k at position at(k) of line
    line(k), read by one :func:`matrix._ints` pass with a scale per line,
    which leaves row spans, kernels and ranks as they are."""
    ints, _ = _ints(mat.data, mat.field, line)
    out: dict = {}
    for k, v in ints.items():
        out.setdefault(line(k), {})[at(k)] = v
    return out.values()


def rank(mat: Mat) -> int:
    # eliminate in the cheaper orientation; rank is symmetric
    lines = _lines(mat, _row, _col) if mat.cols <= mat.rows else _lines(mat, _col, _row)
    return make_echelon(mat.field, lines).rank()


def kernel(mat: Mat) -> Subspace:
    """Right kernel {x : mat @ x = 0} as a canonical subspace of k^cols.

    The rows are eliminated with column j relabelled last - j, so a reduced
    row leads with its largest original column.  The null vector of a free
    column j, e_j minus the entries at j of the reduced rows, then meets only
    j and pivot columns above j: j leads it and no other free column meets
    it.  In ascending j these vectors are the canonical reduced basis, read
    off with no second elimination (:func:`_null_space`)."""
    last = mat.cols - 1
    return _null_space(mat.cols, make_echelon(mat.field, _lines(mat, _row, lambda k: last - k[1])))


def image(mat: Mat) -> Subspace:
    """Column space as a canonical subspace of k^rows."""
    return _span(mat.rows, make_echelon(mat.field, _lines(mat, _col, _row)))


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
    f, aug_col = mat.field, mat.cols
    aug = dict(mat.data)
    aug.update({(i, aug_col): b for i, b in rhs.items() if b != 0 and i < mat.rows})
    ech = make_echelon(f, _lines(Mat(mat.rows, aug_col + 1, f, aug), _row, _col))
    if aug_col in ech.rows:
        return None
    ech.finalize()
    return {p: row[aug_col] for p, row in ech.row_items() if aug_col in row}


def split_solve(hom_rows: Mat, t: Mat) -> Mat | None:
    """A retraction X of t, X @ t = identity, with hom_rows @ vec(X) = 0,
    found by one solve, or None if there is none.  vec(X) holds X[y, x] at
    x*t.cols + y (:func:`matrix.map_of_vec`), so X @ t is (t^T (x) Id) @ vec(X)."""
    f, e = hom_rows.field, t.cols
    block = kron_identity(t.transpose(), e, left=False)
    x = solve(hom_rows.vstack(block), {hom_rows.rows + i * e + i: f.one() for i in range(e)})
    return None if x is None else map_of_vec(x, t.rows, e, f)


class Coequalizer(Record):
    """Quotient of k^ambient by a subspace (:func:`quotient_by_image`), with
    ``section`` picking the coset representatives supported on the non-pivot
    rows, ``nonpivot[t]`` for coordinate t of the quotient, and ``where``
    the inverse index, nonpivot[t] -> t."""

    def __init__(self, quotient_map: Mat, dim: int, section: Mat, image_subspace: Subspace, where: dict):
        self.quotient_map = quotient_map
        self.dim = dim
        self.section = section
        self.image_subspace = image_subspace
        self.where = where

    def descend(self, lifted: Mat, error: str) -> Mat:
        """The map out of the quotient induced by ``lifted``, a map out of
        k^ambient; raises ValueError(error) unless lifted kills the subspace.
        It is lifted @ section, read by index: column ``nonpivot[t]`` of
        lifted, as column t."""
        if not (lifted @ self.image_subspace.basis).is_zero():
            raise ValueError(error)
        where = self.where
        return Mat(lifted.rows, self.dim, lifted.field,
                   {(r, where[j]): v for (r, j), v in lifted.data.items() if j in where})


def quotient_by_image(sub: Subspace) -> Coequalizer:
    """k^ambient / sub by index arithmetic on sub's canonical basis B, with
    pick the projection onto sub's pivot rows: the quotient map is
    section^T o (Id - B o pick).  Its row t has 1 at ``nonpivot[t]`` and
    -B[nonpivot[t], s] at ``pivots[s]``, since pivot row ``pivots[s]`` of B
    meets only column s, with entry 1."""
    f, pivots, one = sub.field, sub.pivots, sub.field.one()
    nonpivot = sorted(set(range(sub.ambient)).difference(pivots))
    where = {i: t for t, i in enumerate(nonpivot)}
    q = {(t, i): one for i, t in where.items()}
    q.update({(where[i], pivots[s]): f.neg(v) for (i, s), v in sub.basis.data.items() if i in where})
    qdim = len(nonpivot)
    section = Mat(sub.ambient, qdim, f, {(i, t): one for i, t in where.items()})
    return Coequalizer(Mat(qdim, sub.ambient, f, q), qdim, section, sub, where)


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
