"""Comodules over a coalgebra: axioms, cofree objects, hom spaces, cotensor,
duals, injectivity and head/radical structure.

Every coaction is stored once, in left layout: a comodule of dimension m
over an n-dimensional coalgebra C keeps an (n*m) x m matrix
``left_coaction``, row c*m + i meaning e_c (x) e_i.  A right C-comodule is
stored as a left C^cop-comodule, so every construction runs on one layout;
``side`` says whether the stored matrix is over C or C^cop, which only the
axiom checker and the constructors that read Delta need.  The right layout,
row i*n + c, is the view ``coaction``.  The one reindexing of a stored
matrix is :func:`dual_comodule`'s block transpose.  A contramodule is a left
comodule on the same matrix, and the constructions here that build a new
object of the same kind return a contramodule for one.  Hom(M, N) is the
kernel of one system on M* (x) N, written from the stored entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm

from .coalgebra import Coalgebra, Verdict
from .linalg import Coequalizer, Subspace, kernel, quotient_by_image, split_solve
from .matrix import Mat, _ints, _scalars, kron_identity, map_of_vec, push


@dataclass
class Comodule:
    coalgebra: Coalgebra
    side: str   # "left" | "right"
    dim: int
    left_coaction: Mat   # (n * dim) x dim, row c*dim + i; over C^cop when side is right
    name: str = ""

    def __post_init__(self):
        n, m = self.coalgebra.dim, self.dim
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {self.side!r}")
        if self.left_coaction.rows != n * m or self.left_coaction.cols != m:
            raise ValueError(f"coaction must be {n * m}x{m}")
        if self.left_coaction.field != self.coalgebra.field:
            raise ValueError("field mismatch")

    @property
    def field(self):
        return self.coalgebra.field

    @property
    def coaction(self) -> Mat:
        """The coaction in its side's layout: ``left_coaction`` for a left
        comodule, rows i*n + c for a right one, M -> M (x) C."""
        if self.side == "left":
            return self.left_coaction
        n, md = self.coalgebra.dim, self.dim
        return Mat(md * n, md, self.field,
                   {((idx % md) * n + idx // md, j): v
                    for (idx, j), v in self.left_coaction.data.items()})

    def __repr__(self):
        label = self.name or "comodule"
        return f"Comodule({label}, {self.side}, dim={self.dim} over {self.coalgebra.name or self.coalgebra.dim})"


def check_comodule(m: Comodule) -> Verdict:
    """Coassociativity square and counit triangle of the stored left
    coaction, over C^cop for a right comodule.  The sums run on Python ints: each
    law scales the matrices it reads (coaction, Delta, epsilon) to integers,
    by one common denominator per matrix, and holds when the scaled
    difference of its two sides is 0 in the field."""
    failures = []
    if not _coassociative(m):
        failures.append("coassociativity")
    if not counit_holds(m):
        failures.append("counit")
    return Verdict(failures)


def _int_entries(a: Mat) -> tuple[dict, int]:
    """The entries of a as ints over one common scale: a = ints / scale."""
    ints, scale = _ints(a.data, a.field)
    return ints, scale.get(None, 1)


def _vanishes(acc: dict, p: int) -> bool:
    """Every int in acc is 0 in the field of characteristic p."""
    # map(p.__rmod__, ...) is v % p for each v, without a Python-level loop
    return not any(map(p.__rmod__, acc.values())) if p else not any(acc.values())


def _coassociative(m: Comodule) -> bool:
    """(Delta (x) Id) o coaction = (Id (x) coaction) o coaction, column by
    column, on the stored coaction = ints / s.  Both sides are brought
    to the scale s*s*sd, Delta = delta / sd, and subtracted in one dict."""
    c = m.coalgebra
    n, md = c.dim, m.dim
    coact, s = _int_entries(m.left_coaction)
    delta, sd = _int_entries(c.delta)
    coact_cols: dict = {}
    for (idx, k), v in coact.items():
        coact_cols.setdefault(k, {})[idx] = v
    delta_cols: dict = {}
    if m.side == "right":  # Delta^cop, read off Delta's rows
        for (x, k), w in delta.items():
            delta_cols.setdefault(k, {})[(x % n) * n + x // n] = w
    else:
        for (x, k), w in delta.items():
            delta_cols.setdefault(k, {})[x] = w
    p = c.field.characteristic
    for col in coact_cols.values():
        acc: dict = {}
        get = acc.get
        for idx, v in col.items():
            cc, i = divmod(idx, md)
            vs = v * s
            for idx2, w in delta_cols.get(cc, {}).items():
                key = idx2 * md + i
                acc[key] = get(key, 0) + vs * w
            vs, base = v * sd, cc * n * md
            for idx2, w in coact_cols.get(i, {}).items():
                key = base + idx2
                acc[key] = get(key, 0) - vs * w
        if not _vanishes(acc, p):
            return False
    return True


def counit_holds(m: Comodule) -> bool:
    """The counit law (eps (x) Id) o coaction = Id of the stored coaction,
    which is that of a right comodule too, since C^cop has C's counit.
    Summed on ints: with the coaction = ints / s and eps = ints / se, the
    sum is compared with the identity at scale s*se."""
    c, md = m.coalgebra, m.dim
    coact, s = _int_entries(m.left_coaction)
    eps, se = _int_entries(c.epsilon)
    eps = {cc: e for (_, cc), e in eps.items()}
    acc: dict = {}
    for (idx, k), v in coact.items():
        e = eps.get(idx // md)
        if e:
            key = (idx % md, k)
            acc[key] = acc.get(key, 0) + e * v
    one = s * se
    for k in range(md):
        acc[k, k] = acc.get((k, k), 0) - one
    return _vanishes(acc, c.field.characteristic)


# -- constructions ---------------------------------------------------------


def cofree(c: Coalgebra, d: int, side: str = "left") -> Comodule:
    """Carrier C (x) k^d with coaction Delta (x) Id, or k^d (x) C with
    Id (x) Delta on the right side, whose stored row z*d*n + a*n + y holds
    Delta's entry at row y*n + z, for each a < d."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if side == "left":
        return Comodule(c, "left", c.dim * d, kron_identity(c.delta, d, left=False),
                        name=f"cofree({d})")
    n = c.dim
    entries = [(z * d * n + y, k, v) for (x, k), v in c.delta.data.items() for y, z in [divmod(x, n)]]
    data = {(row + a * n, a * n + k): v for a in range(d) for row, k, v in entries}
    return Comodule(c, "right", d * n, Mat(n * d * n, d * n, c.field, data), name=f"cofree_r({d})")


def comodule_over_self(c: Coalgebra, side: str = "left") -> Comodule:
    """C over itself: Delta, or on the right side the cofree comodule on k,
    whose stored matrix is Delta^cop."""
    if side == "left":
        return Comodule(c, "left", c.dim, c.delta, name=f"{c.name or 'C'}-regular")
    return replace(cofree(c, 1, side), name=f"{c.name or 'C'}-regular")


def trivial_comodule(c: Coalgebra, grouplike_vec: dict) -> Comodule:
    """One-dimensional left comodule along a grouplike element."""
    coact = Mat.column(grouplike_vec, c.dim, c.field)
    return Comodule(c, "left", 1, coact, name="trivial")


def direct_sum(m1: Comodule, m2: Comodule) -> Comodule:
    """Block sum of the stored matrices: row c*d + i, column j, d = d1 + d2."""
    if m1.coalgebra is not m2.coalgebra and m1.coalgebra != m2.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m1.side != m2.side:
        raise ValueError("side mismatch")
    d = m1.dim + m2.dim
    data = {}
    for off, m in ((0, m1), (m1.dim, m2)):
        for (idx, j), v in m.left_coaction.data.items():
            c, i = divmod(idx, m.dim)
            data[(c * d + off + i, off + j)] = v
    coact = Mat(m1.coalgebra.dim * d, d, m1.field, data)
    return replace(m1, dim=d, left_coaction=coact, name=f"{m1.name}+{m2.name}")


def dual_comodule(m: Comodule) -> Comodule:
    """Dual of a left comodule is a right comodule on M* (and conversely):
    the stored matrix swaps i and j inside each block c.  With the fixed
    index conventions the double dual is literally the original matrix."""
    md = m.dim
    coact = Mat(m.coalgebra.dim * md, md, m.field,
                {((idx // md) * md + j, idx % md): v
                 for (idx, j), v in m.left_coaction.data.items()})
    other = "right" if m.side == "left" else "left"
    return Comodule(m.coalgebra, other, md, coact, f"{m.name}*")


# -- hom spaces and cotensor --------------------------------------------------


def _hom_system(x: Comodule, y: Comodule) -> Mat:
    """Hom(X, Y) is the kernel of F -> coaction_Y o F - (Id_C (x) F) o coaction_X
    on X* (x) Y, from the stored coactions.  Column v*yd + w holds coaction_Y[r, w] at row
    v*n*yd + r, minus coaction_X[c*xd + v, v'] at row v'*n*yd + c*yd + w, summed on
    ints over the lcm of the two coactions' scales.  Its rows are also the
    relations of Cohom(Y, X) (:func:`contramodule.cohom`)."""
    if x.coalgebra != y.coalgebra:
        raise ValueError("coalgebra mismatch")
    if x.side != y.side:
        raise ValueError("side mismatch")
    n, xd, yd, fld = x.coalgebra.dim, x.dim, y.dim, x.field
    coact_x, sx = _int_entries(x.left_coaction)
    coact_y, sy = _int_entries(y.left_coaction)
    s = lcm(sx, sy)
    ex, ey = s // sx, s // sy
    data = {(v * n * yd + r, v * yd + w): val * ey
            for v in range(xd) for (r, w), val in coact_y.items()}
    get = data.get
    for (idx, vcol), val in coact_x.items():
        row, col, val = vcol * n * yd + idx // xd * yd, idx % xd * yd, val * ex
        for w in range(yd):
            key = row + w, col + w
            data[key] = get(key, 0) - val
    return Mat(xd * n * yd, xd * yd, fld, _scalars(data, fld, s))


def hom_comodules(m: Comodule, n_mod: Comodule) -> Subspace:
    """All comodule maps M -> N as a subspace of M* (x) N."""
    return kernel(_hom_system(m, n_mod))


def hom_basis_maps(m: Comodule, n_mod: Comodule, sub: Subspace | None = None) -> list[Mat]:
    """Decode a hom subspace into matrices N.dim x M.dim."""
    if sub is None:
        sub = hom_comodules(m, n_mod)
    return [map_of_vec(col, m.dim, n_mod.dim, m.field) for col in sub.basis_columns()]


def is_comodule_map(m: Comodule, n_mod: Comodule, t: Mat) -> bool:
    """Whether coaction_N o t = (Id_C (x) t) o coaction_M."""
    if m.coalgebra != n_mod.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m.side != n_mod.side:
        return False
    return n_mod.left_coaction @ t == push(t, m.coalgebra.dim, True, m.left_coaction)


def cotensor(m: Comodule, n_mod: Comodule) -> Subspace:
    """Cotensor of a right comodule with a left comodule inside M (x) N,
    computed as Hom(M*, N), which flattens over M (x) N with the same index."""
    if m.side != "right" or n_mod.side != "left":
        raise ValueError("cotensor needs (right, left) arguments")
    return hom_comodules(dual_comodule(m), n_mod)


# -- subobjects and quotients ---------------------------------------------------


def _coaction_slices(m: Comodule, vecs: list[dict]) -> list[dict]:
    """Apply the coaction to each vector and slice the result by coalgebra
    index: one ``{c: vector}`` per input."""
    md, coact = m.dim, m.left_coaction
    out = []
    for vec in vecs:
        slices: dict = {}
        for idx, v in coact.apply(vec).items():
            cc, i = divmod(idx, md)
            slices.setdefault(cc, {})[i] = v
        out.append(slices)
    return out


def comodule_closure(m: Comodule, vectors: list[dict]) -> Subspace:
    """Smallest subcomodule containing the given vectors."""
    sub = Subspace.from_columns(m.dim, m.field, vectors)
    while True:
        extra = [
            slice_vec
            for slices in _coaction_slices(m, sub.basis_columns())
            for slice_vec in slices.values()
            if not sub.contains(slice_vec)
        ]
        if not extra:
            return sub
        sub = sub.add(Subspace.from_columns(m.dim, m.field, extra))


def sub_comodule(m: Comodule, sub: Subspace) -> tuple[Comodule, Mat]:
    """Restrict the coaction to a stable subspace; returns (N, inclusion)."""
    k = sub.dim
    entries = []
    for t, slices in enumerate(_coaction_slices(m, sub.basis_columns())):
        for cc, slice_vec in slices.items():
            coords = sub.coords(slice_vec)
            if coords is None:
                raise ValueError("subspace is not a subcomodule")
            for s, v in coords.items():
                entries.append((cc * k + s, t, v))
    coact = Mat.from_entries(m.coalgebra.dim * k, k, m.field, entries)
    return replace(m, dim=k, left_coaction=coact, name=f"{m.name}|sub"), sub.basis


def quotient_comodule(m: Comodule, sub: Subspace) -> tuple[Comodule, Mat]:
    """Quotient by a subcomodule; returns (M/sub, projection)."""
    coeq = quotient_by_image(sub)
    return _descend_coaction(m, coeq), coeq.quotient_map


def _descend_coaction(m: Comodule, coeq: Coequalizer) -> Comodule:
    """M/sub, for coeq the quotient of M's carrier by a subcomodule sub."""
    # (Id (x) q) o coaction kills sub iff the coaction maps sub into C (x) sub
    lifted = push(coeq.quotient_map, m.coalgebra.dim, True, m.left_coaction)
    coact = coeq.descend(lifted, "subspace is not a subcomodule")
    return replace(m, dim=coeq.dim, left_coaction=coact, name=f"{m.name}/sub")


# -- injectivity ----------------------------------------------------------------


def is_injective(m: Comodule) -> tuple[bool, Mat | None]:
    """Split the canonical cofree embedding given by the coaction.

    Returns (flag, retraction): the coaction embeds M into the cofree
    comodule on its own carrier, and M is injective iff that embedding
    admits a comodule retraction, found by one linear solve.
    """
    amb = cofree(m.coalgebra, m.dim, side=m.side)
    # the coaction in its side's layout is the embedding of M into amb's carrier
    retraction = split_solve(_hom_system(amb, m), m.coaction, section=False)
    return retraction is not None, retraction


# -- head and radical -------------------------------------------------------------


@dataclass
class HeadRadical:
    radical: Subspace
    head: dict  # simple label -> multiplicity


def head_radical(m: Comodule, simples: list[Comodule]) -> HeadRadical:
    """Radical and head multiplicities relative to a complete list of simples.

    The list must be complete and irredundant for the coalgebra; this is the
    caller's obligation and cannot be detected here.
    """
    f = m.field
    stacked_rows = []
    head = {}
    for idx, s in enumerate(simples):
        hom = hom_comodules(m, s)
        if hom.dim == 0:
            continue
        end_dim = hom_comodules(s, s).dim
        label = s.name or f"simple{idx}"
        mult, rem = divmod(hom.dim, end_dim)
        if rem:
            raise ValueError("hom dimension not divisible by endomorphism dimension")
        head[label] = mult
        stacked_rows.extend(hom_basis_maps(m, s, hom))
    if not stacked_rows:
        return HeadRadical(Subspace.full(m.dim, f), {})
    big = stacked_rows[0]
    for t in stacked_rows[1:]:
        big = big.vstack(t)
    return HeadRadical(kernel(big), head)
