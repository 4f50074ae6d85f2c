"""Finite-dimensional contramodules: axioms, free objects, the comodule
conversion, contratensor, Cohom, projectivity and the Hom/Cohom duality
pairing.

Over a finite-dimensional coalgebra a contramodule is the same thing as a
left comodule, so a :class:`Contramodule` is a left :class:`Comodule` that
stores the same matrix, ``left_coaction``, row c*b + i for b = dim.  Its
structure map theta, a b x (n*b) matrix under Hom(C, B) = C* (x) B with
column j*b + k meaning (dual basis vector j) (x) (basis vector k), is the
view ``theta``: theta[i, c*b + k] = left_coaction[c*b + i, k].  The
tensor-hom adjunction used throughout is Hom(U, Hom(V, W)) = Hom(V (x) U, W),
the orientation that makes these LEFT contramodules.  So
:func:`contra_from_comodule` copies no entry, and the axioms are the
comodule checker's.  Hom spaces, maps, subobjects, quotients and direct
sums have no names here: the :mod:`comodule` functions
(``hom_comodules``, ``is_comodule_map``, ``comodule_closure``,
``sub_comodule``, ``quotient_comodule``, ``direct_sum``) take
contramodules, and those that build an object return a contramodule for
one.  Over F2 Cohom reads B only as theta's columns packed as int
bitmasks in the layout ``{monomial c: {column beta: mask}}``
(:func:`comodule._gf2_masks`), which :func:`gf2_cohom_dims` takes as an
argument: the tower tensors each stage's masks from its factors and forms
no contramodule of the stage.  :func:`gf2_cohom_dims` reads the dimensions
of a whole battery of modules against one stage in one pass, modulo the
span of the masks at the monomials where no module has a coaction row; the
relations themselves, which the quotient needs, are
:func:`_gf2_relations`, and both take that span from :func:`_lone_echelon`.
"""

from __future__ import annotations

from collections import Counter

from . import comodule
from .coalgebra import Coalgebra, Verdict
from .comodule import Comodule
from .fields import GF2, Record
from .linalg import Coequalizer, Subspace, _bits, make_echelon, quotient_by_image, rank
from .matrix import Mat


class Contramodule(Comodule):
    """A left comodule, built as ``Contramodule(coalgebra, dim, left_coaction, name)``."""

    def __init__(self, coalgebra: Coalgebra, dim: int, left_coaction: Mat, name: str = ""):
        super().__init__(coalgebra, "left", dim, left_coaction, name)

    def replace(self, **changes) -> "Contramodule":
        """Record.replace without ``side``, which is always left."""
        kept = {k: v for k, v in vars(self).items() if k != "side" and k not in changes}
        return Contramodule(**kept, **changes)

    @property
    def theta(self) -> Mat:
        """The contra-action C* (x) B -> B as a b x (n*b) matrix."""
        b = self.dim
        return Mat(b, self.coalgebra.dim * b, self.field,
                   {(idx % b, idx - idx % b + k): v for (idx, k), v in self.left_coaction.data.items()})

    def __repr__(self):
        label = self.name or "contramodule"
        return f"Contramodule({label}, dim={self.dim} over {self.coalgebra.name or self.coalgebra.dim})"


_CONTRA_AXIOMS = {"counit": "contra-unity", "coassociativity": "contra-associativity"}


def check_contramodule(b: Contramodule) -> Verdict:
    """Contra-unity and contra-associativity, checked as the counit and
    coassociativity of the stored left coaction."""
    failed = comodule.check_comodule(b).failures
    return Verdict([name for axiom, name in _CONTRA_AXIOMS.items() if axiom in failed])


# -- constructions -----------------------------------------------------------


def free_contramodule(c: Coalgebra, d: int) -> Contramodule:
    """Hom(C, k^d) = C* (x) k^d: :func:`contra_from_dual` of C over itself on
    the right, the cofree right comodule on k, whose theta is the
    comultiplication."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    free = contra_from_dual(comodule.cofree(c, 1, "right"), d)
    free.name = f"free({d})"
    return free


def contra_from_comodule(w: Comodule) -> Contramodule:
    """The natural dual-algebra action on a finite-dimensional left comodule,
    as a contra-action: evaluate the functional against the coaction.  The
    contramodule keeps the comodule's matrix."""
    if w.side != "left":
        raise ValueError("conversion defined for left comodules")
    return Contramodule(w.coalgebra, w.dim, w.left_coaction, name=f"{w.name}~contra")


def contra_from_dual(m: Comodule, d: int) -> Contramodule:
    """Hom(M, k^d) as a contramodule, for M a finite-dimensional right
    comodule; carrier M* (x) k^d.  Stored row j*md + i of M is
    e_i (x) e_j, and its entry v at column s becomes
    theta[s*d + l, j*b + i*d + l] = v, b = md*d, so that M = C over itself
    gives the free contramodule on k^d."""
    if m.side != "right":
        raise ValueError("contra_from_dual needs a right comodule")
    md, c = m.dim, m.coalgebra
    b = md * d
    # one distinct key per stored entry and l, so the entries are copied as they are
    coact = Mat(c.dim * b, b, c.field,
                {(idx // md * b + s * d + l, idx % md * d + l): v
                 for (idx, s), v in m.left_coaction.data.items() for l in range(d)})
    return Contramodule(c, b, coact, name=f"hom({m.name},k^{d})")


# -- contratensor and Cohom -------------------------------------------------------


def cohom(m: Comodule, b: Contramodule) -> Coequalizer:
    """Cohom as the quotient of Hom(M, B) = M* (x) B by the relations
    f(x) - g(x), where f and g: Hom(C (x) M, B) -> Hom(M, B) precompose with
    the coaction and apply the contra-action.

    Hom(B, M) is the equalizer of the transposes of f and g, so the
    relations are the rows of its system :func:`comodule._hom_system`:
    row x, with entry v at column beta*dm + k of B* (x) M, is the relation
    column x with v at row k*db + beta of M* (x) B, for dm = dim M and
    db = dim B.  Over F2 a set of int bitmasks with the same span comes
    from theta's masks grouped by monomial (:func:`comodule._gf2_masks`,
    read by :func:`_gf2_relations`).
    """
    if m.coalgebra != b.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m.side != "left":
        raise ValueError("cohom needs a left comodule")
    dm, db, fld = m.dim, b.dim, m.field
    if fld.characteristic == 2:
        cols = _gf2_relations(m, db, comodule._gf2_masks(b))
    else:
        rows: dict = {}
        for (x, y), v in comodule._hom_system(b, m).data.items():
            beta, k = divmod(y, dm)
            rows.setdefault(x, {})[k * db + beta] = v
        cols = rows.values()
    return quotient_by_image(Subspace.from_columns(dm * db, fld, cols))


def gf2_cohom_dims(modules: list, db: int, ts: dict) -> list[int]:
    """dim Cohom over F2 of each left comodule V of ``modules`` against one
    contramodule B given only by its dimension db and theta's masks
    ts = {c: {beta: mask}} (:func:`comodule._gf2_masks`).  A caller holding
    the masks, as the tower does for each stage, forms no B.

    Cohom's relations (:func:`_gf2_relations`) are L_V (x) k^dim V plus the
    rows at W_V, the monomials where V has a coaction row, with L_V the span
    of the lone masks, the values of ts at every other monomial.  So dim
    Cohom is dim V * q minus the rank of the rows at W_V read in
    (k^db / L_V) (x) k^dim V, q = db - dim L_V.  The lone values outside
    every module's W are eliminated once for the battery, and the masks are
    read in the quotient by their span (:func:`_quotient`); each module
    then quotients that by the values at the other modules' W, read there.
    The row (K_{c,i} << beta) ^ (T_{c,beta} << i*db) becomes dim V * q
    bits, the coordinates of e_beta in chunk k for each bit k*db of
    K_{c,i}, XOR those of T_{c,beta} in chunk i, and at each c only the
    distinct pairs of the two over beta give rows."""
    ws = [{r // v.dim for r, _ in v.left_coaction.data} for v in modules]
    w_all = set().union(*ws)
    q0, read0 = _quotient(_lone_echelon(ts, [c for c in ts if c not in w_all]), db)
    at = {c: {read0(t) for t in ts[c].values()} for c in w_all if c in ts}
    units0 = [read0(1 << beta) for beta in range(db)]
    dims = []
    for v, w in zip(modules, ws):
        extra = make_echelon(GF2)
        for x in set().union(*(at[c] for c in w_all - w if c in at)):
            extra.add_row(x)
        q, read = _quotient(extra, q0)
        dm, unit = v.dim, [read(x) for x in units0]
        ks: dict = {}
        for r, k in v.left_coaction.data:
            ks[r] = ks.get(r, 0) | 1 << k * q
        uses = Counter(unit)
        rows = set()
        for c in w:
            block = ts.get(c, {})
            pairs = {(unit[beta], read(read0(t))) for beta, t in block.items()}
            inside = Counter(unit[beta] for beta in block)
            pairs.update((u, 0) for u, count in uses.items() if count > inside[u])
            for i in range(dm):
                kq, off = ks.get(c * dm + i, 0), i * q
                rows.update(a * kq ^ x << off for a, x in pairs)
        rows.discard(0)
        relations = make_echelon(GF2)
        dims.append(dm * q - sum(map(relations.add_row, rows)))
    return dims


def _lone_echelon(ts: dict, monomials):
    """The GF(2) echelon of the distinct mask values of ts at
    ``monomials``: a basis of the lone masks' span when those are the
    monomials where a module has no coaction row."""
    ech = make_echelon(GF2)
    for t in {t for c in monomials for t in ts[c].values()}:
        ech.add_row(t)
    return ech


def _quotient(ech, width: int):
    """(q, read) for k^width / span(ech), q = width - rank: read(t) packs
    the coordinates of an int bitmask t there as q bits, bit s the parity of
    t & phi_s, for q functionals phi_s spanning the annihilator of the span.
    They are read off the reduced echelon: for each free column j, e_j plus
    e_p for each pivot row p with bit j.  read is memoized by value."""
    ech.finalize()
    phis = {j: 1 << j for j in range(width) if j not in ech.rows}
    for p, r in ech.rows.items():
        for j in _bits(r ^ 1 << p):
            phis[j] |= 1 << p
    phis = list(phis.values())
    seen = {0: 0}

    def read(t: int) -> int:
        x = seen.get(t)
        if x is None:
            x = seen[t] = sum(((phi & t).bit_count() & 1) << s for s, phi in enumerate(phis))
        return x

    return len(phis), read


def _gf2_relations(m: Comodule, db: int, ts: dict) -> set:
    """A set of ints that spans Cohom's relations over F2, and is no larger
    than the nonzero rows of ``comodule._hom_system(b, m)``, for B of
    dimension db with theta's masks T_{c, beta} = ts[c][beta].  A relation
    has bit k*db + beta for the system's column beta*dm + k.  K_r has bit
    k*db for each coaction[r, k] = 1, and the row for (beta, r),
    r = c*dm + i, is (K_r << beta) ^ (T_{c, beta} << i*db).  These rows are
    kept, as a set without the zero row, for each monomial c where M has a
    coaction row.  At every other c the rows are the masks of block ts[c]
    alone, shifted into each block i: the lone masks, the union of those
    blocks' values, are replaced by a basis of their span
    (:func:`_lone_echelon`), shifted into each block, which spans the
    same."""
    dm = m.dim
    ks: dict = {}
    for r, k in m.left_coaction.data:
        ks[r] = ks.get(r, 0) | 1 << k * db
    with_k = {r // dm for r in ks}
    cols = set()
    for c in with_k:
        block = ts.get(c, {})
        tc = [block.get(beta, 0) for beta in range(db)]
        for i in range(dm):
            kr, off = ks.get(c * dm + i, 0), i * db
            cols.update((kr << beta) ^ (t << off) for beta, t in enumerate(tc))
    lone = _lone_echelon(ts, [c for c in ts if c not in with_k]).rows.values()
    cols.update(t << i * db for t in lone for i in range(dm))
    cols.discard(0)
    return cols


def contratensor(m: Comodule, b: Contramodule) -> Coequalizer:
    """Contratensor product of a right comodule with a contramodule, computed
    as Cohom(M*, B): the same quotient of M (x) B by the same relations."""
    if m.side != "right":
        raise ValueError("contratensor needs a right comodule")
    return cohom(comodule.dual_comodule(m), b)


# -- projectivity -----------------------------------------------------------------


def is_projective(b: Contramodule) -> tuple[bool, Mat | None]:
    """Split the canonical free presentation: theta is a contra-homomorphism
    onto B from the free contramodule on B's carrier, and B is projective iff
    it has a contra-homomorphism section.  The k-dual of such a section is a
    retraction r of the cofree embedding of B*, so the split is
    :func:`comodule.is_injective` of B*, and r[i, j*n + c] is the section's
    entry at (c*b + j, i)."""
    n, bd = b.coalgebra.dim, b.dim
    flag, r = comodule.is_injective(comodule.dual_comodule(b))
    if not flag:
        return False, None
    return True, Mat(n * bd, bd, b.field, {(x % n * bd + x // n, i): v for (i, x), v in r.data.items()})


# -- duality ------------------------------------------------------------------------


class DualityReport(Record):
    def __init__(self, cohom_dim: int, hom_dim: int, pairing_rank: int):
        self.cohom_dim = cohom_dim
        self.hom_dim = hom_dim
        self.pairing_rank = pairing_rank

    @property
    def ok(self) -> bool:
        return self.cohom_dim == self.hom_dim == self.pairing_rank


def duality_check(v: Comodule, w: Comodule) -> DualityReport:
    """Compare Cohom(V, W-as-contramodule) with Hom(W, V)* and certify the
    trace pairing between them is perfect.

    Both sides read one system, ``comodule._hom_system(W, V)``: Cohom is the
    quotient of V* (x) W, index x*dim W + y, by its rows (packed as bitmasks
    over F2), and Hom(W, V) its kernel in W* (x) V, index y*dim V + x.  So
    the pairing kills Cohom's relations for any coaction data and is well
    defined on the section representatives; with the Hom basis reindexed to
    the first layout it is a plain dot product.  The check certifies that
    the pairing is perfect, not that either side is right: the tests hold
    the independent Kronecker and dict-column oracles for Cohom.
    """
    if v.side != "left" or w.side != "left":
        raise ValueError("duality check needs left comodules")
    co = cohom(v, contra_from_comodule(w))
    hom = comodule.hom_comodules(w, v)
    dv, dw = v.dim, w.dim
    hom_basis = Mat(dv * dw, hom.dim, v.field,
                    {((i % dv) * dw + i // dv, s): val for (i, s), val in hom.basis.data.items()})
    return DualityReport(co.dim, hom.dim, rank(co.section.transpose() @ hom_basis))
