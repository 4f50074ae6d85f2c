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
one.  Cohom is the quotient of M* (x) B by the rows of the system whose
kernel is Hom(B, M) (:func:`comodule._hom_system`), over every field.  The
tower needs only dimensions over F2 and forms no contramodule of a stage:
:func:`gf2_cohom_dims` reads those of a whole battery of modules against
one stage in one pass, from theta's columns packed as int bitmasks in the
layout ``{monomial c: {column beta: mask}}`` (:func:`comodule._gf2_masks`).
"""

from __future__ import annotations

from collections import Counter

from . import comodule
from .coalgebra import Coalgebra, Verdict
from .comodule import Comodule
from .fields import GF2, Record
from .linalg import Coequalizer, Subspace, _bits, kernel, make_echelon, quotient_by_image, rank
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
    relations are the rows of its system :func:`comodule._hom_system`, over
    every field (:func:`_cohom_quotient`)."""
    if m.coalgebra != b.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m.side != "left":
        raise ValueError("cohom needs a left comodule")
    return _cohom_quotient(comodule._hom_system(b, m), m.dim, b.dim)


def _cohom_quotient(system: Mat, dm: int, db: int) -> Coequalizer:
    """M* (x) B by the rows of ``system = comodule._hom_system(B, M)``, for
    dm = dim M and db = dim B: row x, with entry v at column beta*dm + k of
    B* (x) M, is the relation column x with v at row k*db + beta."""
    rows: dict = {}
    for (x, y), v in system.data.items():
        beta, k = divmod(y, dm)
        rows.setdefault(x, {})[k * db + beta] = v
    return quotient_by_image(Subspace.from_columns(dm * db, system.field, rows.values()))


def gf2_cohom_dims(modules: list, db: int, ts: dict) -> list[int]:
    """dim Cohom over F2 of each left comodule V of ``modules`` against one
    contramodule B given only by its dimension db and theta's masks
    ts = {c: {beta: mask}} (:func:`comodule._gf2_masks`).  A caller holding
    the masks, as the tower does for each stage, forms no B.

    Cohom's relations, the rows of the Hom system (:func:`cohom`), span
    L_V (x) k^dim V plus the rows at W_V, the monomials where V has a
    coaction row, with L_V the span of the lone masks, the values of ts at
    every other monomial: there a row is one mask alone, shifted into one
    block of k^db (x) k^dim V.  So dim Cohom is dim V * q minus the rank of
    the rows at W_V read in (k^db / L_V) (x) k^dim V, q = db - dim L_V.  The
    lone values outside every module's W are eliminated once for the
    battery, and the masks are read in the quotient by their span
    (:func:`_quotient`); each module then quotients that by the values at
    the other modules' W, read there.
    The row (K_{c,i} << beta) ^ (T_{c,beta} << i*db) becomes dim V * q
    bits, the coordinates of e_beta in chunk k for each bit k*db of
    K_{c,i}, XOR those of T_{c,beta} in chunk i, and at each c only the
    distinct pairs of the two over beta give rows."""
    ws = [{r // v.dim for r, _ in v.left_coaction.data} for v in modules]
    w_all = set().union(*ws)
    lone = make_echelon(GF2)
    for t in {t for c in ts if c not in w_all for t in ts[c].values()}:
        lone.add_row(t)
    q0, read0 = _quotient(lone, db)
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

    Both sides read one system, ``comodule._hom_system(W, V)``, built once:
    Cohom is the quotient of V* (x) W, index x*dim W + y, by its rows
    (:func:`_cohom_quotient`), and Hom(W, V) its kernel in W* (x) V, index
    y*dim V + x.  So the pairing kills Cohom's relations for any coaction
    data and is well defined on the section representatives; with the Hom
    basis reindexed to the first layout it is a plain dot product.  The
    check certifies that the pairing is perfect, not that either side is
    right: the tests hold the independent Kronecker and dict-column oracles
    for Cohom.
    """
    if v.side != "left" or w.side != "left":
        raise ValueError("duality check needs left comodules")
    dv, dw = v.dim, w.dim
    system = comodule._hom_system(w, v)
    co, hom = _cohom_quotient(system, dv, dw), kernel(system)
    hom_basis = Mat(dv * dw, hom.dim, v.field,
                    {((i % dv) * dw + i // dv, s): val for (i, s), val in hom.basis.data.items()})
    return DualityReport(co.dim, hom.dim, rank(co.section.transpose() @ hom_basis))
