"""Finite-dimensional contramodules: axioms, free objects, contra-hom spaces,
the comodule conversion, contratensor, Cohom, projectivity and the
Hom/Cohom duality pairing.

Over a finite-dimensional coalgebra a contramodule is the same thing as a
left comodule, so a :class:`Contramodule` is a left :class:`Comodule` that
stores the same matrix, ``left_coaction``, row c*b + i for b = dim.  Its
structure map theta, a b x (n*b) matrix under Hom(C, B) = C* (x) B with
column j*b + k meaning (dual basis vector j) (x) (basis vector k), is the
view ``theta``: theta[i, c*b + k] = left_coaction[c*b + i, k].  The
tensor-hom adjunction used throughout is Hom(U, Hom(V, W)) = Hom(V (x) U, W),
the orientation that makes these LEFT contramodules.  So
:func:`contra_from_comodule` copies no entry, and the axioms, hom spaces,
subobjects, quotients and direct sums are the comodule code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import comodule
from .coalgebra import Coalgebra, Verdict
from .comodule import Comodule
from .linalg import Coequalizer, Subspace, quotient_by_image, rank, split_solve
from .matrix import Mat


@dataclass
class Contramodule(Comodule):
    """Built as ``Contramodule(coalgebra, dim, left_coaction, name)``."""

    side: str = field(default="left", init=False)
    _masks: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def theta(self) -> Mat:
        """The contra-action C* (x) B -> B as a b x (n*b) matrix."""
        b = self.dim
        return Mat(b, self.coalgebra.dim * b, self.field,
                   {(idx % b, idx - idx % b + k): v for (idx, k), v in self.left_coaction.data.items()})

    @property
    def gf2_masks(self) -> dict:
        """Theta's columns over F2 as int bitmasks, T_y with bit beta' for
        each theta[beta', y] = 1.  They depend on B alone, so they are built
        on first read and kept with the matrix they were read off."""
        if self._masks is None or self._masks[0] is not self.left_coaction:
            self._masks = (self.left_coaction, _gf2_masks(self))
        return self._masks[1]

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


def trivial_contramodule(c: Coalgebra, grouplike_vec: dict) -> Contramodule:
    """k with theta = evaluation at a grouplike element."""
    return Contramodule(c, 1, Mat.column(grouplike_vec, c.dim, c.field), name="trivial")


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


# -- contra-hom spaces and subobjects: the comodule code on the same matrix -------


def hom_contra(b: Contramodule, d: Contramodule) -> Subspace:
    """Contra-homomorphisms B -> D as a subspace of B* (x) D."""
    return comodule.hom_comodules(b, d)


# the comodule constructions return a contramodule for a contramodule
direct_sum = comodule.direct_sum
hom_contra_basis_maps = comodule.hom_basis_maps
is_contra_map = comodule.is_comodule_map
contra_closure = comodule.comodule_closure
sub_contramodule = comodule.sub_comodule
quotient_contramodule = comodule.quotient_comodule


# -- contratensor and Cohom -------------------------------------------------------


def cohom(m: Comodule, b: Contramodule) -> Coequalizer:
    """Cohom as the quotient of Hom(M, B) = M* (x) B by the relations
    f(x) - g(x), where f and g: Hom(C (x) M, B) -> Hom(M, B) precompose with
    the coaction and apply the contra-action.

    Hom(B, M) is the equalizer of the transposes of f and g, so the
    relations are the rows of its system :func:`comodule._hom_system`:
    row x, with entry v at column beta*dm + k of B* (x) M, is the relation
    column x with v at row k*db + beta of M* (x) B, for dm = dim M and
    db = dim B.  Over F2 the same rows come packed as int bitmasks
    (:func:`_gf2_relations`).
    """
    if m.coalgebra != b.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m.side != "left":
        raise ValueError("cohom needs a left comodule")
    dm, db, fld = m.dim, b.dim, m.field
    if fld.characteristic == 2:
        return quotient_by_image(Subspace.from_columns(dm * db, fld, _gf2_relations(m, b)))
    cols: dict = {}
    for (x, y), v in comodule._hom_system(b, m).data.items():
        beta, k = divmod(y, dm)
        cols.setdefault(x, {})[k * db + beta] = v
    return quotient_by_image(Subspace.from_columns(dm * db, fld, cols.values()))


def _gf2_masks(b: Contramodule) -> dict:
    """T_y for each column y of theta, read off B's stored coaction: entry
    (c*db + beta', k) sets bit beta' of T_(c*db + k)."""
    db = b.dim
    ts: dict = {}
    for idx, k in b.left_coaction.data:
        bp = idx % db
        y = idx - bp + k
        ts[y] = ts.get(y, 0) | 1 << bp
    return ts


def _gf2_relations(m: Comodule, b: Contramodule) -> set:
    """The rows of ``comodule._hom_system(b, m)`` over F2, packed as Cohom's
    relation columns: ints with bit k*db + beta for the system's column
    beta*dm + k.  K_r has bit k*db for each coaction[r, k] = 1, and T_y are
    B's masks :attr:`Contramodule.gf2_masks`.  Then the row for (beta, r),
    r = c*dm + i, is (K_r << beta) ^ (T_{c*db + beta} << i*db).  Most rows
    repeat, so they come back as a set, without the zero row."""
    dm, db = m.dim, b.dim
    ks: dict = {}
    for r, k in m.left_coaction.data:
        ks[r] = ks.get(r, 0) | 1 << k * db
    ts = b.gf2_masks
    cols = set()
    for r, kr in ks.items():
        c, i = divmod(r, dm)
        y, off = c * db, i * db
        cols.update((kr << beta) ^ (ts.get(y + beta, 0) << off) for beta in range(db))
    # rows r without a coaction entry give theta's masks alone, shifted
    with_k = {r // dm for r in ks}
    alone = set()
    for y, t in ts.items():
        c = y // db
        if c in with_k:
            cols.update(t << i * db for i in range(dm) if c * dm + i not in ks)
        else:
            alone.add(t)
    cols.update(t << i * db for t in alone for i in range(dm))
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
    """Split the canonical free presentation: theta itself is a
    contra-homomorphism from the free contramodule on the carrier of B onto
    B, and B is projective iff it admits a contra-homomorphism section."""
    free = free_contramodule(b.coalgebra, b.dim)
    section = split_solve(comodule._hom_system(b, free), b.theta, section=True)
    return section is not None, section


# -- duality ------------------------------------------------------------------------


@dataclass
class DualityReport:
    cohom_dim: int
    hom_dim: int
    pairing_rank: int

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
