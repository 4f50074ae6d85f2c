"""Finite-dimensional contramodules: axioms, free objects, contra-hom spaces,
the comodule conversion, contratensor, Cohom, projectivity and the
Hom/Cohom duality pairing.

A contramodule of dimension b stores the structure map theta as a
b x (n*b) matrix under the identification Hom(C, B) = C* (x) B, column
j*b + k meaning (dual basis vector j) (x) (basis vector k).  The tensor-hom
adjunction used throughout is Hom(U, Hom(V, W)) = Hom(V (x) U, W), the
orientation that makes these LEFT contramodules.

Over a finite-dimensional coalgebra a contramodule is the same thing as a
left comodule: ``_as_comodule`` and :func:`contra_from_comodule` relabel the
same entries, and are the identity on maps.  The axioms, hom spaces,
subobjects, quotients and direct sums run on the comodule code through them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import comodule
from .coalgebra import Coalgebra, Verdict
from .comodule import Comodule
from .linalg import Coequalizer, Subspace, exactness_failures, quotient_by_image, rank, split_solve
from .matrix import Mat, kron_identity


@dataclass
class Contramodule:
    coalgebra: Coalgebra
    dim: int
    theta: Mat   # dim x (n * dim)
    name: str = ""

    def __post_init__(self):
        n, b = self.coalgebra.dim, self.dim
        if self.theta.rows != b or self.theta.cols != n * b:
            raise ValueError(f"theta must be {b}x{n * b}")
        if self.theta.field != self.coalgebra.field:
            raise ValueError("field mismatch")

    @property
    def field(self):
        return self.coalgebra.field

    def __repr__(self):
        label = self.name or "contramodule"
        return f"Contramodule({label}, dim={self.dim} over {self.coalgebra.name or self.coalgebra.dim})"


def _as_comodule(b: Contramodule) -> Comodule:
    """The left comodule with the same entries as b, the inverse of
    :func:`contra_from_comodule`: ``coaction[c*b + i, k] = theta[i, c*b + k]``."""
    bd = b.dim
    coact = Mat(b.coalgebra.dim * bd, bd, b.field,
                {((idx // bd) * bd + i, idx % bd): v for (i, idx), v in b.theta.data.items()})
    return Comodule(b.coalgebra, "left", bd, coact, name=b.name)


def _from_comodule(w: Comodule) -> Contramodule:
    """:func:`contra_from_comodule`, keeping the comodule's name."""
    return replace(contra_from_comodule(w), name=w.name)


_CONTRA_AXIOMS = {"counit": "contra-unity", "coassociativity": "contra-associativity"}


def check_contramodule(b: Contramodule) -> Verdict:
    """Contra-unity and contra-associativity, checked as the counit and
    coassociativity of the corresponding left comodule."""
    failed = comodule.check_comodule(_as_comodule(b)).failures
    return Verdict([name for axiom, name in _CONTRA_AXIOMS.items() if axiom in failed])


# -- constructions -----------------------------------------------------------


def free_contramodule(c: Coalgebra, d: int) -> Contramodule:
    """Hom(C, k^d) = C* (x) k^d with theta from comultiplication."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return replace(contra_from_dual(comodule.comodule_over_self(c, "right"), d), name=f"free({d})")


def trivial_contramodule(c: Coalgebra, grouplike_vec: dict) -> Contramodule:
    """k with theta = evaluation at a grouplike element."""
    theta = Mat(1, c.dim, c.field, {(0, j): v for j, v in grouplike_vec.items() if v != 0})
    return Contramodule(c, 1, theta, name="trivial")


def direct_sum(b1: Contramodule, b2: Contramodule) -> Contramodule:
    return _from_comodule(comodule.direct_sum(_as_comodule(b1), _as_comodule(b2)))


def contra_from_comodule(w: Comodule) -> Contramodule:
    """The natural dual-algebra action on a finite-dimensional left comodule,
    as a contra-action: evaluate the functional against the coaction."""
    if w.side != "left":
        raise ValueError("conversion defined for left comodules")
    md = w.dim
    theta = Mat(md, w.coalgebra.dim * md, w.field,
                {(idx % md, (idx // md) * md + k): v for (idx, k), v in w.coaction.data.items()})
    return Contramodule(w.coalgebra, md, theta, name=f"{w.name}~contra")


def contra_from_dual(m: Comodule, d: int) -> Contramodule:
    """Hom(M, k^d) as a contramodule, for M a finite-dimensional right
    comodule; carrier indexed as M* (x) k^d so that M = C reproduces the free
    contramodule on k^d entry for entry."""
    if m.side != "right":
        raise ValueError("contra_from_dual needs a right comodule")
    n, md = m.coalgebra.dim, m.dim
    b = md * d
    entries = []
    for (idx, s), v in m.coaction.data.items():
        i, j = divmod(idx, n)
        for l in range(d):
            entries.append((s * d + l, j * b + i * d + l, v))
    theta = Mat.from_entries(b, n * b, m.field, entries)
    return Contramodule(m.coalgebra, b, theta, name=f"hom({m.name},k^{d})")


# -- contra-hom spaces and subobjects, through the comodule isomorphism -----------


def hom_contra(b: Contramodule, d: Contramodule) -> Subspace:
    """Contra-homomorphisms B -> D as a subspace of B* (x) D."""
    return comodule.hom_comodules(_as_comodule(b), _as_comodule(d))


def hom_contra_basis_maps(b: Contramodule, d: Contramodule, sub: Subspace | None = None) -> list[Mat]:
    return comodule.hom_basis_maps(_as_comodule(b), _as_comodule(d), sub)


def is_contra_map(b: Contramodule, d: Contramodule, t: Mat) -> bool:
    return comodule.is_comodule_map(_as_comodule(b), _as_comodule(d), t)


def theta_stabilizes(b: Contramodule, sub: Subspace) -> bool:
    """True iff theta maps C* (x) sub into sub."""
    return comodule.coaction_stabilizes(_as_comodule(b), sub)


def contra_closure(b: Contramodule, vectors: list[dict]) -> Subspace:
    """Smallest subcontramodule containing the given vectors."""
    return comodule.comodule_closure(_as_comodule(b), vectors)


def sub_contramodule(b: Contramodule, sub: Subspace) -> tuple[Contramodule, Mat]:
    w, incl = comodule.sub_comodule(_as_comodule(b), sub)
    return _from_comodule(w), incl


def quotient_contramodule(b: Contramodule, sub: Subspace) -> tuple[Contramodule, Mat]:
    w, proj = comodule.quotient_comodule(_as_comodule(b), sub)
    return _from_comodule(w), proj


# -- contratensor and Cohom -------------------------------------------------------


def cohom(m: Comodule, b: Contramodule) -> Coequalizer:
    """Cohom as the quotient of Hom(M, B) = M* (x) B by the relations
    f(x) - g(x), where f and g: Hom(C (x) M, B) -> Hom(M, B) precompose with
    the coaction and apply the contra-action.

    The relation columns are written entry by entry.  With dm = dim M,
    db = dim B and coaction row r = c*dm + i, the column for
    x = r*db + beta holds coaction[r, k] at row k*db + beta, minus
    theta[beta', c*db + beta] at row i*db + beta'.  Over F2 the columns are
    int bitmasks instead (:func:`_gf2_relations`).
    """
    if m.coalgebra != b.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m.side != "left":
        raise ValueError("cohom needs a left comodule")
    dm, db, fld = m.dim, b.dim, m.field
    if fld.characteristic == 2:
        return quotient_by_image(Subspace.from_columns(dm * db, fld, _gf2_relations(m, b)))
    zero = fld.zero()
    cols: dict = {}
    for (r, k), v in m.coaction.data.items():
        for beta in range(db):
            cols.setdefault(r * db + beta, {})[k * db + beta] = v
    # theta's entries once, as (beta', column at i = 0, value)
    theta = []
    for (bp, idx), v in b.theta.data.items():
        c, beta = divmod(idx, db)
        theta.append((bp, c * dm * db + beta, v))
    for i in range(dm):
        off = i * db
        for bp, x, v in theta:
            col, row = cols.setdefault(off + x, {}), off + bp
            s = fld.sub(col.get(row, zero), v)
            if s == 0:
                col.pop(row, None)
            else:
                col[row] = s
    return quotient_by_image(Subspace.from_columns(dm * db, fld, cols.values()))


def _gf2_relations(m: Comodule, b: Contramodule) -> set:
    """Cohom's relation columns over F2, as ints with bit k*db + beta for row
    (k, beta).  K_r has bit k*db for each coaction[r, k] = 1 and T_y bit beta'
    for each theta[beta', y] = 1; then column (r = c*dm + i, beta) is
    (K_r << beta) ^ (T_{c*db + beta} << i*db).  Most columns repeat, so they
    come back as a set, without the zero column."""
    dm, db = m.dim, b.dim
    ks: dict = {}
    for r, k in m.coaction.data:
        ks[r] = ks.get(r, 0) | 1 << k * db
    ts: dict = {}
    for bp, y in b.theta.data:
        ts[y] = ts.get(y, 0) | 1 << bp
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
    system = comodule._hom_system(_as_comodule(b), _as_comodule(free))
    section = split_solve(system, b.theta, section=True)
    return section is not None, section


@dataclass
class ExactnessVerdict:
    exact: bool
    failures: list   # subset of {"left", "middle", "right"}
    dims: tuple      # dimensions of the three terms, left to right

    @classmethod
    def of(cls, first: Mat, second: Mat) -> "ExactnessVerdict":
        """Where 0 -> X -> Y -> Z -> 0, with maps first and second, fails."""
        failures = [("left", "middle", "right")[i] for i in exactness_failures([first, second])]
        return cls(not failures, failures, (first.cols, first.rows, second.rows))


def cohom_exactness_probe(sub: Comodule, mid: Comodule, quot: Comodule,
                          incl: Mat, proj: Mat, b: Contramodule) -> ExactnessVerdict:
    """Apply Cohom(-, B) to a short exact sequence of left comodules
    0 -> sub -> mid -> quot -> 0 and report where the image sequence
    0 -> Cohom(quot, B) -> Cohom(mid, B) -> Cohom(sub, B) -> 0 fails to be
    exact.

    The functor is contravariant and right exact; projectivity of B is
    equivalent to exactness on every input sequence.
    """
    co_a, co_m, co_q = cohom(sub, b), cohom(mid, b), cohom(quot, b)
    error = "Cohom functorial map does not descend"
    from_mid = co_m.quotient_map @ kron_identity(proj.transpose(), b.dim, left=False)
    from_sub = co_a.quotient_map @ kron_identity(incl.transpose(), b.dim, left=False)
    return ExactnessVerdict.of(co_q.descend(from_mid, error), co_m.descend(from_sub, error))


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

    Both sides are computed through independent routes (a coequalizer and an
    equalizer).  Cohom is a quotient of V* (x) W, index x*dim W + y, and
    Hom(W, V) a subspace of W* (x) V, index y*dim V + x; with the Hom basis
    reindexed to the first layout the trace pairing is a plain dot product.
    Hom(W, V) is the equalizer of the transposes of the two maps whose
    coequalizer is Cohom, so the pairing kills Cohom's relations for any
    coaction data, and it is well defined on the section representatives.
    """
    if v.side != "left" or w.side != "left":
        raise ValueError("duality check needs left comodules")
    co = cohom(v, contra_from_comodule(w))
    hom = comodule.hom_comodules(w, v)
    dv, dw = v.dim, w.dim
    hom_basis = Mat(dv * dw, hom.dim, v.field,
                    {((i % dv) * dw + i // dv, s): val for (i, s), val in hom.basis.data.items()})
    return DualityReport(co.dim, hom.dim, rank(co.section.transpose() @ hom_basis))
