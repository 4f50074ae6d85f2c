"""Finite-dimensional contramodules: axioms, free objects, contra-hom spaces,
the comodule conversion, contratensor, Cohom, projectivity and the
Hom/Cohom duality pairing.

A contramodule of dimension b stores the structure map theta as a
b x (n*b) matrix under the identification Hom(C, B) = C* (x) B, column
j*b + k meaning (dual basis vector j) (x) (basis vector k).  The tensor-hom
adjunction used throughout is Hom(U, Hom(V, W)) = Hom(V (x) U, W), the
orientation that makes these LEFT contramodules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalgebra import Coalgebra, Verdict
from .comodule import Comodule, _block_sum
from .linalg import (
    Coequalizer, Subspace, coequalizer, equalizer, quotient_by_image, rank, split_solve,
)
from .matrix import Mat, kron, map_of_vec


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


def _dual_mult(c: Coalgebra) -> Mat:
    """Multiplication of the dual algebra on C* (x) C*, oriented so that the
    second tensor factor is the outer Hom variable:
    ``[k, i*n + j] = delta[j*n + i, k]``."""
    n = c.dim
    return Mat(n, n * n, c.field,
               {(k, (idx % n) * n + idx // n): v for (idx, k), v in c.delta.data.items()})


def check_contramodule(b: Contramodule) -> Verdict:
    """Contra-associativity and contra-unity as exact matrix identities."""
    c = b.coalgebra
    f = b.field
    n, bd = c.dim, b.dim
    failures = []
    eye_b = Mat.identity(bd, f)
    if b.theta @ kron(c.epsilon.transpose(), eye_b) != eye_b:
        failures.append("contra-unity")
    lhs = b.theta @ kron(Mat.identity(n, f), b.theta)
    rhs = b.theta @ kron(_dual_mult(c), eye_b)
    if lhs != rhs:
        failures.append("contra-associativity")
    return Verdict(failures)


# -- constructions -----------------------------------------------------------


def free_contramodule(c: Coalgebra, d: int) -> Contramodule:
    """Hom(C, k^d) = C* (x) k^d with theta from comultiplication."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    theta = kron(_dual_mult(c), Mat.identity(d, c.field))
    return Contramodule(c, c.dim * d, theta, name=f"free({d})")


def trivial_contramodule(c: Coalgebra, grouplike_vec: dict) -> Contramodule:
    """k with theta = evaluation at a grouplike element."""
    theta = Mat(1, c.dim, c.field, {(0, j): v for j, v in grouplike_vec.items() if v != 0})
    return Contramodule(c, 1, theta, name="trivial")


def direct_sum(b1: Contramodule, b2: Contramodule) -> Contramodule:
    if b1.coalgebra != b2.coalgebra:
        raise ValueError("coalgebra mismatch")
    theta_t = _block_sum(b1.coalgebra.dim, b1.theta.transpose(), b2.theta.transpose())
    return Contramodule(b1.coalgebra, b1.dim + b2.dim, theta_t.transpose(), name=f"{b1.name}+{b2.name}")


def contra_from_comodule(w: Comodule) -> Contramodule:
    """The natural dual-algebra action on a finite-dimensional left comodule,
    as a contra-action: evaluate the functional against the coaction."""
    if w.side != "left":
        raise ValueError("conversion defined for left comodules")
    md = w.dim
    entries = []
    for (idx, k), v in w.coaction.data.items():
        j, i = divmod(idx, md)
        entries.append((i, j * md + k, v))
    theta = Mat.from_entries(md, w.coalgebra.dim * md, w.field, entries)
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


# -- contra-hom spaces ----------------------------------------------------------


def _hom_equations(b: Contramodule, d: Contramodule) -> tuple[Mat, Mat]:
    """The pair f -> f o theta_B and f -> theta_D o (Id_C* (x) f) on
    B* (x) D; Hom(B, D) is their equalizer."""
    if b.coalgebra != d.coalgebra:
        raise ValueError("coalgebra mismatch")
    n, bd, dd = b.coalgebra.dim, b.dim, d.dim
    lhs = kron(b.theta.transpose(), Mat.identity(dd, d.field))
    entries = []
    for (d2, idx), v in d.theta.data.items():
        j, delta = divmod(idx, dd)
        for beta in range(bd):
            entries.append(((j * bd + beta) * dd + d2, beta * dd + delta, v))
    rhs = Mat.from_entries(n * bd * dd, bd * dd, d.field, entries)
    return lhs, rhs


def hom_contra(b: Contramodule, d: Contramodule) -> Subspace:
    """Contra-homomorphisms B -> D as a subspace of B* (x) D."""
    return equalizer(*_hom_equations(b, d))


def hom_contra_basis_maps(b: Contramodule, d: Contramodule, sub: Subspace | None = None) -> list[Mat]:
    if sub is None:
        sub = hom_contra(b, d)
    return [map_of_vec(col, b.dim, d.dim, b.field) for col in sub.basis_columns()]


def is_contra_map(b: Contramodule, d: Contramodule, t: Mat) -> bool:
    n = b.coalgebra.dim
    return t @ b.theta == d.theta @ kron(Mat.identity(n, b.field), t)


# -- subobjects ------------------------------------------------------------------


def theta_stabilizes(b: Contramodule, sub: Subspace) -> bool:
    """True iff theta maps C* (x) sub into sub."""
    n = b.coalgebra.dim
    image_cols = (b.theta @ kron(Mat.identity(n, b.field), sub.basis)).columns()
    return all(sub.contains(col) for col in image_cols.values())


def contra_closure(b: Contramodule, vectors: list[dict]) -> Subspace:
    """Smallest subcontramodule containing the given vectors."""
    sub = Subspace.from_columns(b.dim, b.field, vectors)
    n = b.coalgebra.dim
    eye = Mat.identity(n, b.field)
    while True:
        hit = b.theta @ kron(eye, sub.basis)
        grown = sub.add(Subspace.from_columns(b.dim, b.field, hit.columns().values()))
        if grown.dim == sub.dim:
            return sub
        sub = grown


def sub_contramodule(b: Contramodule, sub: Subspace) -> tuple[Contramodule, Mat]:
    if not theta_stabilizes(b, sub):
        raise ValueError("subspace is not a subcontramodule")
    n = b.coalgebra.dim
    k = sub.dim
    hit = b.theta @ kron(Mat.identity(n, b.field), sub.basis)
    entries = []
    for j_col, col in hit.columns().items():
        coords = sub.coords(col)
        for s, v in coords.items():
            entries.append((s, j_col, v))
    theta = Mat.from_entries(k, n * k, b.field, entries)
    return Contramodule(b.coalgebra, k, theta, name=f"{b.name}|sub"), sub.basis


def quotient_contramodule(b: Contramodule, sub: Subspace) -> tuple[Contramodule, Mat]:
    if not theta_stabilizes(b, sub):
        raise ValueError("subspace is not a subcontramodule")
    n = b.coalgebra.dim
    coeq = quotient_by_image(sub)
    q, sigma = coeq.quotient_map, coeq.section
    theta = q @ b.theta @ kron(Mat.identity(n, b.field), sigma)
    if not (q @ b.theta @ kron(Mat.identity(n, b.field), sub.basis)).is_zero():
        raise ValueError("quotient theta not well defined")
    return Contramodule(b.coalgebra, coeq.dim, theta, name=f"{b.name}/sub"), q


# -- contratensor and Cohom -------------------------------------------------------


def _contratensor_maps(m: Comodule, b: Contramodule) -> tuple[Mat, Mat]:
    """The pair M (x) C* (x) B -> M (x) B whose coequalizer is the
    contratensor product: Id (x) theta, and evaluation after the coaction,
    written entry by entry as
    ``[i*db + beta, (s*n + j)*db + beta] = coaction[i*n + j, s]``."""
    n, db = m.coalgebra.dim, b.dim
    map1 = kron(Mat.identity(m.dim, m.field), b.theta)
    data = {}
    for (idx, s), v in m.coaction.data.items():
        i, j = divmod(idx, n)
        col = (s * n + j) * db
        for beta in range(db):
            data[(i * db + beta, col + beta)] = v
    return map1, Mat(m.dim * db, m.dim * n * db, m.field, data)


def contratensor(m: Comodule, b: Contramodule) -> Coequalizer:
    """Contratensor product of a right comodule with a contramodule: the
    coequalizer of Id (x) theta against evaluation after the coaction,
    presented as a quotient of M (x) B."""
    if m.coalgebra != b.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m.side != "right":
        raise ValueError("contratensor needs a right comodule")
    return coequalizer(*_contratensor_maps(m, b))


def cohom_maps(m: Comodule, b: Contramodule) -> tuple[Mat, Mat]:
    """The coequalizer pair Hom(C (x) M, B) -> Hom(M, B) defining Cohom:
    precomposition with the coaction against the contra-action.

    Both maps are written entry by entry.  With dm = dim M, db = dim B and
    coaction row r = c*dm + i:

        f[k*db + beta, r*db + beta] = coaction[r, k]
        g[i*db + beta', (c*dm + i)*db + beta] = theta[beta', c*db + beta]
    """
    if m.coalgebra != b.coalgebra:
        raise ValueError("coalgebra mismatch")
    if m.side != "left":
        raise ValueError("cohom needs a left comodule")
    n, dm, db = m.coalgebra.dim, m.dim, b.dim
    f_data = {}
    for (r, k), v in m.coaction.data.items():
        for beta in range(db):
            f_data[(k * db + beta, r * db + beta)] = v
    # theta's entries once, as (beta', column of g at i = 0, value)
    theta = []
    for (bp, idx), v in b.theta.data.items():
        c, beta = divmod(idx, db)
        theta.append((bp, c * dm * db + beta, v))
    g_data = {}
    for i in range(dm):
        off = i * db
        for bp, col, v in theta:
            g_data[(off + bp, off + col)] = v
    rows, cols = dm * db, n * dm * db
    return Mat(rows, cols, m.field, f_data), Mat(rows, cols, m.field, g_data)


def cohom(m: Comodule, b: Contramodule) -> Coequalizer:
    """Cohom as a quotient of Hom(M, B) = M* (x) B."""
    f_map, g_map = cohom_maps(m, b)
    return coequalizer(f_map, g_map)


# -- projectivity -----------------------------------------------------------------


def is_projective(b: Contramodule) -> tuple[bool, Mat | None]:
    """Split the canonical free presentation: theta itself is a
    contra-homomorphism from the free contramodule on the carrier of B onto
    B, and B is projective iff it admits a contra-homomorphism section."""
    free = free_contramodule(b.coalgebra, b.dim)
    lhs, rhs = _hom_equations(b, free)
    section = split_solve(lhs - rhs, b.theta, Mat.identity(b.dim, b.field))
    return section is not None, section


@dataclass
class CohomExactness:
    exact: bool
    failures: list   # subset of {"left", "middle", "right"}
    dims: tuple      # (dim Cohom(Q,B), dim Cohom(M,B), dim Cohom(A,B))


def cohom_exactness_probe(sub: Comodule, mid: Comodule, quot: Comodule,
                          incl: Mat, proj: Mat, b: Contramodule) -> CohomExactness:
    """Apply Cohom(-, B) to a short exact sequence of left comodules
    0 -> sub -> mid -> quot -> 0 and report where exactness fails.

    The functor is contravariant and right exact; projectivity of B is
    equivalent to exactness on every input sequence.
    """
    from .linalg import image as _image, kernel as _kernel

    f = b.field
    eye_b = Mat.identity(b.dim, f)
    co_a, co_m, co_q = cohom(sub, b), cohom(mid, b), cohom(quot, b)

    def descend(co_src, co_tgt, structural: Mat) -> Mat:
        lifted = co_tgt.quotient_map @ kron(structural.transpose(), eye_b)
        if not (lifted @ co_src.image_subspace.basis).is_zero():
            raise AssertionError("Cohom functorial map does not descend")
        return lifted @ co_src.section

    pi_star = descend(co_q, co_m, proj)
    iota_star = descend(co_m, co_a, incl)
    failures = []
    if rank(pi_star) != co_q.dim:
        failures.append("left")
    if _image(pi_star) != _kernel(iota_star):
        failures.append("middle")
    if rank(iota_star) != co_a.dim:
        failures.append("right")
    return CohomExactness(not failures, failures, (co_q.dim, co_m.dim, co_a.dim))


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
    equalizer); the pairing on representatives is checked to annihilate the
    coequalizer relations and to have full rank.
    """
    from .comodule import hom_basis_maps, hom_comodules

    if v.side != "left" or w.side != "left":
        raise ValueError("duality check needs left comodules")
    f = v.field
    w_contra = contra_from_comodule(w)
    co = cohom(v, w_contra)
    hom = hom_comodules(w, v)
    hom_maps = hom_basis_maps(w, v, hom)

    def trace_pair(map_vw: Mat, map_wv: Mat):
        acc = f.zero()
        for (y, x), val in map_vw.data.items():
            other = map_wv[x, y]
            if other != 0:
                acc = f.add(acc, f.mul(val, other))
        return acc

    # relations must pair to zero against every comodule map
    for rel_col in co.image_subspace.basis.columns().values():
        rel = map_of_vec(rel_col, v.dim, w.dim, f)
        for hmap in hom_maps:
            if trace_pair(rel, hmap) != 0:
                return DualityReport(co.dim, hom.dim, -1)
    # pairing matrix on section representatives
    entries = []
    sec_cols = co.section.columns()
    for t in range(co.dim):
        rep = map_of_vec(sec_cols.get(t, {}), v.dim, w.dim, f)
        for s, hmap in enumerate(hom_maps):
            val = trace_pair(rep, hmap)
            if val != 0:
                entries.append((t, s, val))
    pairing = Mat.from_entries(co.dim, hom.dim, f, entries)
    return DualityReport(co.dim, hom.dim, rank(pairing))

