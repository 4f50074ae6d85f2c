"""Coalgebras as structure tensors, morphisms, axiom checkers and constructors.

A coalgebra is stored as a comultiplication matrix ``delta`` of shape
``n^2 x n`` (column k lists the tensor coefficients of the image of the k-th
basis vector) together with a counit row ``epsilon`` of shape ``1 x n``.
Axiom checks are exact matrix identities evaluated column by column on
Python ints, so big sparse comultiplications never get Kronecker-expanded.
"""

from __future__ import annotations

from .fields import FieldSpec, Record
from .linalg import rank
from .matrix import Mat, push


class Verdict(Record):
    """Outcome of an axiom check: empty failure list means pass."""

    def __init__(self, failures: list | None = None):
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self):
        return "Verdict(ok)" if self.ok else f"Verdict(failures={self.failures})"


class Coalgebra:
    """Comultiplication may be supplied as a matrix or as a zero-argument
    factory; the factory is only invoked when delta is first read, which
    keeps the 512-dimensional Frobenius-kernel coalgebras cheap for the
    many operations that touch coactions only."""

    __slots__ = ("field", "dim", "epsilon", "name", "_delta", "_delta_factory")

    def __init__(self, field: FieldSpec, dim: int, delta: Mat | None = None,
                 epsilon: Mat | None = None, name: str = "", delta_factory=None):
        if epsilon is None:
            raise ValueError("epsilon is required")
        if delta is None and delta_factory is None:
            raise ValueError("need delta or delta_factory")
        if epsilon.rows != 1 or epsilon.cols != dim:
            raise ValueError(f"epsilon must be 1x{dim}")
        if epsilon.field != field:
            raise ValueError("field mismatch between structure tensors")
        if delta is not None:
            self._check_delta(delta, dim, field)
        self.field = field
        self.dim = dim
        self.epsilon = epsilon
        self.name = name
        self._delta = delta
        self._delta_factory = delta_factory

    @staticmethod
    def _check_delta(delta: Mat, n: int, field: FieldSpec):
        if delta.rows != n * n or delta.cols != n:
            raise ValueError(f"delta must be {n * n}x{n}, got {delta.rows}x{delta.cols}")
        if delta.field != field:
            raise ValueError("field mismatch between structure tensors")

    @property
    def delta(self) -> Mat:
        if self._delta is None:
            d = self._delta_factory()
            self._check_delta(d, self.dim, self.field)
            self._delta = d
        return self._delta

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Coalgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.epsilon == other.epsilon
            and self.delta == other.delta
        )

    def __repr__(self):
        label = self.name or "coalgebra"
        return f"Coalgebra({label}, dim={self.dim} over {self.field})"

    def eps(self, c: int):
        return self.epsilon[0, c]


def check_coalgebra(c: Coalgebra) -> Verdict:
    """Coassociativity and the left counit law are the comodule axioms of C
    over itself; the right counit law (Id (x) eps) o Delta = Id is read off
    Delta's entries, as the counit law of C over itself on the right in its
    right layout, which is Delta itself."""
    from .comodule import _counit_law, check_comodule, comodule_over_self

    failures = ["counit-left" if name == "counit" else name
                for name in check_comodule(comodule_over_self(c)).failures]
    if not _counit_law(c.delta, c.dim, c.epsilon, False):
        failures.append("counit-right")
    return Verdict(failures)


class CoalgebraMorphism(Record):
    def __init__(self, source: Coalgebra, target: Coalgebra, matrix: Mat, surjective: bool = False):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("morphism matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix     # target.dim x source.dim
        self.surjective = surjective


def check_morphism(rho: CoalgebraMorphism) -> Verdict:
    """Compatibility with comultiplication and counit; surjectivity flag.
    (r (x) r) o Delta_C is written as (Id_D (x) r) o (r (x) Id_C) o Delta_C,
    two :func:`matrix.push` calls that form no Kronecker product."""
    c, d, r = rho.source, rho.target, rho.matrix
    failures = []
    if d.delta @ r != push(r, d.dim, True, push(r, c.dim, False, c.delta)):
        failures.append("comultiplication-compatibility")
    if d.epsilon @ r != c.epsilon:
        failures.append("counit-compatibility")
    if rho.surjective != (rank(r) == d.dim):
        failures.append("surjectivity-flag")
    return Verdict(failures)


# -- constructors --------------------------------------------------------------


def grouplike(field: FieldSpec, n: int) -> Coalgebra:
    """Basis of grouplike elements: Delta e_i = e_i (x) e_i, eps = 1."""
    one = field.one()
    delta = Mat(n * n, n, field, {(i * n + i, i): one for i in range(n)})
    eps = Mat(1, n, field, {(0, i): one for i in range(n)})
    return Coalgebra(field, n, delta, eps, name=f"grouplike({n})")


def matrix_coalgebra(field: FieldSpec, n: int) -> Coalgebra:
    """Comatrix coalgebra on basis e_ij: Delta e_ij = sum_k e_ik (x) e_kj."""
    one = field.one()
    dim = n * n
    entries = []
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for k in range(n):
                entries.append(((i * n + k) * dim + (k * n + j), col, one))
    delta = Mat.from_entries(dim * dim, dim, field, entries)
    eps = Mat(1, dim, field, {(0, i * n + i): one for i in range(n)})
    return Coalgebra(field, dim, delta, eps, name=f"matrix_coalgebra({n})")


def dual_of_algebra(mult: Mat, unit: Mat, name: str = "") -> Coalgebra:
    """Dual coalgebra of a finite-dimensional algebra (transpose tensors)."""
    field = mult.field
    n = mult.rows
    if mult.cols != n * n or unit.rows != n or unit.cols != 1:
        raise ValueError("algebra structure tensors have wrong shapes")
    return Coalgebra(field, n, mult.transpose(), unit.transpose(), name=name)


def truncated_poly_algebra(field: FieldSpec, m: int) -> tuple[Mat, Mat]:
    """Multiplication and unit of k[t]/(t^m) in the basis 1, t, .., t^(m-1)."""
    one = field.one()
    entries = [
        (i + j, i * m + j, one)
        for i in range(m) for j in range(m) if i + j < m
    ]
    mult = Mat.from_entries(m, m * m, field, entries)
    unit = Mat(m, 1, field, {(0, 0): one} if m else {})
    return mult, unit


def divided_power_dual(field: FieldSpec, m: int) -> Coalgebra:
    """Dual of k[t]/(t^m): Delta c_s = sum_{i+j=s} c_i (x) c_j."""
    mult, unit = truncated_poly_algebra(field, m)
    c = dual_of_algebra(mult, unit, name=f"divided_power_dual({m})")
    return c


def divided_power_surjection(
    field: FieldSpec, m_src: int, m_tgt: int, power: int
) -> CoalgebraMorphism:
    """Dual of the algebra inclusion k[s]/(s^m_tgt) -> k[t]/(t^m_src), s -> t^power.

    Injectivity of the algebra map (hence surjectivity of the dual) needs
    power * (m_tgt - 1) < m_src, and well-definedness needs power * m_tgt >= m_src.
    """
    if power * (m_tgt - 1) >= m_src or power * m_tgt < m_src:
        raise ValueError("parameters do not give an injective algebra map")
    src = divided_power_dual(field, m_src)
    tgt = divided_power_dual(field, m_tgt)
    one = field.one()
    entries = []
    for i in range(m_src):
        if i % power == 0 and i // power < m_tgt:
            entries.append((i // power, i, one))
    matrix = Mat.from_entries(m_tgt, m_src, field, entries)
    return CoalgebraMorphism(src, tgt, matrix, surjective=True)


def grouplike_elements(c: Coalgebra) -> list[dict]:
    """Basis vectors g with Delta g = g (x) g and eps(g) = 1, found among the
    coordinate basis (enough for the catalog; no general variety solving)."""
    out = []
    cols = c.delta.columns()
    for k in range(c.dim):
        if c.eps(k) == c.field.one() and cols.get(k, {}) == {k * c.dim + k: c.field.one()}:
            out.append({k: c.field.one()})
    return out

