"""Seeded random generators for batteries: coalgebra surjections via random
dual subalgebras, comodules and contramodules as subquotients of cofree/free
objects, and short exact sequences by closing random vectors.

Everything takes an explicit ``random.Random`` so batteries are reproducible
from a single seed.
"""

from __future__ import annotations

from .coalgebra import Coalgebra, CoalgebraMorphism
from .comodule import Comodule, cofree, comodule_closure, quotient_comodule, sub_comodule
from .contramodule import Contramodule, free_contramodule
from .functors import ShortExactSeq
from .linalg import Subspace
from .matrix import Mat, push

MAX_SUPPORT = 4    # nonzero entries of a random vector
EXTRA_GENS = 2     # random generators of a subalgebra beyond the counit
MAX_COFREE = 2     # copies of C in the cofree comodule a random comodule comes from
SES_ATTEMPTS = 20  # draws of a middle term before a sequence gives up


def random_vector(rng, dim, field) -> dict:
    support = rng.sample(range(dim), k=min(dim, rng.randint(1, MAX_SUPPORT)))
    return {i: field.random(rng) for i in support}


def random_subalgebra(rng, c: Coalgebra) -> Subspace:
    """Unital subalgebra of the dual algebra C*, generated by random
    functionals and closed under the convolution product."""
    f = c.field
    n = c.dim
    mult = c.delta.transpose()  # C* (x) C* -> C* in first-slot order
    gens = [dict(c.epsilon.row_groups().get(0, {}))]
    for _ in range(rng.randint(0, EXTRA_GENS)):
        gens.append(random_vector(rng, n, f))
    sub = Subspace.from_columns(n, f, gens)
    while True:
        extra = []
        cols = sub.basis_columns()
        for x in cols:
            for y in cols:
                xy = mult.apply({i * n + j: f.mul(vx, vy) for i, vx in x.items() for j, vy in y.items()})
                if xy and not sub.contains(xy):
                    extra.append(xy)
        if not extra:
            return sub
        sub = sub.add(Subspace.from_columns(n, f, extra))


def random_surjection(rng, c: Coalgebra) -> CoalgebraMorphism:
    """Surjective coalgebra map out of C: dualize a random subalgebra of C*.

    The map rho is restriction of functionals to the subalgebra's canonical
    basis.  The section sigma of rho picks the basis's pivot rows, so the
    target's structure is read off C's: Delta = (rho (x) rho) o Delta_C o sigma
    and epsilon = epsilon_C o sigma.
    """
    f = c.field
    sub = random_subalgebra(rng, c)
    k = sub.dim
    rho = sub.basis.transpose()
    sigma = Mat(c.dim, k, f, {(p, t): f.one() for t, p in enumerate(sub.pivots)})
    delta = push(rho, k, True, push(rho, c.dim, False, c.delta @ sigma))
    target = Coalgebra(f, k, delta, c.epsilon @ sigma, name=f"dual-sub({k})")
    return CoalgebraMorphism(c, target, rho, surjective=True)


def _subquotient(rng, amb: Comodule) -> Comodule:
    """Random subobject or quotient of amb, of amb's own kind."""
    vecs = [random_vector(rng, amb.dim, amb.field) for _ in range(rng.randint(1, 2))]
    sub = comodule_closure(amb, vecs)
    if sub.dim == 0 or sub.dim == amb.dim:
        return amb
    if rng.random() < 0.5:
        return sub_comodule(amb, sub)[0]
    return quotient_comodule(amb, sub)[0]


def random_comodule(rng, c: Coalgebra, side: str = "left") -> Comodule:
    """Random subcomodule or quotient of a cofree comodule."""
    return _subquotient(rng, cofree(c, rng.randint(1, MAX_COFREE), side=side))


def random_contramodule(rng, c: Coalgebra, max_free: int = 2) -> Contramodule:
    """Random subcontramodule or quotient of a free contramodule."""
    return _subquotient(rng, free_contramodule(c, rng.randint(1, max_free)))


def _random_ses(rng, draw_mid) -> tuple | None:
    """(sub, mid, quot, incl, proj) with a nontrivial middle term from
    ``draw_mid()``; degenerate draws (zero or full subobject) are redrawn."""
    for _ in range(SES_ATTEMPTS):
        mid = draw_mid()
        if mid.dim < 2:
            continue
        sub = comodule_closure(mid, [random_vector(rng, mid.dim, mid.field)])
        if sub.dim in (0, mid.dim):
            continue
        s, incl = sub_comodule(mid, sub)
        q, proj = quotient_comodule(mid, sub)
        return s, mid, q, incl, proj
    return None


def random_contra_ses(rng, c: Coalgebra) -> ShortExactSeq | None:
    """Short exact sequence of contramodules with a nontrivial middle term."""
    drawn = _random_ses(rng, lambda: random_contramodule(rng, c))
    return None if drawn is None else ShortExactSeq(*drawn)


def socle_filtration_sequences(c: Coalgebra):
    """Deterministic comodule SES battery from subcomodules of C itself;
    these discriminate non-exactness of Cohom(-, B) for the catalog."""
    from .comodule import comodule_over_self

    reg = comodule_over_self(c)
    out = []
    seen = set()
    for j in range(c.dim):
        sub = comodule_closure(reg, [{j: c.field.one()}])
        key = (tuple(sub.pivots), tuple(sorted((k, str(v)) for k, v in sub.basis.data.items())))
        if sub.dim in (0, c.dim) or key in seen:
            continue
        seen.add(key)
        s, incl = sub_comodule(reg, sub)
        q, proj = quotient_comodule(reg, sub)
        out.append((s, reg, q, incl, proj))
    return out
