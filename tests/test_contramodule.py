"""Contramodule axioms, free objects, conversions, contratensor, Cohom,
projectivity, and the Hom/Cohom duality."""

import random
from itertools import product

import pytest

from contramod.coalgebra import divided_power_dual, grouplike, grouplike_elements
from contramod.comodule import (
    cofree, comodule_closure, comodule_over_self, direct_sum, dual_comodule, hom_comodules,
    is_comodule_map, quotient_comodule, sub_comodule,
)
from contramod.contramodule import (
    Contramodule, check_contramodule, cohom, contra_from_comodule,
    contra_from_dual, contratensor, duality_check, free_contramodule, is_projective,
)
from contramod.fields import GF, GF2, QQ
from contramod.matrix import Mat
from contramod.randomgen import random_contramodule
from test_comodule import catalog_coalgebras, trivial
from test_structure_maps import contra_of_theta, hom_basis_maps, swap_mat

FIELDS = [QQ, GF2, GF(3)]


@pytest.mark.parametrize("field", FIELDS)
def test_free_contramodule_passes(field):
    for c in catalog_coalgebras(field):
        for d in (0, 1, 2):
            b = free_contramodule(c, d)
            assert b.dim == c.dim * d
            assert check_contramodule(b).ok


def test_trivial_contramodule_passes():
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        t = trivial(c, grouplike_elements(c)[0], contra=True)
        assert check_contramodule(t).ok
        g1 = grouplike(field, 1)
        assert check_contramodule(trivial(g1, {0: field.one()}, contra=True)).ok


def test_mutated_theta_fails():
    c = divided_power_dual(QQ, 3)
    b = free_contramodule(c, 1)
    bad = b.theta + Mat.from_entries(3, 9, QQ, [(2, 1, 1)])
    assert not check_contramodule(contra_of_theta(c, 3, bad)).ok


def test_contra_from_comodule():
    for field in FIELDS:
        # over the trivial coalgebra the conversion is the identity
        g1 = grouplike(field, 1)
        t = contra_from_comodule(comodule_over_self(g1))
        assert t.theta == Mat.identity(1, field)
        for c in catalog_coalgebras(field):
            reg = contra_from_comodule(comodule_over_self(c))
            assert check_contramodule(reg).ok
            cf = contra_from_comodule(cofree(c, 2))
            assert check_contramodule(cf).ok


def test_contra_from_comodule_functorial():
    # comodule maps induce contra-homomorphisms
    rng = random.Random(4)
    c = divided_power_dual(GF(3), 3)
    m = cofree(c, 1)
    n = cofree(c, 2)

    maps = hom_basis_maps(m, n)
    bm, bn = contra_from_comodule(m), contra_from_comodule(n)
    for t in maps:
        assert is_comodule_map(bm, bn, t)


def test_contra_from_dual_of_regular_is_free():
    for field in FIELDS:
        for c in catalog_coalgebras(field):
            creg = comodule_over_self(c, side="right")
            for d in (1, 2):
                b = contra_from_dual(creg, d)
                assert b.theta == free_contramodule(c, d).theta
        assert contra_from_dual(comodule_over_self(c, "right"), 0).dim == 0


def test_contra_from_dual_axioms():
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        m = dual_comodule(cofree(c, 2))
        assert check_contramodule(contra_from_dual(m, 2)).ok


def test_hom_contra_identity_and_free_universal_property():
    rng = random.Random(9)
    for field in FIELDS:
        for c in catalog_coalgebras(field):
            b = free_contramodule(c, 1)
            homs = hom_comodules(b, b)
            eye_vec = {i * b.dim + i: field.one() for i in range(b.dim)}
            assert homs.contains(eye_vec)
            # dim Hom(free(d), W) = d * dim W
            w = contra_from_comodule(comodule_over_self(c))
            for d in (1, 2):
                assert hom_comodules(free_contramodule(c, d), w).dim == d * w.dim


def test_hom_contra_exhaustive_oracle_f2():
    c = divided_power_dual(GF2, 2)
    b = free_contramodule(c, 1)
    t = trivial(c, grouplike_elements(c)[0], contra=True)
    hom = hom_comodules(b, t)
    found = 0
    for combo in product([0, 1], repeat=2):
        mat = Mat.from_entries(1, 2, GF2, [(0, j, v) for j, v in enumerate(combo)])
        if is_comodule_map(b, t, mat):
            found += 1
    assert 2 ** hom.dim == found


def test_contratensor_dims():
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        m = dual_comodule(cofree(c, 1))
        for d in (1, 2):
            res = contratensor(m, free_contramodule(c, d))
            assert res.dim == m.dim * d
        zero = dual_comodule(cofree(c, 0))
        assert contratensor(zero, free_contramodule(c, 1)).dim == 0


def test_contratensor_matches_cohom():
    rng = random.Random(21)
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        for _ in range(6):
            v = _random_comodule(rng, c)
            b = _random_contramodule(rng, c)
            assert contratensor(dual_comodule(v), b).dim == cohom(v, b).dim


def test_cohom_of_regular_is_identity():
    """Cohom(C, B) = B: the contra-action descends to an isomorphism."""
    for field in FIELDS:
        for c in catalog_coalgebras(field):
            reg = comodule_over_self(c)
            b = free_contramodule(c, 1)
            res = cohom(reg, b)
            assert res.dim == b.dim
            # theta kills the relations and the descended map is invertible
            from contramod.linalg import rank

            assert (b.theta @ res.image_subspace.basis).is_zero()
            descended = b.theta @ res.section
            assert rank(descended) == b.dim


def test_cohom_zero_cases():
    c = divided_power_dual(QQ, 3)
    zero_b = Contramodule(c, 0, Mat(0, 0, QQ))
    m = comodule_over_self(c)
    assert cohom(m, zero_b).dim == 0


def test_free_contramodules_projective():
    for field in FIELDS:
        for c in catalog_coalgebras(field):
            if c.dim > 4:
                continue
            b = free_contramodule(c, 1)
            flag, section = is_projective(b)
            assert flag
            assert b.theta @ section == Mat.identity(b.dim, field)


def test_trivial_contramodule_not_projective():
    # the dual algebra k[t]/(t^3) is local and non-semisimple
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        t = trivial(c, grouplike_elements(c)[0], contra=True)
        assert not is_projective(t)[0]


def test_direct_sum_projectivity():
    c = divided_power_dual(GF2, 2)
    free = free_contramodule(c, 1)
    triv = trivial(c, grouplike_elements(c)[0], contra=True)
    assert is_projective(direct_sum(free, free))[0]
    assert not is_projective(direct_sum(free, triv))[0]


@pytest.mark.parametrize("field", FIELDS)
def test_direct_sum_block_maps_are_contra_maps(field):
    rng = random.Random(41)
    one = field.one()
    for c in catalog_coalgebras(field)[1:]:
        for _ in range(3):
            b1, b2 = random_contramodule(rng, c), random_contramodule(rng, c)
            s = direct_sum(b1, b2)
            assert check_contramodule(s).ok
            for off, b in ((0, b1), (b1.dim, b2)):
                incl = Mat(s.dim, b.dim, field, {(off + i, i): one for i in range(b.dim)})
                assert is_comodule_map(b, s, incl)
                assert is_comodule_map(s, b, incl.transpose())


def test_contramodules_are_dual_algebra_modules():
    """check_contramodule passes iff the induced dual-algebra action is
    associative and unital (verified on catalog items and a mutation)."""
    c = divided_power_dual(GF(3), 3)
    mstar = c.delta.transpose()  # multiplication of C* in convolution order
    unit_star = c.epsilon.transpose()
    for b in (free_contramodule(c, 1), trivial(c, {0: GF(3).one()}, contra=True)):
        act = b.theta  # action C* (x) B -> B after the identification
        eye = Mat.identity(b.dim, GF(3))
        # unital
        assert act @ unit_star.kron(eye) == eye
        # associative: act(m* (x) id) on C* (x) C* (x) B in convolution order
        s = swap_mat(GF(3), c.dim, c.dim)
        assert act @ (mstar @ s).kron(eye) == act @ Mat.identity(c.dim, GF(3)).kron(act)


def _random_comodule(rng, c, max_cofree=2):
    from contramod.comodule import comodule_closure, quotient_comodule, sub_comodule

    amb = cofree(c, rng.randint(1, max_cofree))
    vecs = [
        {i: c.field.random(rng) for i in rng.sample(range(amb.dim), k=min(amb.dim, 3))}
        for _ in range(rng.randint(1, 2))
    ]
    sub = comodule_closure(amb, vecs)
    if sub.dim == 0 or sub.dim == amb.dim:
        return amb
    if rng.random() < 0.5:
        return sub_comodule(amb, sub)[0]
    return quotient_comodule(amb, sub)[0]


def _random_contramodule(rng, c, max_free=2):
    amb = free_contramodule(c, rng.randint(1, max_free))
    vecs = [
        {i: c.field.random(rng) for i in rng.sample(range(amb.dim), k=min(amb.dim, 3))}
        for _ in range(rng.randint(1, 2))
    ]
    sub = comodule_closure(amb, vecs)
    if sub.dim == 0 or sub.dim == amb.dim:
        return amb
    if rng.random() < 0.5:
        return sub_comodule(amb, sub)[0]
    return quotient_comodule(amb, sub)[0]


def test_random_subquotient_contramodules_pass():
    rng = random.Random(33)
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        for _ in range(8):
            assert check_contramodule(_random_contramodule(rng, c)).ok


def test_duality_on_regular_and_cofree():
    for field in FIELDS:
        for c in catalog_coalgebras(field):
            reg = comodule_over_self(c)
            rep = duality_check(reg, reg)
            assert rep.ok
            rep2 = duality_check(reg, cofree(c, 2))
            assert rep2.ok


def test_duality_simple_vs_cofree():
    c = divided_power_dual(GF2, 3)
    v = trivial(c, grouplike_elements(c)[0])
    w = cofree(c, 1)
    rep = duality_check(v, w)
    assert rep.ok and rep.cohom_dim == v.dim


def test_duality_random_pairs():
    rng = random.Random(8)
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        for _ in range(8):
            v = _random_comodule(rng, c)
            w = _random_comodule(rng, c)
            rep = duality_check(v, w)
            assert rep.ok
            assert rep.hom_dim == hom_comodules(w, v).dim
