"""Comodule axioms, cofree objects, hom spaces, cotensor, duals, injectivity,
and the test helpers ``trivial`` (the comodule or contramodule k along a
grouplike element) and ``head_radical`` (radical and head multiplicities
against a list of simples)."""

import random
from itertools import product
from typing import NamedTuple

import pytest

from contramod import randomgen
from contramod.coalgebra import (
    divided_power_dual, divided_power_surjection, grouplike, grouplike_elements,
    matrix_coalgebra,
)
from contramod.comodule import (
    Comodule, check_comodule, cofree, comodule_closure,
    comodule_over_self, cotensor, direct_sum, dual_comodule,
    hom_comodules, is_comodule_map, is_injective,
    quotient_comodule, sub_comodule,
)
from contramod.contramodule import Contramodule
from contramod.fields import GF, GF2, QQ
from contramod.linalg import Subspace, kernel, rank
from contramod.matrix import Mat
from test_linalg import full_space
from test_structure_maps import coaction_stabilizes, comodule_of, hom_basis_maps

FIELDS = [QQ, GF2, GF(3)]


def trivial(c, grouplike_vec, contra=False):
    """k along a grouplike element g: the one-dimensional left comodule,
    coaction 1 -> g (x) 1, or with ``contra`` the contramodule on the same
    matrix, whose theta is evaluation at g."""
    coact = Mat(c.dim, 1, c.field, {(i, 0): v for i, v in grouplike_vec.items() if v != 0})
    if contra:
        return Contramodule(c, 1, coact, name="trivial")
    return Comodule(c, "left", 1, coact, name="trivial")


class HeadRadical(NamedTuple):
    radical: Subspace
    head: dict  # simple label -> multiplicity


def head_radical(m, simples):
    """Radical and head multiplicities relative to a complete list of simples.

    The list must be complete and irredundant for the coalgebra; this is the
    caller's obligation and cannot be detected here.  The radical is the
    common kernel of every map to a simple: map j of Hom(M, s)'s basis is
    stacked at rows offset + j*dim s .., and with no map it is all of M.
    """
    stacked, head, offset = {}, {}, 0
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
        sd = s.dim
        stacked.update({(offset + j * sd + i % sd, i // sd): v for (i, j), v in hom.basis.data.items()})
        offset += hom.dim * sd
    return HeadRadical(kernel(Mat(offset, m.dim, m.field, stacked)), head)


def catalog_coalgebras(field):
    return [
        grouplike(field, 1),
        grouplike(field, 3),
        matrix_coalgebra(field, 2),
        divided_power_dual(field, 3),
    ]


@pytest.mark.parametrize("field", FIELDS)
def test_regular_comodule_passes(field):
    for c in catalog_coalgebras(field):
        for side in ("left", "right"):
            assert check_comodule(comodule_over_self(c, side)).ok


@pytest.mark.parametrize("field", FIELDS)
def test_cofree_passes_and_dims(field):
    for c in catalog_coalgebras(field):
        m = cofree(c, 2)
        assert m.dim == 2 * c.dim
        assert check_comodule(m).ok
        assert check_comodule(cofree(c, 2, side="right")).ok
        assert cofree(c, 0).dim == 0


def test_mutated_coaction_fails():
    c = divided_power_dual(QQ, 3)
    m = comodule_over_self(c)
    bad = m.coaction + Mat.from_entries(9, 3, QQ, [(4, 0, 1)])
    assert not check_comodule(Comodule(c, "left", 3, bad)).ok


def test_trivial_comodule():
    c = divided_power_dual(GF2, 3)
    g = grouplike_elements(c)[0]
    t = trivial(c, g)
    assert check_comodule(t).ok


def test_hom_contains_identity_and_cofree_dims():
    rng = random.Random(2)
    for field in FIELDS:
        for c in catalog_coalgebras(field):
            m = comodule_over_self(c)
            homs = hom_comodules(m, m)
            eye_vec = {i * c.dim + i: field.one() for i in range(c.dim)}
            assert homs.contains(eye_vec)
            # universal property of cofree targets: dim Hom(W, C (x) k^d) = dim W * d
            for d in (1, 2):
                assert hom_comodules(m, cofree(c, d)).dim == m.dim * d


def test_hom_exhaustive_oracle_f2():
    """Hom space over F2 must agree with brute-force enumeration of all maps:
    same count, and every enumerated map lies in the computed subspace."""
    c = divided_power_dual(GF2, 3)
    m = comodule_over_self(c)
    t = trivial(c, grouplike_elements(c)[0])
    hom = hom_comodules(m, t)
    found = 0
    for combo in product([0, 1], repeat=3):
        mat = Mat.from_entries(1, 3, GF2, [(0, j, v) for j, v in enumerate(combo)])
        if is_comodule_map(m, t, mat):
            found += 1
            vec = {j * t.dim + 0: v for j, v in enumerate(combo) if v}
            assert hom.contains(vec)
    assert 2 ** hom.dim == found


def test_cotensor_counit_isomorphisms():
    for field in FIELDS:
        for c in catalog_coalgebras(field):
            n = comodule_over_self(c, "left")
            creg = comodule_over_self(c, "right")
            sub = cotensor(creg, n)
            assert sub.dim == c.dim
            # (eps (x) id) restricted to the equalizer is an isomorphism onto N
            eps_id = c.epsilon.kron(Mat.identity(c.dim, field))
            assert rank(eps_id @ sub.basis) == c.dim
            # symmetric version via (id (x) eps)
            eps_id2 = Mat.identity(c.dim, field).kron(c.epsilon)
            assert rank(eps_id2 @ sub.basis) == c.dim


def test_dual_comodule_axioms_and_double_dual():
    for field in FIELDS:
        for c in catalog_coalgebras(field):
            m = cofree(c, 2)
            md = dual_comodule(m)
            assert md.side == "right"
            assert check_comodule(md).ok
            assert dual_comodule(md).coaction == m.coaction


def test_dual_of_trivial_is_trivial():
    c = divided_power_dual(QQ, 3)
    t = trivial(c, grouplike_elements(c)[0])
    td = dual_comodule(t)
    assert td.dim == 1 and check_comodule(td).ok


def test_hom_equals_cotensor_of_dual():
    rng = random.Random(5)
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        for _ in range(6):
            v = random_comodule(rng, c)
            m = random_comodule(rng, c)
            assert hom_comodules(v, m).dim == cotensor(dual_comodule(v), m).dim


def _bump(rng, m):
    """m with one coaction entry shifted by a nonzero scalar."""
    f = m.field
    i, j = rng.randrange(m.coaction.rows), rng.randrange(m.dim)
    bump = Mat.from_entries(m.coaction.rows, m.dim, f, [(i, j, f.random(rng, nonzero=True))])
    return comodule_of(m.coalgebra, m.side, m.dim, m.coaction + bump)


@pytest.mark.parametrize("field", FIELDS)
def test_right_comodules_agree_with_their_left_duals(field):
    # right comodules run through the C^cop reindexing; their duals, built by
    # dual_comodule, are left comodules that never do
    rng = random.Random(31)
    for c in (divided_power_dual(field, 3), matrix_coalgebra(field, 2), grouplike(field, 2)):
        for _ in range(4):
            m = randomgen.random_comodule(rng, c, side="right")
            n = randomgen.random_comodule(rng, c, side="right")
            for x in (m, _bump(rng, m), _bump(rng, m)):
                assert check_comodule(x).failures == check_comodule(dual_comodule(x)).failures
            assert hom_comodules(m, n).dim == hom_comodules(dual_comodule(n), dual_comodule(m)).dim
            assert check_comodule(direct_sum(m, n)).ok
            sub = comodule_closure(m, [randomgen.random_vector(rng, m.dim, field)])
            assert check_comodule(sub_comodule(m, sub)[0]).ok
            assert check_comodule(quotient_comodule(m, sub)[0]).ok


def random_comodule(rng, c, max_cofree=2):
    """Random subcomodule or quotient of a cofree comodule."""
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


def test_random_subquotients_pass_axioms():
    rng = random.Random(11)
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        for _ in range(10):
            m = random_comodule(rng, c)
            assert check_comodule(m).ok


def test_cofree_is_injective():
    for field in [QQ, GF2]:
        for c in catalog_coalgebras(field):
            if c.dim > 4:
                continue
            m = cofree(c, 1)
            flag, retraction = is_injective(m)
            assert flag
            assert (retraction @ m.coaction) == Mat.identity(m.dim, field)


def test_regular_comodule_injective():
    c = divided_power_dual(GF2, 3)
    flag, _ = is_injective(comodule_over_self(c))
    assert flag


def test_restricted_regular_comodule_not_injective():
    # the 3-dimensional divided-power dual viewed over its quotient is
    # free + trivial over the dual numbers; the trivial part obstructs
    from contramod.functors import Induction

    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        m = Induction(rho).comodule
        assert check_comodule(m).ok
        flag, _ = is_injective(m)
        assert not flag


def test_direct_sum_injectivity():
    c = divided_power_dual(GF2, 2)
    free = comodule_over_self(c)
    triv = trivial(c, grouplike_elements(c)[0])
    assert is_injective(direct_sum(free, free))[0]
    assert not is_injective(direct_sum(free, triv))[0]
    assert not is_injective(triv)[0]


def test_head_radical_simple_cases():
    c = grouplike(GF(3), 2)
    # over a grouplike coalgebra the simples are the coordinate lines
    simples = [
        trivial(c, g) for g in grouplike_elements(c)
    ]
    for i, s in enumerate(simples):
        s.name = f"S{i}"
    m = comodule_over_self(c)
    hr = head_radical(m, simples)
    assert hr.radical.dim == 0
    assert hr.head == {"S0": 1, "S1": 1}
    s0 = simples[0]
    both = direct_sum(s0, s0)
    hr2 = head_radical(both, simples)
    assert hr2.head == {"S0": 2}
    assert hr2.radical.dim == 0


def test_head_radical_nonsemisimple():
    c = divided_power_dual(GF2, 3)
    triv = trivial(c, grouplike_elements(c)[0])
    triv.name = "k"
    m = comodule_over_self(c)
    hr = head_radical(m, [triv])
    assert hr.head == {"k": 1}
    assert hr.radical.dim == 2
    assert coaction_stabilizes(m, hr.radical)
    # head is semisimple: quotient by the radical has zero radical
    head, _ = quotient_comodule(m, hr.radical)
    assert head_radical(head, [triv]).radical.dim == 0


def loop_head_radical(m, simples):
    """The radical as the kernel of every hom basis map to a simple, the
    maps decoded one by one and stacked with vstack."""
    maps = [t for s in simples for t in hom_basis_maps(m, s)]
    if not maps:
        return full_space(m.dim, m.field)
    big = maps[0]
    for t in maps[1:]:
        big = big.vstack(t)
    return kernel(big)


@pytest.mark.parametrize("field", FIELDS)
def test_head_radical_matches_vstack_loop(field):
    rng = random.Random(2901)
    for c in (grouplike(field, 3), divided_power_dual(field, 3), divided_power_dual(field, 4)):
        simples = [trivial(c, g) for g in grouplike_elements(c)]
        for i, s in enumerate(simples):
            s.name = f"S{i}"
        for _ in range(6):
            m = randomgen.random_comodule(rng, c)
            hr = head_radical(m, simples)
            assert hr.radical == loop_head_radical(m, simples)
            assert hr.head == {s.name: hom_comodules(m, s).dim for s in simples
                               if hom_comodules(m, s).dim}


@pytest.mark.parametrize("field", FIELDS)
def test_head_radical_when_no_simple_receives_a_map(field):
    c = grouplike(field, 3)
    g0, *rest = grouplike_elements(c)
    m = direct_sum(trivial(c, g0), trivial(c, g0))
    for simples in ([trivial(c, g) for g in rest], []):
        hr = head_radical(m, simples)
        assert hr.radical == full_space(m.dim, field) == loop_head_radical(m, simples)
        assert hr.head == {}



def test_maps_between_comodules_over_different_coalgebras_raise():
    """is_comodule_map, on comodules and on contramodules, refuses what
    hom_comodules refuses, rather than comparing coactions over two
    coalgebras of the same dimension."""
    from contramod.contramodule import contra_from_comodule

    one = GF2.one()
    m = trivial(grouplike(GF2, 2), {0: one})
    n_mod = trivial(divided_power_dual(GF2, 2), {0: one})
    eye = Mat.identity(1, GF2)
    with pytest.raises(ValueError, match="coalgebra mismatch"):
        hom_comodules(m, n_mod)
    with pytest.raises(ValueError, match="coalgebra mismatch"):
        is_comodule_map(m, n_mod, eye)
    with pytest.raises(ValueError, match="coalgebra mismatch"):
        is_comodule_map(contra_from_comodule(m), contra_from_comodule(n_mod), eye)
    assert is_comodule_map(m, m, eye) and is_comodule_map(n_mod, n_mod, eye)
