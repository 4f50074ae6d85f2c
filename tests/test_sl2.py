"""Normal-form arithmetic, Frobenius kernels, the p=2 catalog and towers."""

import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from contramod.coalgebra import check_coalgebra, grouplike
from contramod.comodule import (
    Comodule, _gf2_masks, check_comodule, comodule_over_self, dual_comodule,
    is_injective, quotient_comodule,
)
from contramod.contramodule import check_contramodule, contra_from_comodule, is_projective
from contramod.fields import GF, GF2, QQ
from contramod.linalg import rank
from contramod.matrix import Mat, kron_identity
from contramod.sl2 import (
    RationalComodule, SL2Poly, battery_module, build_tower, catalog_modules, character_decomposition,
    char_product, delta_poly, f_multiplicity, frob_kernel_coalgebra, frobenius_twist,
    hom_rational, is_rational_map, kernel_masks, kernel_stage_masks, p_adic_digits,
    reduce_poly_to_kernel, restrict_to_kernel, simple_character, simple_module, stage_dim,
    standard_rational, tensor_rational, trivial_rational,
)
from contramod.sl2 import _battery_factors, _mono_mul, _reduce_mono_kernel, _stage_factors
from test_comodule import head_radical, trivial
from test_linalg import intersect
from test_structure_maps import coaction_stabilizes, comodule_of, typed


def _gens(p=2):
    return {n: SL2Poly.gen(p, n) for n in "abcd"}


def kernel_index(mono3, q):
    """The tests' own flat index (i*q + j)*q + k of b^i c^j a^k in k[G_r],
    q = p^r, and its inverse :func:`kernel_mono`."""
    i, j, k = mono3
    return (i * q + j) * q + k


def kernel_mono(x, q):
    return x // (q * q), x // q % q, x % q


def mul_bca(m1, m2, q):
    """The tests' own product of two monomials (b, c, a exponents) of k[G_r]:
    None where b^q = 0 or c^q = 0 kills it; a^q = 1."""
    i, j = m1[0] + m2[0], m1[1] + m2[1]
    return None if i >= q or j >= q else (i, j, (m1[2] + m2[2]) % q)


def _random_poly(rng, p=2, nterms=3, maxexp=3):
    terms = {}
    for _ in range(nterms):
        if rng.random() < 0.5:
            mono = (rng.randrange(maxexp), rng.randrange(maxexp), rng.randrange(maxexp), 0)
        else:
            mono = (rng.randrange(maxexp), rng.randrange(maxexp), 0, rng.randrange(maxexp))
        c = rng.randrange(1, p)
        terms[mono] = c
    return SL2Poly(p, terms)


def test_determinant_relation_reduces():
    g = _gens()
    ad = g["a"] * g["d"]
    bc_plus_one = g["b"] * g["c"] + SL2Poly.const(2, 1)
    assert ad == bc_plus_one


def test_no_mixed_ad_monomials():
    rng = random.Random(3)
    for _ in range(30):
        x = _random_poly(rng) * _random_poly(rng)
        for (i, j, k, l) in x.terms:
            assert k == 0 or l == 0


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_ring_laws(rng):
    x, y, z = (_random_poly(rng) for _ in range(3))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_reduce_is_multiplicative():
    # reduce(x*y) = reduce(reduce-basis products) via kernel coefficients
    rng = random.Random(7)
    for r in (1, 2):
        for _ in range(10):
            x, y = _random_poly(rng), _random_poly(rng)
            lhs = reduce_poly_to_kernel(x * y, r)
            # multiply inside the truncated ring through matrices: compare
            # against reducing the factors and multiplying normal forms
            q = 2 ** r
            acc = {}
            for x1, c1 in reduce_poly_to_kernel(x, r).items():
                for x2, c2 in reduce_poly_to_kernel(y, r).items():
                    m1, m2 = kernel_mono(x1, q), kernel_mono(x2, q)
                    i, j = m1[0] + m2[0], m1[1] + m2[1]
                    if i >= q or j >= q:
                        continue
                    key = kernel_index((i, j, (m1[2] + m2[2]) % q), q)
                    acc[key] = (acc.get(key, 0) + c1 * c2) % 2
            acc = {k: v for k, v in acc.items() if v}
            assert lhs == acc


def test_delta_poly_on_generators():
    g = _gens()
    assert delta_poly(g["a"]) == {
        ((0, 0, 1, 0), (0, 0, 1, 0)): 1,
        ((1, 0, 0, 0), (0, 1, 0, 0)): 1,
    }
    assert delta_poly(g["b"]) == {
        ((0, 0, 1, 0), (1, 0, 0, 0)): 1,
        ((1, 0, 0, 0), (0, 0, 0, 1)): 1,
    }


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_is_algebra_map_on_samples(p):
    """Delta(xy) = Delta(x) Delta(y) on each of 8 seeded pairs, the right
    side multiplied out monomial by monomial with _mono_mul."""
    rng = random.Random(11)
    for _ in range(8):
        x, y = _random_poly(rng, p, nterms=2, maxexp=2), _random_poly(rng, p, nterms=2, maxexp=2)
        rhs: dict = {}
        for (x1, y1), c1 in delta_poly(x).items():
            for (x2, y2), c2 in delta_poly(y).items():
                for mx, cx in _mono_mul(x1, x2, p).items():
                    for my, cy in _mono_mul(y1, y2, p).items():
                        rhs[mx, my] = (rhs.get((mx, my), 0) + c1 * c2 * cx * cy) % p
        assert delta_poly(x * y) == {key: c for key, c in rhs.items() if c}, (x.terms, y.terms)


def _nonzero_residues(d: dict, p: int) -> bool:
    return all(type(c) is int and 0 < c < p for c in d.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sl2_sums_cancel_to_nonzero_residues(p):
    """At p = 2 every stored coefficient is 1, so only p >= 3 exercises a
    reduction after a sum.  Sums whose terms cancel store no zero and no
    unreduced coefficient, and Delta stays multiplicative."""
    g = _gens(p)
    minus = SL2Poly.const(p, p - 1)
    one = SL2Poly.const(p, 1)
    det = g["a"] * g["d"] + minus * g["b"] * g["c"]
    assert det == one  # ad - bc = 1
    assert det.torus_restrict() == {0: 1}
    assert delta_poly(det) == {((0, 0, 0, 0), (0, 0, 0, 0)): 1}
    assert reduce_poly_to_kernel(g["a"].frobenius(1) + minus, 1) == {}  # a^p = 1 in k[G_1]
    rng = random.Random(100 + p)
    for _ in range(12):
        x, y = _random_poly(rng, p, nterms=4), _random_poly(rng, p, nterms=4)
        assert (x + minus * x).is_zero()
        assert (x * (y + minus * y)).is_zero()
        for poly in (x + y, x * y, (x + one) * (y + minus * x)):
            for stored in (poly.terms, poly.torus_restrict(), delta_poly(poly),
                           reduce_poly_to_kernel(poly, 1), reduce_poly_to_kernel(poly, 2)):
                assert _nonzero_residues(stored, p)
        want: dict = {}
        for (x1, y1), c1 in delta_poly(x).items():
            for (x2, y2), c2 in delta_poly(y).items():
                left = SL2Poly(p, {x1: 1}) * SL2Poly(p, {x2: 1})
                right = SL2Poly(p, {y1: 1}) * SL2Poly(p, {y2: 1})
                for mx, cx in left.terms.items():
                    for my, cy in right.terms.items():
                        want[mx, my] = (want.get((mx, my), 0) + c1 * c2 * cx * cy) % p
        assert delta_poly(x * y) == {key: c for key, c in want.items() if c}


def test_catalog_validates():
    cat = catalog_modules(2)
    for name in ("L0", "L1", "L2", "L3", "P0", "P1"):
        assert cat[name].validate().ok, name
    dims = {n: cat[n].dim for n in ("L0", "L1", "L2", "L3", "P0", "P1")}
    assert dims == {"L0": 1, "L1": 2, "L2": 2, "L3": 4, "P0": 4, "P1": 2}


def test_catalog_is_built_once_and_returned_as_a_fresh_dict():
    """Each call returns a new dict of the same modules, so a caller that
    edits its dict leaves the next call's catalog as it was."""
    cat = catalog_modules(2)
    names = sorted(cat)
    first = dict(cat)
    cat["L1"] = cat.pop("L0")
    cat["extra"] = cat.pop("q")
    again = catalog_modules(2)
    assert again is not cat and sorted(again) == names
    assert all(again[name] is first[name] for name in names)
    assert again["L0"].dim == 1 and again["L1"].dim == 2 and again["q"].cols == 4
    with pytest.raises(NotImplementedError):
        catalog_modules(3)


def test_characters():
    cat = catalog_modules(2)
    assert cat["L0"].character() == {0: 1}
    assert cat["L1"].character() == {1: 1, -1: 1}
    assert cat["L2"].character() == {2: 1, -2: 1}
    assert cat["L3"].character() == {3: 1, 1: 1, -1: 1, -3: 1}
    assert cat["P0"].character() == {2: 1, 0: 2, -2: 1}


def test_frobenius_twist_properties():
    cat = catalog_modules(2)
    t = frobenius_twist(cat["L0"], 1)
    assert t.entries == cat["L0"].entries
    # twists compose multiplicatively
    assert frobenius_twist(frobenius_twist(cat["L1"], 1), 1).entries == frobenius_twist(cat["L1"], 2).entries


def test_tensor_character_multiplicative():
    cat = catalog_modules(2)
    t = tensor_rational(cat["L1"], cat["L1"])
    assert t.character() == char_product(cat["L1"].character(), cat["L1"].character())
    assert t.character() == {2: 1, 0: 2, -2: 1}
    assert t.dim == 4
    # tensor with the trivial module changes nothing
    same = tensor_rational(cat["L1"], cat["L0"])
    assert same.character() == cat["L1"].character()


def test_q_is_a_surjective_module_map():
    cat = catalog_modules(2)
    q = cat["q"]
    l0 = cat["L0"]
    p0 = cat["P0"]
    assert is_rational_map(q, p0, l0)
    assert rank(q) == 1
    # kernel of q has dimension 3
    from contramod.linalg import kernel

    assert kernel(q).dim == 3


def test_is_rational_map_refuses_what_it_cannot_check():
    """A map over another field is refused rather than read through int();
    near misses of q are not module maps."""
    cat = catalog_modules(2)
    p0, l0, q = cat["P0"], cat["L0"], cat["q"]
    halves = Mat(1, 4, QQ, {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 2)})
    with pytest.raises(ValueError, match="characteristic mismatch"):
        is_rational_map(halves, p0, l0)
    with pytest.raises(ValueError, match="characteristic mismatch"):
        is_rational_map(q, p0, trivial_rational(3))
    assert not is_rational_map(Mat(1, 4, GF2, {**q.data, (0, 0): 1}), p0, l0)
    assert not is_rational_map(Mat(1, 4, GF2, {(0, 1): 1}), p0, l0)
    assert not is_rational_map(Mat(4, 1, GF2, {(1, 0): 1, (2, 0): 1}), p0, l0)


def test_simple_characters_and_digits():
    assert p_adic_digits(0, 2) == [0]
    assert p_adic_digits(5, 2) == [1, 0, 1]
    assert simple_character(2, 2) == {2: 1, -2: 1}
    assert simple_character(2, 3) == {3: 1, 1: 1, -1: 1, -3: 1}
    assert simple_character(2, 5) == char_product({1: 1, -1: 1}, {4: 1, -4: 1})


def test_simple_characters_linearly_independent():
    """Distinct highest weights give unitriangular (hence independent) chars."""
    chars = {mu: simple_character(2, mu) for mu in range(8)}
    for mu, ch in chars.items():
        assert max(ch) == mu and ch[mu] == 1


def test_f_multiplicity_oracle_values():
    cat = catalog_modules(2)
    assert f_multiplicity(0, cat["L0"]) == 1
    assert f_multiplicity(1, cat["L1"]) == 1
    ll = tensor_rational(cat["L1"], cat["L1"])
    assert f_multiplicity(0, ll) == 2
    assert f_multiplicity(1, ll) == 0
    assert f_multiplicity(2, ll) == 1
    assert f_multiplicity(0, cat["P0"]) == 2
    assert f_multiplicity(1, cat["P0"]) == 0


def test_character_decomposition_rejects_inconsistent():
    with pytest.raises(ValueError):
        character_decomposition(2, {1: 1, -1: 2})


def test_frob_kernel_coalgebra_axioms_r1():
    c = frob_kernel_coalgebra(2, 1)
    assert c.dim == 8
    assert check_coalgebra(c).ok


@pytest.mark.slow
def test_frob_kernel_coalgebra_axioms_r2():
    c = frob_kernel_coalgebra(2, 2)
    assert c.dim == 64
    assert check_coalgebra(c).ok


def test_restrict_to_kernel_trivial_and_twist():
    cat = catalog_modules(2)
    t = restrict_to_kernel(cat["L0"], 1)
    assert check_comodule(t).ok and t.dim == 1
    # the first twist restricts trivially to the first kernel: all coaction
    # entries reduce to the scalar 1 (kernel basis index 0)
    tw = restrict_to_kernel(cat["L2"], 1)
    assert tw.coaction.col(0) == {0 * 8 + 0: 1}
    assert tw.coaction.col(1) == {1 * 8 + 0: 1}
    assert check_comodule(tw).ok


def test_restricted_catalog_passes_axioms():
    cat = catalog_modules(2)
    for name in ("L0", "L1", "L2", "L3", "P0", "P1"):
        m = restrict_to_kernel(cat[name], 1)
        assert check_comodule(m).ok, name


def test_l1_remains_simple_over_g1():
    simples = [restrict_to_kernel(simple_module(2, mu), 1) for mu in range(2)]
    m = restrict_to_kernel(catalog_modules(2)["L1"], 1)
    hr = head_radical(m, simples)
    assert hr.radical.dim == 0
    assert hr.head == {simples[1].name: 1}


def brute_force_radical_f2(m):
    """Enumerate all subspaces over F2, keep the maximal proper subcomodules,
    intersect them.  Only feasible for tiny dimensions."""
    from contramod.linalg import Subspace

    dim = m.dim
    vectors = []
    for combo in product([0, 1], repeat=dim):
        if any(combo):
            vectors.append({i: v for i, v in enumerate(combo) if v})
    subs = {}
    import itertools

    for size in range(0, dim + 1):
        for gens in itertools.combinations(vectors, min(size, 3)) if size else [()]:
            sub = Subspace.from_columns(dim, m.field, list(gens))
            key = (tuple(sub.pivots), tuple(sorted(sub.basis.data.items())))
            subs[key] = sub
    stable = [s for s in subs.values() if s.dim < dim and coaction_stabilizes(m, s)]
    maximal = []
    for s in stable:
        if not any(o.dim > s.dim and all(o.contains(c) for c in s.basis_columns()) for o in stable):
            maximal.append(s)
    rad = None
    for s in maximal:
        rad = s if rad is None else intersect(rad, s)
    return rad


def test_p0_head_radical_over_g1_with_brute_force():
    """P(0) restricted to the first kernel: head L(0), radical of dim 3,
    cross-checked by exhaustive submodule enumeration over F2."""
    cat = catalog_modules(2)
    m = restrict_to_kernel(cat["P0"], 1)
    simples = [restrict_to_kernel(simple_module(2, mu), 1) for mu in range(2)]
    hr = head_radical(m, simples)
    assert hr.head == {simples[0].name: 1}
    assert hr.radical.dim == 3
    assert coaction_stabilizes(m, hr.radical)
    rad = brute_force_radical_f2(m)
    assert rad == hr.radical
    # head is semisimple
    head, _ = quotient_comodule(m, hr.radical)
    assert head_radical(head, simples).radical.dim == 0


def test_p1_projective_over_g1():
    cat = catalog_modules(2)
    m = restrict_to_kernel(cat["P1"], 1)
    assert is_injective(m)[0]
    assert is_projective(contra_from_comodule(dual_comodule(m)))[0]


def test_p0_is_projective_cover_of_trivial_over_g1():
    # machine verification of the assumed G-structure: restriction to the
    # first kernel is projective with simple head L(0)
    cat = catalog_modules(2)
    m = restrict_to_kernel(cat["P0"], 1)
    assert is_injective(m)[0]
    assert is_projective(contra_from_comodule(dual_comodule(m)))[0]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("name", ["L0", "L1", "P0"])
def test_projectivity_controls_over_frobenius_kernels(name, r):
    """Over k[G_1] the Steinberg module L1 and P0 are projective and L0 is
    not; over k[G_2] none of the three is.  Each contramodule's verdict
    agrees with the injectivity of its comodule, and a returned section
    splits theta."""
    m = restrict_to_kernel(catalog_modules(2)[name], r)
    b = contra_from_comodule(dual_comodule(m))
    flag, section = is_projective(b)
    assert flag == ((name, r) in {("L1", 1), ("P0", 1)})
    assert is_injective(m)[0] == flag
    if flag:
        assert b.theta @ section == Mat.identity(b.dim, GF2)
    else:
        assert section is None


def test_regular_comodule_over_g1():
    c = frob_kernel_coalgebra(2, 1)
    assert check_comodule(comodule_over_self(c)).ok
    assert check_contramodule(contra_from_comodule(comodule_over_self(c))).ok


def test_hom_rational_dims():
    cat = catalog_modules(2)
    assert hom_rational(cat["L1"], cat["L1"]).dim == 1
    assert hom_rational(cat["L0"], cat["P0"]).dim == 1
    assert hom_rational(cat["L0"], cat["L1"]).dim == 0
    assert hom_rational(cat["P0"], cat["L0"]).dim == 1


def test_build_tower_dims_and_transitions():
    for lam, dims in ((0, [4, 16, 64]), (1, [2, 8, 32])):
        tower = build_tower(lam, 2, 3)
        assert [s.dim for s in tower.stages] == dims
        assert tower.m0 == 1
        for small, big in zip(tower.stages, tower.stages[1:]):
            tr = kron_identity(catalog_modules(2)["q"], small.dim, left=True)
            assert is_rational_map(tr, big, small)
            assert rank(tr) == small.dim
    with pytest.raises(ValueError):
        build_tower(0, 2, 0)


def test_tower_stages_validate():
    tower = build_tower(1, 2, 2)
    for stage in tower.stages:
        assert stage.validate().ok


def test_battery_module_parser():
    m = battery_module(2, "L1*L1")
    assert m.dim == 4 and m.character() == {2: 1, 0: 2, -2: 1}
    assert battery_module(2, "L3").dim == 4
    with pytest.raises(KeyError):
        battery_module(2, "X9")


def test_lemma_hom_agreement_small():
    """G-homs into a battery module agree with kernel homs once the kernel
    index clears the weights: stage m=2 against L(1)."""
    from contramod.comodule import hom_comodules

    tower = build_tower(1, 2, 2)
    stage = tower.stages[-1]  # P(1,2), dim 8
    v = catalog_modules(2)["L1"]
    lhs = hom_rational(stage, v).dim
    rhs = hom_comodules(restrict_to_kernel(stage, 2), restrict_to_kernel(v, 2)).dim
    assert lhs == rhs == f_multiplicity(1, v)


def direct_sum_rational(m, n):
    if m.p != n.p:
        raise ValueError("characteristic mismatch")
    entries = dict(m.entries)
    for (i, j), poly in n.entries.items():
        entries[(m.dim + i, m.dim + j)] = poly
    return RationalComodule(m.p, m.dim + n.dim, entries, name=f"{m.name}+{n.name}")


def test_direct_sum_character_additive():
    cat = catalog_modules(2)
    both = direct_sum_rational(cat["L1"], cat["P0"])
    assert both.validate().ok
    ch1, ch2 = cat["L1"].character(), cat["P0"].character()
    expected = dict(ch1)
    for w, m in ch2.items():
        expected[w] = expected.get(w, 0) + m
    assert both.character() == expected
    assert f_multiplicity(1, both) == f_multiplicity(1, cat["L1"]) + f_multiplicity(1, cat["P0"])


def test_agreement_chain_cohom_hom_multiplicity():
    """Composed identities at p=2: Cohom over the stage kernel (through the
    duals) = module homs over the kernel = G-homs = the character
    multiplicity, once p^(m-1) clears the weights of V."""
    from contramod.comodule import hom_comodules
    from contramod.contramodule import cohom, contra_from_comodule

    battery = ["L0", "L1", "L1*L1"]
    for lam in (0, 1):
        tower = build_tower(lam, 2, 3)
        for expr in battery:
            v = battery_module(2, expr)
            max_wt = max(abs(w) for w in v.character())
            for offset, stage in enumerate(tower.stages):
                m = tower.m0 + offset
                if 2 ** (m - 1) <= max_wt:
                    continue
                f_v = f_multiplicity(lam, v)
                p_m = restrict_to_kernel(stage, m)
                v_m = restrict_to_kernel(v, m)
                hom_kernel = hom_comodules(p_m, v_m).dim
                hom_g = hom_rational(stage, v).dim
                cohom_dim = cohom(
                    dual_comodule(v_m), contra_from_comodule(dual_comodule(p_m))
                ).dim
                assert hom_g == hom_kernel == cohom_dim == f_v, (lam, expr, m)


def test_frob_kernel_coalgebra_axioms_r3():
    c = frob_kernel_coalgebra(2, 3)
    assert c.dim == 512
    assert check_coalgebra(c).ok


@pytest.mark.slow
def test_tower_stage3_restriction_passes_axioms():
    tower = build_tower(0, 2, 3)
    m = restrict_to_kernel(tower.stages[-1], 3)
    assert check_comodule(m).ok
    assert tower.stages[-1].validate().ok


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_counit_is_multiplicative(rng):
    x, y = _random_poly(rng), _random_poly(rng)
    assert (x * y).eps() == (x.eps() * y.eps()) % 2


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_torus_restriction_multiplicative(rng):
    x, y = _random_poly(rng), _random_poly(rng)

    def char_mul(c1, c2):
        out = {}
        for w1, m1 in c1.items():
            for w2, m2 in c2.items():
                out[w1 + w2] = (out.get(w1 + w2, 0) + m1 * m2) % 2
        return {w: m for w, m in out.items() if m}

    assert (x * y).torus_restrict() == char_mul(x.torus_restrict(), y.torus_restrict())


def test_trivial_objects_over_kernel_coalgebras():
    # the unit monomial is grouplike, giving trivial (co/contra)modules
    for r in (1, 2):
        c = frob_kernel_coalgebra(2, r)
        g = {0: GF2.one()}
        assert check_comodule(trivial(c, g)).ok
        assert check_contramodule(trivial(c, g, contra=True)).ok
    # the catalog entry points agree with the generic constructors
    assert standard_rational(2).entries == catalog_modules(2)["L1"].entries
    assert trivial_rational(2).entries == catalog_modules(2)["L0"].entries


def test_character_invariants():
    # self-dual catalog modules have negation-symmetric characters whose
    # total mass is the dimension
    cat = catalog_modules(2)
    for name in ("L0", "L1", "L2", "L3", "P0", "P1"):
        ch = cat[name].character()
        assert sum(ch.values()) == cat[name].dim
        assert ch == {-w: m for w, m in ch.items()}


def _reduce_mono_oracle(mono, p, q):
    """The uncached generator that _reduce_mono_kernel memoises, on flat
    indices (:func:`kernel_index`)."""
    i, j, k, l = mono
    if l == 0:
        if i < q and j < q:
            yield kernel_index((i, j, k % q), q), 1
        return
    k2 = (k + (q - 1) * l) % q
    for s in range(min(l, q - 1) + 1):
        c = comb(l, s) % p
        if c and i + s < q and j + s < q:
            yield kernel_index((i + s, j + s, k2), q), c


def _restrict_oracle(m, r):
    """The coaction of restrict_to_kernel, accumulated by Mat.from_entries
    from the uncached reduction."""
    c = frob_kernel_coalgebra(m.p, r)
    q = m.p ** r
    entries = [(i * c.dim + x, j, coeff * c2)
               for (i, j), poly in m.entries.items()
               for mono, coeff in poly.terms.items()
               for x, c2 in _reduce_mono_oracle(mono, m.p, q)]
    return Mat.from_entries(m.dim * c.dim, m.dim, c.field, entries)


def test_memoised_reduction_and_restriction_match_the_uncached_path():
    rng = random.Random(41)
    stage = build_tower(0, 2, 3).stages[-1]
    monos = {(2, 3): sorted({mono for poly in stage.entries.values() for mono in poly.terms})}
    for p, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        q = p ** r
        drawn = monos.setdefault((p, r), [])
        for _ in range(200):
            i, j, e = rng.randrange(2 * q), rng.randrange(2 * q), rng.randrange(3 * q)
            drawn.append((i, j, e, 0) if rng.random() < 0.5 else (i, j, 0, e))
    for (p, r), batch in monos.items():
        q = p ** r
        for mono in batch + batch:  # the second pass reads the memo
            assert _reduce_mono_kernel(mono, p, q) == tuple(_reduce_mono_oracle(mono, p, q)), mono
    l1_3 = standard_rational(3)
    modules = [(stage, r) for r in (1, 2, 3)] + [
        (m, r) for m in (tensor_rational(l1_3, l1_3), tensor_rational(l1_3, frobenius_twist(l1_3, 1)))
        for r in (1, 2)]
    for m, r in modules:
        got = restrict_to_kernel(m, r).coaction
        want = _restrict_oracle(m, r)
        assert (got.rows, got.cols, got.data) == (want.rows, want.cols, want.data), (m.name, r)


def hand_table_kernel_delta(p, r):
    """The comultiplication of k[G_r] from hand-written generator coproducts
    in the kernel basis, with d = a^{q-1}(1 + bc) substituted."""
    q = p ** r
    dim = q * q * q

    def tmul(acc, factor):
        out: dict = {}
        for (x1, y1), c1 in acc.items():
            for (x2, y2), c2 in factor.items():
                mx, my = mul_bca(x1, x2, q), mul_bca(y1, y2, q)
                if mx is not None and my is not None:
                    out[mx, my] = (out.get((mx, my), 0) + c1 * c2) % p
        return {key: c for key, c in out.items() if c}

    da = {((0, 0, 1), (0, 0, 1)): 1, ((1, 0, 0), (0, 1, 0)): 1}
    db = {((0, 0, 1), (1, 0, 0)): 1, ((1, 0, 0), (0, 0, q - 1)): 1, ((1, 0, 0), (1, 1, q - 1)): 1}
    dc = {((0, 1, 0), (0, 0, 1)): 1, ((0, 0, q - 1), (0, 1, 0)): 1, ((1, 1, q - 1), (0, 1, 0)): 1}
    entries = []
    for i, j, k in product(range(q), repeat=3):
        cur = {((0, 0, 0), (0, 0, 0)): 1}
        for factor, exp in ((db, i), (dc, j), (da, k)):
            for _ in range(exp):
                cur = tmul(cur, factor)
        for (m1, m2), c in cur.items():
            entries.append((kernel_index(m1, q) * dim + kernel_index(m2, q), kernel_index((i, j, k), q), c))
    return Mat.from_entries(dim * dim, dim, GF(p), entries)


@pytest.mark.parametrize("p, r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)],
                         ids=["1", "2", "3", "p3-1", "p3-2", "p5-1"])
def test_kernel_delta_matches_hand_tables(p, r):
    """The generator coproducts reduced from k[SL2] give the same k[G_r]
    comultiplication as the hand-written kernel-basis tables.  At p >= 3
    the coefficients are not all 1, so the builder's sums reduce after
    cancelling."""
    assert frob_kernel_coalgebra(p, r).delta == hand_table_kernel_delta(p, r)


@pytest.mark.parametrize("p, r", [(2, 1), (2, 2), (3, 1)])
def test_kernel_coalgebra_keeps_entries_inside_its_shape(p, r):
    c = frob_kernel_coalgebra(p, r)
    for m in (c.delta, c.epsilon):
        assert all(0 <= i < m.rows and 0 <= j < m.cols for i, j in m.data)


# -- tower stages built in k[G_m] -------------------------------------------------------


def loop_build_tower(lam, p, m_max):
    """build_tower as one loop: the digit factors tensored together, then one
    P0 twist tensored into the last stage per further stage."""
    cat = catalog_modules(p)
    digits = p_adic_digits(lam, p)
    s = len(digits) - 1
    proj = {0: cat["P0"], 1: cat["P1"]}
    stage = None
    for t, digit in enumerate(digits):
        factor = frobenius_twist(proj[digit], t)
        stage = factor if stage is None else tensor_rational(stage, factor)
    stage.name = f"P({lam},{s + 1})"
    stages = [stage]
    for m in range(s + 2, m_max + 1):
        nxt = tensor_rational(stages[-1], frobenius_twist(cat["P0"], m - 1))
        nxt.name = f"P({lam},{m})"
        stages.append(nxt)
    return stages, s + 1


def assert_same_comodule(got, want):
    assert typed(got.coaction) == typed(want.coaction)
    assert (got.side, got.dim, got.name) == (want.side, want.dim, want.name)
    assert got.coalgebra is want.coalgebra


@pytest.mark.parametrize("m_max", [1, 2, 3])
def test_build_tower_matches_the_stage_loop(m_max):
    for lam in range(2 ** m_max):
        tower = build_tower(lam, 2, m_max)
        assert (tower.stages, tower.m0) == loop_build_tower(lam, 2, m_max)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_stage_matches_the_restricted_tower_stage(m):
    """Every lambda whose tower reaches stage m, that is lambda < 2^m."""
    for lam in range(2 ** m):
        want = dual_comodule(restrict_to_kernel(build_tower(lam, 2, m).stages[-1], m))
        assert_same_comodule(dual_kernel_stage(lam, 2, m), want)
        assert stage_dim(lam, 2, m) == want.dim


@pytest.mark.slow
def test_kernel_stage_matches_the_restricted_tower_stage_at_g4():
    want = dual_comodule(restrict_to_kernel(build_tower(0, 2, 4).stages[-1], 4))
    assert_same_comodule(dual_kernel_stage(0, 2, 4), want)


# -- the dict stage: the oracle for kernel_stage_masks --------------------------------


def tensor_kernel(m: Comodule, n: Comodule) -> Comodule:
    """Tensor product of two comodules on one side over the same k[G_r], the
    counterpart of :func:`tensor_rational` after restriction: reduction to
    k[G_r] is a ring map, so entry (i*dim N + i2, j*dim N + j2) is the
    product of entries (i, j) and (i2, j2), each the polynomial with
    coefficient coaction[x*dim + i, j] at monomial index x.  k[G_r] is
    commutative, so this serves either side.

    For each monomial y of N the image of M's whole coaction under
    x -> x*y is written as (row at i2 = 0, column at j2 = 0, coefficient),
    one image at a time.  Multiplying by a monomial is injective, so every
    entry of N that is the one monomial y writes that image with no
    accumulation, one coefficient product mod p per term; only an entry with
    several monomials adds its images, then reduces mod p."""
    c = m.coalgebra
    if n.coalgebra is not c or m.side != n.side:
        raise ValueError("tensor_kernel needs comodules on one side over one coalgebra")
    p, dim = c.field.characteristic, c.dim
    r = 1
    while p > 1 and p ** (3 * r) < dim:
        r += 1
    if p < 2 or c is not frob_kernel_coalgebra(p, r):
        raise ValueError("tensor_kernel needs comodules over a Frobenius kernel k[G_r]")
    q = p ** r
    md, nd = m.dim, n.dim
    out_dim = md * nd
    # M's stored row x*md + i is row x*out_dim + i*nd of the product at i2 = 0
    by_x: dict = {}
    for (row, j), v in m.left_coaction.data.items():
        by_x.setdefault(row // md, []).append((row * nd, j * nd, v))
    exps = {x: (x // (q * q), x // q % q, x % q) for x in by_x}

    def image(y):
        # x*y adds the exponents; an a-exponent of q or more wraps by q
        yb, yc, ya = y // (q * q), y // q % q, y % q
        return [(row + (y - q if xa + ya >= q else y) * out_dim, col, v)
                for x, (xb, xc, xa) in exps.items() if xb + yb < q and xc + yc < q
                for row, col, v in by_x[x]]

    groups: dict = {}
    for (row, j2), v in n.left_coaction.data.items():
        y, i2 = divmod(row, nd)
        groups.setdefault((i2, j2), []).append((y, v))
    singles: dict = {}
    for (i2, j2), e in groups.items():
        if len(e) == 1:
            y, c2 = e[0]
            singles.setdefault(y, []).append((i2, j2, c2))
    data = {(row + i2, col + j2): v * c2 % p
            for y, uses in singles.items() for row, col, v in image(y) for i2, j2, c2 in uses}
    for (i2, j2), e in groups.items():
        if len(e) > 1:
            acc: dict = {}
            for y, c2 in e:
                for row, col, v in image(y):
                    key = row + i2, col + j2
                    acc[key] = acc.get(key, 0) + v * c2
            data.update({key: v % p for key, v in acc.items() if v % p})
    return Comodule(c, m.side, out_dim, Mat(dim * out_dim, out_dim, c.field, data),
                    name=f"{m.name}*{n.name}")


def dual_kernel_stage(lam: int, p: int, m: int) -> Comodule:
    """The dual of P(lam, m) restricted to G_m, a left comodule equal entry
    for entry to the dual of the restricted stage of :func:`build_tower`:
    each twisted factor is restricted and dualised, and the duals are
    tensored in k[G_m] by :func:`tensor_kernel`."""
    factors = [dual_comodule(restrict_to_kernel(f, m)) for f in _stage_factors(lam, p, m)]
    return reduce(tensor_kernel, factors).replace(name=f"P({lam},{m})|G{m}*")


def loop_tensor_kernel(m, n, q):
    """tensor_kernel on two right comodules as one loop over their right
    layouts, rows i*dim C + x: each entry (i, j) a list of monomials
    (b, c, a exponents), multiplied pair by pair."""
    c = m.coalgebra
    p, dim = c.field.characteristic, c.dim

    def entries(w):
        out: dict = {}
        for (row, j), v in w.coaction.data.items():
            i, x = divmod(row, dim)
            a, k = divmod(x, q)
            out.setdefault((i, j), []).append(((*divmod(a, q), k), v))
        return out

    nd = n.dim
    right = list(entries(n).items())
    data = {}
    for (i, j), e1 in entries(m).items():
        for (i2, j2), e2 in right:
            acc: dict = {}
            for x1, c1 in e1:
                for x2, c2 in e2:
                    x = mul_bca(x1, x2, q)
                    if x is not None:
                        acc[x] = (acc.get(x, 0) + c1 * c2) % p
            base, col = (i * nd + i2) * dim, j * nd + j2
            for x, v in acc.items():
                if v:
                    data[base + kernel_index(x, q), col] = v
    coact = Mat(m.dim * nd * dim, m.dim * nd, c.field, data)
    return comodule_of(c, "right", m.dim * nd, coact, name=f"{m.name}*{n.name}")


def tensor_cases():
    cat = catalog_modules(2)
    pairs = [(cat[x], cat[y]) for x, y in (("L1", "L1"), ("L1", "L2"), ("P0", "P1"), ("L3", "L1"), ("L0", "P0"))]
    l1_3 = standard_rational(3)
    cases = [(x, y, 2, r) for x, y in pairs for r in (1, 2, 3)]
    cases += [(l1_3, frobenius_twist(l1_3, t), 3, r) for t in (0, 1) for r in (1, 2)]
    # d*d reduces to a^(2q-2) (1 + 2bc + b^2 c^2) in k[G_r]: coefficients 2
    return cases + [(tensor_rational(l1_3, l1_3), l1_3, 3, r) for r in (1, 2)]


def tensor_branches(a, b, p):
    """The branches of tensor_kernel that a (x) b runs: an entry of b with
    several monomials accumulates; an entry with one monomial writes the
    products of its coefficient with a's, some of them other than 1."""
    groups: dict = {}
    for (row, j), v in b.left_coaction.data.items():
        groups.setdefault((row % b.dim, j), []).append(v)
    left = set(a.left_coaction.data.values())
    out = set()
    if any(len(e) > 1 for e in groups.values()):
        out.add("several monomials")
    if any(v * e[0] % p != 1 for e in groups.values() if len(e) == 1 for v in left):
        out.add("coefficient product")
    return out


def test_tensor_cases_run_both_branches():
    """The loop oracle below checks tensor_kernel on both of its branches."""
    branches = set()
    for x, y, p, r in tensor_cases():
        branches |= tensor_branches(restrict_to_kernel(x, r), restrict_to_kernel(y, r), p)
    assert branches == {"several monomials", "coefficient product"}


def test_tensor_kernel_matches_the_monomial_loop_on_either_side():
    """The monomial images against the pair-by-pair loop on the right layout;
    on the left side, the tensor product of the duals is the dual of the
    tensor product, since k[G_r] is commutative."""
    for x, y, p, r in tensor_cases():
        a, b = restrict_to_kernel(x, r), restrict_to_kernel(y, r)
        want = loop_tensor_kernel(a, b, p ** r)
        assert_same_comodule(tensor_kernel(a, b), want)
        left = tensor_kernel(dual_comodule(a), dual_comodule(b))
        assert typed(left.left_coaction) == typed(dual_comodule(want).left_coaction), (x.name, y.name, r)
        assert (left.side, left.dim) == ("left", want.dim)


def assert_dual_of_looped_stage(lam, m):
    """The tower's left stage, tensored from the factors' duals, against the
    dual of the right stage the monomial loop tensors from the factors."""
    looped = reduce(lambda x, y: loop_tensor_kernel(x, y, 2 ** m),
                    [restrict_to_kernel(f, m) for f in _stage_factors(lam, 2, m)])
    left = dual_kernel_stage(lam, 2, m)
    assert typed(left.left_coaction) == typed(dual_comodule(looped).left_coaction)
    assert (left.side, left.dim) == ("left", looped.dim)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dual_kernel_stage_is_the_dual_of_the_looped_stage(m):
    for lam in range(2 ** m):
        assert_dual_of_looped_stage(lam, m)


@pytest.mark.slow
def test_dual_kernel_stage_is_the_dual_of_the_looped_stage_at_g4():
    assert_dual_of_looped_stage(0, 4)


def test_tensor_kernel_matches_restricted_tensor_products():
    """Reduction to k[G_r] is a ring map: tensoring after restriction equals
    restricting the k[SL2] tensor product, in characteristic 2 and 3."""
    for x, y, _, r in tensor_cases():
        got = tensor_kernel(restrict_to_kernel(x, r), restrict_to_kernel(y, r))
        want = restrict_to_kernel(tensor_rational(x, y), r)
        assert typed(got.coaction) == typed(want.coaction), (x.name, y.name, r)
        assert got.coalgebra is want.coalgebra and got.dim == want.dim


def test_tensor_kernel_refuses_other_coalgebras():
    l1 = catalog_modules(2)["L1"]
    with pytest.raises(ValueError):
        tensor_kernel(restrict_to_kernel(l1, 1), restrict_to_kernel(l1, 2))
    with pytest.raises(ValueError):
        tensor_kernel(dual_comodule(restrict_to_kernel(l1, 1)), restrict_to_kernel(l1, 1))
    # the same dimension as k[G_1], but not a Frobenius kernel
    regular = comodule_over_self(grouplike(GF2, 8), "right")
    with pytest.raises(ValueError):
        tensor_kernel(regular, regular)


# -- the stage's F2 masks, tensored from the factors ------------------------------------


def assert_masks_of_the_dict_stage(lam, m):
    b = contra_from_comodule(dual_kernel_stage(lam, 2, m))
    assert kernel_stage_masks(lam, m) == (b.dim, _gf2_masks(b)), (lam, m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_stage_masks_are_the_masks_of_the_dict_stage(m):
    """Every lambda whose tower reaches stage m, that is lambda < 2^m."""
    for lam in range(2 ** m):
        assert_masks_of_the_dict_stage(lam, m)


@pytest.mark.slow
@pytest.mark.parametrize("lam", [0, 1, 7])
def test_kernel_stage_masks_are_the_masks_of_the_dict_stage_at_g4(lam):
    assert_masks_of_the_dict_stage(lam, 4)


def traced_stage_masks(lam, m):
    """(dim, blocks, traced peak) of one kernel_stage_masks call."""
    tracemalloc.start()
    try:
        dim, blocks = kernel_stage_masks(lam, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dim, blocks, peak


def stage_masks(blocks):
    """Every mask of a stage, block by block."""
    return [t for block in blocks.values() for t in block.values()]


def test_kernel_stage_masks_trace_under_10_mb_at_g4():
    """P(0,4)'s masks once took about 4 MB; the dict stage they were once
    packed from held 135016 entries and traced a 20 MB peak."""
    dim, blocks, peak = traced_stage_masks(0, 4)
    assert dim == 256 and sum(t.bit_count() for t in stage_masks(blocks)) == 135016
    assert peak < 10_000_000, peak


def test_kernel_stage_masks_trace_under_5_5_mb_at_g4():
    """The masks of a tensor step drop their zero columns in place: a
    filtered copy of them, next to the accumulator it is read from, traced
    6.77 MB."""
    dim, blocks, peak = traced_stage_masks(0, 4)
    assert dim == 256 and len(stage_masks(blocks)) == 30157
    assert peak < 5_500_000, peak


def test_kernel_stage_masks_trace_under_3_5_mb_at_g4_with_one_int_per_value():
    """Grouped by monomial, with one int object per distinct mask value and
    per column index, P(0,4)'s 30157 masks trace about 2.1 MB; with a key
    int and a value int of its own for every mask they traced 4.69 MB."""
    dim, blocks, peak = traced_stage_masks(0, 4)
    masks = stage_masks(blocks)
    assert dim == 256 and len(masks) == 30157 and len(blocks) == 1564
    assert len(set(masks)) == len({id(t) for t in masks}) == 1533
    assert all(blocks.values()) and 0 not in masks
    assert peak < 3_500_000, peak


def test_kernel_stage_masks_share_column_ints_at_g5():
    """Past the small-int cache, every block's column j is the same int
    object: P(0,5)'s 415674 masks hold 1024 column ints and one int per
    distinct value."""
    dim, blocks = kernel_stage_masks(0, 5)
    columns = [j for block in blocks.values() for j in block]
    masks = stage_masks(blocks)
    assert dim == 1024 and len(masks) == 415674
    assert len({id(j) for j in columns}) == 1024
    assert len(set(masks)) == len({id(t) for t in masks})


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_masks_of_battery_modules_are_the_masks_of_their_restricted_duals(m):
    """The tower reads its battery through the stages' tensor step: the
    masks tensored from an expression's factors are those of the dual of
    the module tensored in k[SL2] and restricted to G_m."""
    for expr in ("L0", "L1", "L2", "L3", "L1*L1", "P0*L2", "L3*L1*L0", "P1*P0"):
        v = dual_comodule(restrict_to_kernel(battery_module(2, expr), m))
        assert kernel_masks(_battery_factors(2, expr), m) == (v.dim, _gf2_masks(v)), (expr, m)


# -- paper theorem 2, checks (a) and (c), on the stage masks ---------------------------


def gf2_rank(ints):
    """The tests' own GF(2) rank of int bitmasks, by leading bits."""
    pivots: dict = {}
    for v in ints:
        while v and v.bit_length() - 1 in pivots:
            v ^= pivots[v.bit_length() - 1]
        if v:
            pivots[v.bit_length() - 1] = v
    return len(pivots)


def u_coinvariants(dim, blocks, m):
    """dim M^{co U_m} of the left comodule M over k[G_m] with F2 masks
    (dim, blocks), q = 2^m.  k[G_m] -> k[U_m] = k[b]/(b^q) sends b^i c^j a^k
    to b^i when j = 0 and to 0 otherwise, and by Lucas's theorem a vector is
    coinvariant once the coefficients of b^(2^t), t < m, vanish on it.  So
    column j is one int, the XOR of blocks[z][j] << t*dim over the monomials
    z = b^(2^t) a^k, and the coinvariants number dim minus the rank of those
    ints.  M is free over k[U_m] iff q times that number is dim."""
    q = 2 ** m
    cols = [0] * dim
    for z, block in blocks.items():
        b, c = z // (q * q), z // q % q
        if c or not b or b & (b - 1):
            continue
        for j, mask in block.items():
            cols[j] ^= mask << (b.bit_length() - 1) * dim
    return dim - gf2_rank(cols)


@pytest.mark.parametrize("m", range(1, 8))
def test_theorem_2_check_c_the_stages_count_the_regular_module(m):
    """Check (c): the regular module of k[G_m] is the sum of the covers
    P(mu) with multiplicity dim L(mu), so with every stage the cover of its
    simple the sum of dim L(mu) * stage_dim(mu, 2, m) over mu < 2^m is
    dim k[G_m] = 8^m.  dim L(mu) is the sum of its character."""
    dims = [sum(simple_character(2, mu).values()) for mu in range(2 ** m)]
    if m <= 3:
        assert dims == [simple_module(2, mu).dim for mu in range(2 ** m)]
    assert sum(d * stage_dim(mu, 2, m) for mu, d in enumerate(dims)) == 8 ** m


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_theorem_2_check_a_every_stage_is_free_over_u(m):
    """Check (a) on the test side: every dual stage P(lam, m)*|G_m,
    lam < 2^m, is free over k[U_m]."""
    for lam in range(2 ** m):
        dim, blocks = kernel_stage_masks(lam, m)
        assert u_coinvariants(dim, blocks, m) * 2 ** m == dim, (lam, m)


def test_theorem_2_check_a_at_g5():
    dim, blocks = kernel_stage_masks(0, 5)
    assert (dim, u_coinvariants(dim, blocks, 5)) == (1024, 32)


@pytest.mark.parametrize("m", [2, 3])
def test_theorem_2_check_a_controls_are_not_free(m):
    """L0, L1*L1 and P0, of dimensions 1, 4 and 4, have 1, 2 and 2
    coinvariants over k[U_m] at m = 2 and 3, so none is free there.  Nor
    are P(0,2) and P(1,2) with their top factor P0 left untwisted: 6 of 16
    and 3 of 8."""
    cat = catalog_modules(2)
    controls = [[cat["L0"]], [cat["L1"], cat["L1"]], [cat["P0"]],
                [cat["P0"], cat["P0"]], [cat["P1"], cat["P0"]]]
    counts = [(kernel_masks(fs, m)[0], u_coinvariants(*kernel_masks(fs, m), m)) for fs in controls]
    assert counts == [(1, 1), (4, 2), (4, 2), (16, 6), (8, 3)]


def test_theorem_2_check_a_agrees_with_is_injective_over_g1():
    """At m = 1 the count finds P0 and P1 free and L0 not, as the split of
    the cofree embedding does for the restricted modules."""
    cat = catalog_modules(2)
    for name, free in (("P0", True), ("P1", True), ("L0", False)):
        dim, blocks = kernel_masks([cat[name]], 1)
        assert (u_coinvariants(dim, blocks, 1) * 2 == dim) == free, name
        assert is_injective(restrict_to_kernel(cat[name], 1))[0] == free, name
