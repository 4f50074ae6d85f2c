"""Restriction, induction, the adjunction isomorphism, exactness probes."""

import random

import pytest

from contramod.coalgebra import (
    divided_power_dual, divided_power_surjection, grouplike, grouplike_elements, matrix_coalgebra,
)
from contramod.comodule import (
    check_comodule, cofree, comodule_closure, hom_comodules, is_comodule_map, is_injective,
    quotient_comodule, sub_comodule,
)
from contramod.contramodule import Contramodule, check_contramodule, cohom, free_contramodule
from contramod.functors import (
    AdjunctionReport, Induction, ShortExactSeq, adjunction_check, exactness_probe, gamma,
    gamma_inv, induce_map,
)
from contramod.fields import GF, GF2, QQ
from contramod.linalg import rank
from contramod.matrix import Mat
from contramod.randomgen import random_contramodule, random_surjection
from test_coalgebra import augmentation, identity_morphism
from test_comodule import trivial
from test_contramodule import _random_contramodule
from test_structure_maps import hom_basis_maps, kron_cohom_maps

FIELDS = [QQ, GF2, GF(3)]


def test_restrict_identity():
    c = divided_power_dual(QQ, 3)
    b = free_contramodule(c, 1)
    assert Induction(identity_morphism(c)).restrict(b).theta == b.theta


def test_restrict_to_trivial_coalgebra():
    # restriction along the counit gives the underlying space with identity theta
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        b = free_contramodule(c, 2)
        r = Induction(augmentation(c)).restrict(b)
        assert r.theta == Mat.identity(b.dim, field)


def test_restrict_along_catalog_surjection():
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        b = free_contramodule(rho.source, 1)
        assert check_contramodule(Induction(rho).restrict(b)).ok


def test_comodule_along():
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        assert Induction(identity_morphism(c)).comodule.coaction == c.delta
        rho = divided_power_surjection(field, 3, 2, 2)
        m = Induction(rho).comodule
        assert check_comodule(m).ok
        # along the augmentation every coalgebra becomes a trivial comodule
        triv = Induction(augmentation(c)).comodule
        assert check_comodule(triv).ok
        assert triv.coaction == Mat.identity(c.dim, field)


def test_build_f_g_shapes_and_zero():
    # induction's presentation is Cohom_D(C, W): a quotient of Hom(C, W)
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        w = free_contramodule(rho.target, 1)
        coeq = cohom(Induction(rho).comodule, w)
        assert coeq.quotient_map.cols == rho.source.dim * w.dim
        w0 = free_contramodule(rho.target, 0)
        assert cohom(Induction(rho).comodule, w0).dim == 0


def test_build_f_g_rank_identity_case():
    # along the identity the relations have full expected rank:
    # Cohom_C(C, W) = W forces rank(f - g) = n*b - b
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        w = free_contramodule(c, 1)
        coeq = cohom(Induction(identity_morphism(c)).comodule, w)
        assert coeq.image_subspace.dim == c.dim * w.dim - w.dim


def test_induce_along_identity():
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        w = free_contramodule(c, 1)
        res = Induction(identity_morphism(c)).induce(w)
        assert res.dim == w.dim
        # explicit isomorphism: theta descends and inverts against the counit section
        descended = w.theta @ res.coeq.section
        assert rank(descended) == w.dim


def test_induce_free_gives_free():
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        for d in (1, 2):
            res = Induction(rho).induce(free_contramodule(rho.target, d))
            assert res.dim == free_contramodule(rho.source, d).dim


def test_induce_rejects_non_surjection():
    from contramod.coalgebra import CoalgebraMorphism

    c = divided_power_dual(QQ, 3)
    rho = CoalgebraMorphism(c, c, Mat(3, 3, QQ), surjective=False)
    with pytest.raises(ValueError):
        Induction(rho).induce(free_contramodule(c, 1))


def test_induction_dims_regression_catalog_pair():
    # frozen dimensions for the divided-power surjection: the source splits
    # over the target as regular + trivial, so Ind(W) = W + W/(radical action)
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        d = rho.target
        w_free = free_contramodule(d, 1)
        assert Induction(rho).induce(w_free).dim == 3
        t = trivial(d, grouplike_elements(d)[0], contra=True)
        assert Induction(rho).induce(t).dim == 2


def test_gamma_identity_case():
    """Coalgebras of equal or small dimension whose counits differ: gamma's
    unit reads the counit of the coalgebra that Ind(W) lives over."""
    for field in FIELDS:
        for c in (divided_power_dual(field, 3), grouplike(field, 3), matrix_coalgebra(field, 2)):
            w = free_contramodule(c, 1)
            res = Induction(identity_morphism(c)).induce(w)
            # phi := descended theta is a contra-hom Ind(W) -> W; gamma(phi) = id_W
            phi = w.theta @ res.coeq.section
            assert is_comodule_map(res.induced, w, phi)
            assert gamma(res, phi) == Mat.identity(w.dim, field)


def test_adjunction_battery_catalog_surjection():
    rng = random.Random(14)
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        for _ in range(4):
            w = _random_contramodule(rng, rho.target)
            v = _random_contramodule(rng, rho.source)
            rep = adjunction_check(rho, w, v)
            assert rep.ok, (field, w.dim, v.dim)


# -- adjunction_check against its per-map loop --------------------------------------


def loop_gamma_inv(rho, res, v, psi):
    """gamma_inv in Mat form: e_j* (x) w_k goes to row j*dim V + i of
    coaction @ psi, and that map out of Hom(C, W) descends to Ind(W)."""
    bv, wd, composed = v.dim, psi.cols, (v.left_coaction @ psi).data.items()
    lifted = Mat(bv, rho.source.dim * wd, v.field,
                 {(idx % bv, idx // bv * wd + k): val for (idx, k), val in composed})
    return res.coeq.descend(lifted, "extension does not kill the induction relations")


def loop_adjunction_check(rho, w, v):
    """Both round trips one basis map at a time, stopping at the first map
    that fails."""
    ind = Induction(rho)
    res, v_res = ind.induce(w), ind.restrict(v)
    lhs = hom_comodules(res.induced, v)
    rhs = hom_comodules(w, v_res)
    ok = True
    for phi in hom_basis_maps(res.induced, v, lhs):
        psi = gamma(res, phi)
        if not is_comodule_map(w, v_res, psi):
            ok = False
            break
        if loop_gamma_inv(rho, res, v, psi) != phi:
            ok = False
            break
    if ok:
        for psi in hom_basis_maps(w, v_res, rhs):
            phi = loop_gamma_inv(rho, res, v, psi)
            if not is_comodule_map(res.induced, v, phi):
                ok = False
                break
            if gamma(res, phi) != psi:
                ok = False
                break
    return AdjunctionReport(lhs.dim, rhs.dim, ok)


@pytest.mark.parametrize("field", FIELDS)
def test_gamma_inv_matches_loop_gamma_inv(field):
    """The shipped gamma_inv against its Mat form, on every basis map of
    Hom(W, V|_D), which descends, and on random maps W -> V, which mostly
    do not."""
    rng = random.Random(2901)
    sources = _battery_sources(field)
    seen = set()
    for trial in range(16):
        rho = random_surjection(rng, sources[trial % len(sources)])
        w = random_contramodule(rng, rho.target, max_free=2)
        v = random_contramodule(rng, rho.source, max_free=2)
        ind = Induction(rho)
        res = ind.induce(w)
        psis = hom_basis_maps(w, ind.restrict(v))
        psis += [Mat.from_entries(v.dim, w.dim, field, [(rng.randrange(v.dim), rng.randrange(w.dim), 1)])
                 for _ in range(3) if v.dim and w.dim]
        for psi in psis:
            got = _outcome(lambda rho, res, v: gamma_inv(res, v, psi), rho, res, v)
            assert got == _outcome(lambda *a: loop_gamma_inv(*a, psi), rho, res, v), (trial, psi)
            seen.add(type(got).__name__)
    assert seen == {"Mat", "tuple"}
    with pytest.raises(ValueError, match=rf"^cannot extend {v.dim + 1}x{w.dim} maps into V of dimension {v.dim}$"):
        gamma_inv(res, v, Mat(v.dim + 1, w.dim, field))


def _outcome(check, rho, w, v):
    """The report, or the type and message of what was raised."""
    try:
        return check(rho, w, v)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)


def _battery_sources(field):
    return [matrix_coalgebra(field, 2), divided_power_dual(field, 3),
            divided_power_dual(field, 4), grouplike(field, 3)]


def _entry_changed(rng, m):
    """m with one entry changed by a random nonzero scalar."""
    f = m.field
    key = (rng.randrange(m.rows), rng.randrange(m.cols))
    data = dict(m.data)
    data[key] = f.add(data.get(key, f.zero()), f.random(rng, nonzero=True))
    return Mat(m.rows, m.cols, f, {k: x for k, x in data.items() if x != 0})


def _one_entry_changed(rng, b):
    """b with one coaction entry changed."""
    return Contramodule(b.coalgebra, b.dim, _entry_changed(rng, b.left_coaction))


@pytest.mark.parametrize("field", FIELDS)
def test_adjunction_check_matches_loop_on_random_triples(field):
    rng = random.Random(2801)
    sources = _battery_sources(field)
    for trial in range(24):
        rho = random_surjection(rng, sources[trial % len(sources)])
        w = random_contramodule(rng, rho.target, max_free=3)
        v = random_contramodule(rng, rho.source, max_free=3)
        rep = adjunction_check(rho, w, v)
        assert rep == loop_adjunction_check(rho, w, v)
        assert rep.ok, (trial, w.dim, v.dim)


@pytest.mark.parametrize("field", FIELDS)
def test_adjunction_check_matches_loop_on_catalog_surjection(field):
    rng = random.Random(2802)
    rho = divided_power_surjection(field, 3, 2, 2)
    d = rho.target
    ws = [free_contramodule(d, 1), free_contramodule(d, 2), free_contramodule(d, 0),
          trivial(d, grouplike_elements(d)[0], contra=True)]
    vs = [free_contramodule(rho.source, 1), free_contramodule(rho.source, 0)]
    ws += [_random_contramodule(rng, d) for _ in range(3)]
    vs += [_random_contramodule(rng, rho.source) for _ in range(3)]
    for w in ws:
        for v in vs:
            rep = adjunction_check(rho, w, v)
            assert rep == loop_adjunction_check(rho, w, v)
            assert rep.ok


def _count_trips(monkeypatch) -> list:
    """Record the count of basis maps of each round trip adjunction_check
    runs, one _first_failure call per trip: a second entry means it took
    the branch that runs the second trip on a basis of Hom(W, V|_D)."""
    from contramod import functors

    trips, first_failure = [], functors._first_failure

    def counted(count, tests):
        trips.append(count)
        return first_failure(count, tests)

    monkeypatch.setattr(functors, "_first_failure", counted)
    return trips


def test_adjunction_check_matches_loop_on_one_changed_entry(monkeypatch):
    """With W or V not a contramodule, the first basis map that fails decides
    the verdict, in the loop's order: a passing report, a failing one, or
    the extension's ValueError.  Both sides of the branch on unequal hom
    dimensions are reached, and both match the loop."""
    rng = random.Random(2803)
    seen, branches = set(), set()
    trips = _count_trips(monkeypatch)
    for field in FIELDS:
        sources = _battery_sources(field)
        for trial in range(60):
            rho = random_surjection(rng, sources[trial % len(sources)])
            w = random_contramodule(rng, rho.target, max_free=3)
            v = random_contramodule(rng, rho.source, max_free=3)
            for w2, v2 in ((_one_entry_changed(rng, w), v), (w, _one_entry_changed(rng, v))):
                trips.clear()
                got = _outcome(adjunction_check, rho, w2, v2)
                assert got == _outcome(loop_adjunction_check, rho, w2, v2), (field, trial)
                branches.add(len(trips) == 2)
                seen.add(got.roundtrip_ok if isinstance(got, AdjunctionReport) else got)
    assert seen == {True, False, ("ValueError", "extension does not kill the induction relations")}
    assert branches == {True, False}


def _with_dead_vector(b):
    """b plus one basis vector on which the coaction is zero: coassociative
    still, but the counit law fails on it."""
    d = b.dim
    data = {(idx // d * (d + 1) + idx % d, k): x for (idx, k), x in b.left_coaction.data.items()}
    return Contramodule(b.coalgebra, d + 1, Mat(b.coalgebra.dim * (d + 1), d + 1, b.field, data))


@pytest.mark.parametrize("field", FIELDS)
def test_second_trip_decided_by_gamma_of_gamma_inv(field):
    """W with zero coaction and V with a dead vector, each failing only the
    counit law.  Hom(Ind W, V) is 0, so the first trip passes and the second
    runs on Hom(W, V|_D), the map onto the dead vector: its extension
    through V's coaction is zero, so it descends to the zero map, a
    contra-map, and only gamma(gamma_inv(psi)) = psi fails."""
    rho = divided_power_surjection(field, 3, 2, 2)
    w = Contramodule(rho.target, 1, Mat(rho.target.dim, 1, field))
    v = _with_dead_vector(free_contramodule(rho.source, 1))
    assert adjunction_check(rho, w, v) == AdjunctionReport(0, 1, False) == loop_adjunction_check(rho, w, v)


@pytest.mark.parametrize("wrong", ["unit", "restriction", "extension"])
def test_adjunction_check_matches_loop_with_wrong_data(monkeypatch, wrong):
    """gamma built on a unit W -> Ind(W)|_D, Hom(W, V|_D) on a V|_D, or
    gamma_inv on a coaction of V, with one entry changed.  gamma and
    gamma_inv then no longer match the two hom spaces: psi = gamma(phi) can
    fail to be a contra-map, the first round trip can fail where the second
    passes, and gamma_inv(gamma(phi)) can fail to descend.  The flat check,
    which reads all three through the module, still gives the loop's
    verdict when the loop reads the same faulty data."""
    from contramod import functors

    rng = random.Random(2804)
    seen, branches = set(), set()
    true_unit, true_ext = functors._unit, functors._extension
    true_loop_gamma_inv = loop_gamma_inv
    for field in FIELDS:
        sources = _battery_sources(field)
        for trial in range(40):
            rho = random_surjection(rng, sources[trial % len(sources)])
            w = random_contramodule(rng, rho.target, max_free=3)
            v = random_contramodule(rng, rho.source, max_free=3)
            if wrong == "unit":
                unit = true_unit(Induction(rho).induce(w))
                if not unit.nnz:
                    continue
                bad = _entry_changed(rng, unit)
                monkeypatch.setattr(functors, "_unit", lambda res: bad)
            elif wrong == "restriction":
                bad = _one_entry_changed(rng, Induction(rho).restrict(v))
                monkeypatch.setattr(functors.Induction, "restrict", lambda self, v: bad)
            else:
                bad = _one_entry_changed(rng, v)
                monkeypatch.setattr(functors, "_extension", lambda res, v, wd: true_ext(res, bad, wd))
                monkeypatch.setitem(globals(), "loop_gamma_inv",
                                    lambda rho, res, v, psi: true_loop_gamma_inv(rho, res, bad, psi))
            trips = _count_trips(monkeypatch)
            got = _outcome(adjunction_check, rho, w, v)
            branches.add(len(trips) == 2)
            assert got == _outcome(loop_adjunction_check, rho, w, v), (field, trial)
            monkeypatch.undo()
            seen.add(got.roundtrip_ok if isinstance(got, AdjunctionReport) else got[0])
    assert {True, False} <= seen
    assert wrong != "extension" or "ValueError" in seen
    # a faulty unit or extension leaves both hom spaces as they are: their
    # dimensions agree and the first trip decides alone.  A faulty V|_D can
    # take the second trip, about twice in 1,200 draws; the test above
    # reaches both sides of the branch.
    assert wrong == "restriction" or branches == {False}


def test_adjunction_naturality():
    rng = random.Random(15)
    rho = divided_power_surjection(GF(3), 3, 2, 2)
    w = free_contramodule(rho.target, 1)
    res = Induction(rho).induce(w)
    v = free_contramodule(rho.source, 1)
    homs_phi = hom_basis_maps(res.induced, v)
    endos = hom_basis_maps(v, v)
    for phi in homs_phi:
        for h in endos:
            lhs = gamma(res, h @ phi)
            rhs = h @ gamma(res, phi)
            assert lhs == rhs


def test_forgetful_compatibility():
    # dim Cohom_D(C, W) = dim Ind(W), where C is the source as a D-comodule
    rng = random.Random(16)
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        for _ in range(3):
            w = _random_contramodule(rng, rho.target)
            assert cohom(Induction(rho).comodule, w).dim == Induction(rho).induce(w).dim


def _regular_trivial_ses(d):
    """0 -> k -> D* -> k -> 0 for the 2-dimensional divided-power dual."""
    field = d.field
    breg = free_contramodule(d, 1)
    rad = comodule_closure(breg, [{1: field.one()}])
    assert rad.dim == 1
    sub, incl = sub_comodule(breg, rad)
    quot, proj = quotient_comodule(breg, rad)
    return ShortExactSeq(sub, breg, quot, incl, proj)


def test_exactness_probe_identity_always_exact():
    for field in FIELDS:
        d = divided_power_dual(field, 2)
        ses = _regular_trivial_ses(d)
        assert ses.validate().ok
        verdict = exactness_probe(identity_morphism(d), ses)
        assert verdict.exact


def test_exactness_probe_fails_for_catalog_surjection():
    """The fixed witness: inducing 0 -> k -> D* -> k -> 0 along the
    divided-power surjection is not exact (fails on the left)."""
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        ses = _regular_trivial_ses(rho.target)
        verdict = exactness_probe(rho, ses)
        assert not verdict.exact
        assert "left" in verdict.failures
        assert verdict.dims == (2, 3, 2)
        # consistency: the comodule criterion agrees
        assert not is_injective(Induction(rho).comodule)[0]


def test_exactness_probe_grouplike_always_exact():
    # over a grouplike (cosemisimple) coalgebra every probe is exact
    rng = random.Random(19)
    for field in [GF2, GF(3)]:
        d = grouplike(field, 2)
        c = grouplike(field, 4)
        # surjection: dual of the diagonal subalgebra inclusion
        from contramod.coalgebra import CoalgebraMorphism

        m = Mat.from_entries(2, 4, field, [(0, 0, 1), (0, 1, 1), (1, 2, 1), (1, 3, 1)])
        rho = CoalgebraMorphism(c, d, m, surjective=True)
        from contramod.coalgebra import check_morphism

        assert check_morphism(rho).ok
        assert is_injective(Induction(rho).comodule)[0]
        for _ in range(5):
            b = _random_contramodule(rng, d)
            sub = comodule_closure(
                b, [{i: field.random(rng) for i in range(b.dim)}]
            )
            if sub.dim in (0, b.dim):
                continue
            s, incl = sub_comodule(b, sub)
            q, proj = quotient_comodule(b, sub)
            verdict = exactness_probe(rho, ShortExactSeq(s, b, q, incl, proj))
            assert verdict.exact


def test_induce_map_functorial_on_identity():
    rho = divided_power_surjection(QQ, 3, 2, 2)
    w = free_contramodule(rho.target, 1)
    res = Induction(rho).induce(w)
    eye = Mat.identity(w.dim, QQ)
    assert induce_map(res, res, eye) == Mat.identity(res.dim, QQ)


def test_maps_that_are_not_contra_homs_do_not_descend():
    """induce_map and gamma_inv refuse a map whose lift does not kill the
    relations of the induction quotient."""
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        w = free_contramodule(rho.target, 1)
        res = Induction(rho).induce(w)
        h = Mat.from_entries(w.dim, w.dim, field, [(0, 1, 1)])
        assert not is_comodule_map(w, w, h)
        with pytest.raises(ValueError, match=r"^map does not descend: is h a contra-homomorphism\?$"):
            induce_map(res, res, h)
        v = free_contramodule(rho.source, 1)
        psi = Mat.from_entries(v.dim, w.dim, field, [(0, 1, 1)])
        assert not is_comodule_map(w, Induction(rho).restrict(v), psi)
        with pytest.raises(ValueError, match=r"^extension does not kill the induction relations$"):
            gamma_inv(res, v, psi)


def test_section3_consistency_on_catalog_surjections():
    """For each catalog surjection: sampled induction probes are all exact
    iff the source is injective as a comodule over the target."""
    from contramod.randomgen import random_contra_ses, random_surjection

    rng = random.Random(88)
    for field in [GF2, GF(3)]:
        surjections = [
            identity_morphism(divided_power_dual(field, 3)),
            augmentation(divided_power_dual(field, 3)),
            divided_power_surjection(field, 3, 2, 2),
            random_surjection(rng, grouplike(field, 3)),
        ]
        for rho in surjections:
            injective = is_injective(Induction(rho).comodule)[0]
            found_failure = False
            sampled = 0
            while sampled < 8:
                ses = random_contra_ses(rng, rho.target)
                if ses is None:
                    break
                sampled += 1
                if not exactness_probe(rho, ses).exact:
                    found_failure = True
                    break
            if injective:
                assert not found_failure, rho.target.name
            # the fixed witness covers the non-injective case
            if not injective:
                d = rho.target
                ses = _regular_trivial_ses(d)
                assert not exactness_probe(rho, ses).exact


def test_hom_dims_cofree_random_w():
    from contramod.randomgen import random_comodule

    rng = random.Random(99)
    for field in FIELDS:
        c = divided_power_dual(field, 3)
        for _ in range(5):
            w = random_comodule(rng, c)
            for d in (1, 2):
                assert hom_comodules(w, cofree(c, d)).dim == w.dim * d


def test_restrict_preserves_homs_functorially():
    # restriction of a contra-hom is a contra-hom over the target
    rho = divided_power_surjection(GF2, 3, 2, 2)
    b = free_contramodule(rho.source, 1)
    maps = hom_basis_maps(b, b)
    rb = Induction(rho).restrict(b)
    for t in maps:
        assert is_comodule_map(rb, rb, t)


def test_induction_presentation_invariant():
    # the presentation's kernel is exactly the column space of f - g
    from contramod.linalg import image, kernel

    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        w = free_contramodule(rho.target, 1)
        res = Induction(rho).induce(w)
        f_map, g_map = kron_cohom_maps(Induction(rho).comodule, w)
        assert kernel(res.coeq.quotient_map) == image(f_map - g_map)
        assert res.coeq.image_subspace == image(f_map - g_map)


def test_induce_quotients_once(monkeypatch):
    # Cohom's quotient of Hom(C, W) also carries the free contramodule down,
    # so induction builds one quotient, not a second one of the same subspace
    import sys

    from contramod.linalg import quotient_by_image

    calls = []

    def counting(sub):
        calls.append((sub.ambient, sub.dim))
        return quotient_by_image(sub)

    # every module of the package that holds the function, whatever calls it
    for name, mod in list(sys.modules.items()):
        if name.startswith("contramod") and getattr(mod, "quotient_by_image", None) is quotient_by_image:
            monkeypatch.setattr(mod, "quotient_by_image", counting)
    rho = divided_power_surjection(GF2, 3, 2, 2)
    Induction(rho).induce(free_contramodule(rho.target, 1))
    assert calls == [(6, 3)]
