"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.

Every expected value asserted here was computed by an independent oracle
before being frozen: exhaustive enumeration over small prime fields, dense
textbook row reduction, the character arithmetic oracle, or brute-force
submodule enumeration.  Runtime bounds are asserted with wide margins.
"""

import random
import time
from itertools import product

from contramod.coalgebra import (
    Coalgebra, check_coalgebra, divided_power_dual,
    divided_power_surjection, grouplike, grouplike_elements, matrix_coalgebra,
)
from contramod.comodule import (
    check_comodule, cofree, comodule_over_self,
    cotensor, dual_comodule, head_radical, hom_comodules, is_injective,
    trivial_comodule,
)
from contramod.contramodule import (
    check_contramodule, cohom, contra_from_comodule, contratensor,
    direct_sum as contra_direct_sum, duality_check, free_contramodule, is_projective,
    trivial_contramodule,
)
from contramod.fields import GF2, GF3, QQ
from contramod.functors import (
    ShortExactSeq, adjunction_check, comodule_along, exactness_probe, induce,
)
from contramod.linalg import rank
from contramod.matrix import Mat
from contramod.randomgen import (
    random_comodule, random_comodule_ses, random_contra_ses, random_contramodule,
    random_surjection, socle_filtration_sequences,
)
from contramod.sl2 import (
    battery_module, build_tower, catalog_modules, frob_kernel_coalgebra,
    restrict_to_kernel, simple_module,
)
from contramod.towers import InverseSystem, cohom_tower, is_mittag_leffler
from test_exactness import cohom_exactness_probe
from test_structure_maps import coaction_stabilizes, comodule_of, contra_of_theta

FIELDS = [QQ, GF2, GF3]


def _passline(n, text):
    print(f"\nPASS criterion {n}: {text}")


# -- criterion 1: axiom suite and mutation battery ---------------------------------


def _catalog_objects():
    """(kind, object) pairs covering the generic catalog and the small SL2 corner."""
    objs = []
    for field in FIELDS:
        coalgebras = [
            grouplike(field, 1), grouplike(field, 2), grouplike(field, 3),
            matrix_coalgebra(field, 2),
            divided_power_dual(field, 2), divided_power_dual(field, 3),
        ]
        for c in coalgebras:
            objs.append(("coalgebra", c))
            objs.append(("comodule", comodule_over_self(c)))
            objs.append(("comodule", cofree(c, 2)))
            objs.append(("comodule", dual_comodule(cofree(c, 1))))
            objs.append(("contramodule", free_contramodule(c, 1)))
            objs.append(("contramodule", contra_from_comodule(comodule_over_self(c))))
            for g in grouplike_elements(c)[:1]:
                objs.append(("comodule", trivial_comodule(c, g)))
                objs.append(("contramodule", trivial_contramodule(c, g)))
    # SL2 corner at p = 2
    cat = catalog_modules(2)
    objs.append(("coalgebra", frob_kernel_coalgebra(2, 1)))
    for name in ("L0", "L1", "L2", "L3", "P0", "P1"):
        m = restrict_to_kernel(cat[name], 1)
        objs.append(("comodule", m))
        objs.append(("contramodule", contra_from_comodule(dual_comodule(m))))
    return objs


def _check(kind, obj):
    if kind == "coalgebra":
        return check_coalgebra(obj)
    if kind == "comodule":
        return check_comodule(obj)
    return check_contramodule(obj)


def _dense_axiom_oracle(kind, obj) -> bool:
    """Independent validity oracle: textbook dense loops, no shared code with
    the column-wise checkers."""
    f = obj.field if kind != "coalgebra" else obj.field

    def dget(mat, i, j):
        return mat[i, j]

    if kind == "coalgebra":
        n = obj.dim
        delta, eps = obj.delta, obj.epsilon
        for k in range(n):
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        lhs = f.zero()
                        rhs = f.zero()
                        for m in range(n):
                            lhs = f.add(lhs, f.mul(dget(delta, m * n + c, k), dget(delta, a * n + b, m)))
                            rhs = f.add(rhs, f.mul(dget(delta, a * n + m, k), dget(delta, b * n + c, m)))
                        if lhs != rhs:
                            return False
        for k in range(n):
            for j in range(n):
                left = f.zero()
                right = f.zero()
                for i in range(n):
                    left = f.add(left, f.mul(dget(eps, 0, i), dget(delta, i * n + j, k)))
                    right = f.add(right, f.mul(dget(eps, 0, i), dget(delta, j * n + i, k)))
                want = f.one() if j == k else f.zero()
                if left != want or right != want:
                    return False
        return True
    if kind == "comodule":
        c = obj.coalgebra
        n, md = c.dim, obj.dim
        coact, delta, eps = obj.coaction, c.delta, c.epsilon
        if obj.side == "left":
            for k in range(md):
                for a in range(n):
                    for b in range(n):
                        for v in range(md):
                            lhs = f.zero()
                            rhs = f.zero()
                            for m in range(n):
                                lhs = f.add(lhs, f.mul(dget(coact, m * md + v, k), dget(delta, a * n + b, m)))
                            for m in range(md):
                                rhs = f.add(rhs, f.mul(dget(coact, a * md + m, k), dget(coact, b * md + v, m)))
                            if lhs != rhs:
                                return False
            for k in range(md):
                for v in range(md):
                    acc = f.zero()
                    for i in range(n):
                        acc = f.add(acc, f.mul(dget(eps, 0, i), dget(coact, i * md + v, k)))
                    if acc != (f.one() if v == k else f.zero()):
                        return False
            return True
        for k in range(md):
            for v in range(md):
                for a in range(n):
                    for b in range(n):
                        lhs = f.zero()
                        rhs = f.zero()
                        for m in range(n):
                            lhs = f.add(lhs, f.mul(dget(coact, v * n + m, k), dget(delta, a * n + b, m)))
                        for m in range(md):
                            rhs = f.add(rhs, f.mul(dget(coact, m * n + b, k), dget(coact, v * n + a, m)))
                        if lhs != rhs:
                            return False
        for k in range(md):
            for v in range(md):
                acc = f.zero()
                for i in range(n):
                    acc = f.add(acc, f.mul(dget(eps, 0, i), dget(coact, v * n + i, k)))
                if acc != (f.one() if v == k else f.zero()):
                    return False
        return True
    # contramodule: theta o (id (x) theta) = theta o (mult* (x) id), unit law
    c = obj.coalgebra
    n, bd = c.dim, obj.dim
    theta, delta, eps = obj.theta, c.delta, c.epsilon
    for j1 in range(n):
        for j2 in range(n):
            for k in range(bd):
                for i in range(bd):
                    lhs = f.zero()
                    for m in range(bd):
                        lhs = f.add(lhs, f.mul(dget(theta, i, j1 * bd + m), dget(theta, m, j2 * bd + k)))
                    rhs = f.zero()
                    for g in range(n):
                        # mult*(xi_j1 (x) xi_j2) = sum_g delta[(j2, j1), g] xi_g
                        rhs = f.add(rhs, f.mul(dget(delta, j2 * n + j1, g), dget(theta, i, g * bd + k)))
                    if lhs != rhs:
                        return False
    for k in range(bd):
        for i in range(bd):
            acc = f.zero()
            for j in range(n):
                acc = f.add(acc, f.mul(dget(eps, 0, j), dget(theta, i, j * bd + k)))
            if acc != (f.one() if i == k else f.zero()):
                return False
    return True


def _mutate(obj, kind, rng):
    def flip(mat, field):
        i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
        cur = mat[i, j]
        while True:
            val = field.random(rng)
            if val != cur:
                break
        data = dict(mat.data)
        if val == 0:
            data.pop((i, j), None)
        else:
            data[(i, j)] = val
        return Mat(mat.rows, mat.cols, field, data)

    if kind == "coalgebra":
        if rng.random() < 0.8:
            return Coalgebra(obj.field, obj.dim, flip(obj.delta, obj.field), obj.epsilon)
        return Coalgebra(obj.field, obj.dim, obj.delta, flip(obj.epsilon, obj.field))
    if kind == "comodule":
        return comodule_of(obj.coalgebra, obj.side, obj.dim, flip(obj.coaction, obj.field))
    return contra_of_theta(obj.coalgebra, obj.dim, flip(obj.theta, obj.field))


def test_criterion_1_axiom_suite_and_mutations():
    t0 = time.time()
    objs = _catalog_objects()
    for kind, obj in objs:
        verdict = _check(kind, obj)
        assert verdict.ok, (kind, getattr(obj, "name", ""), verdict.failures)
    # mutation battery: draw single-entry mutations on the small catalog;
    # validity of each draw is cross-checked against an independent dense
    # oracle (a few draws are genuinely valid coalgebras and are excluded
    # from the rejection count; the checker must agree with the oracle on
    # every draw either way)
    rng = random.Random(0xC0A1)
    small = [(k, o) for k, o in objs if getattr(o, "dim", 99) <= 9
             and (k != "comodule" or o.coalgebra.dim <= 4)
             and (k != "contramodule" or o.coalgebra.dim <= 4)]
    rejected = 0
    draws = 0
    while rejected < 200:
        draws += 1
        assert draws <= 300, "mutation rejection rate unexpectedly low"
        kind, obj = small[rng.randrange(len(small))]
        mutant = _mutate(obj, kind, rng)
        checker_ok = _check(kind, mutant).ok
        oracle_ok = _dense_axiom_oracle(kind, mutant)
        assert checker_ok == oracle_ok, (kind, getattr(obj, "name", ""))
        if not checker_ok:
            rejected += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    _passline(1, f"{len(objs)} catalog objects pass; {rejected} mutations rejected "
                 f"(of {draws} draws, oracle-agreed) in {elapsed:.1f}s")


# -- criterion 2: the adjunction ----------------------------------------------------


def test_criterion_2_adjunction():
    t0 = time.time()
    total = 0
    for field in FIELDS:
        rng = random.Random(1000 + field.characteristic)
        sources = [
            grouplike(field, 3), divided_power_dual(field, 3),
            divided_power_dual(field, 4), matrix_coalgebra(field, 2),
        ]
        for trial in range(18):
            c = sources[trial % len(sources)]
            rho = random_surjection(rng, c)
            w = random_contramodule(rng, rho.target)
            v = random_contramodule(rng, rho.source)
            for _ in range(10):
                if w.dim <= 5:
                    break
                w = random_contramodule(rng, rho.target)
            for _ in range(10):
                if v.dim <= 5:
                    break
                v = random_contramodule(rng, rho.source)
            assert w.dim <= 5 and v.dim <= 5
            rep = adjunction_check(rho, w, v)
            assert rep.lhs_dim == rep.rhs_dim, (field, trial, rep)
            assert rep.roundtrip_ok, (field, trial)
            total += 1
    elapsed = time.time() - t0
    assert total >= 50
    assert elapsed < 60.0, f"criterion 2 exceeded budget: {elapsed:.1f}s"
    _passline(2, f"adjunction dims equal and round trips identity on {total} "
                 f"random triples in {elapsed:.1f}s")


# -- criterion 3: Hom/Cohom duality ---------------------------------------------------


def test_criterion_3_duality():
    total = 0
    for field in FIELDS:
        rng = random.Random(2000 + field.characteristic)
        coalgebras = [
            grouplike(field, 2), divided_power_dual(field, 3), matrix_coalgebra(field, 2),
        ]
        # all catalog pairs on the divided-power coalgebra
        c = divided_power_dual(field, 3)
        catalog_pairs = [
            (comodule_over_self(c), comodule_over_self(c)),
            (comodule_over_self(c), cofree(c, 2)),
            (cofree(c, 1), comodule_over_self(c)),
            (trivial_comodule(c, grouplike_elements(c)[0]), cofree(c, 1)),
        ]
        for v, w in catalog_pairs:
            rep = duality_check(v, w)
            assert rep.ok, (field, v.name, w.name, rep)
            total += 1
        for trial in range(17):
            cc = coalgebras[trial % len(coalgebras)]
            v = random_comodule(rng, cc)
            w = random_comodule(rng, cc)
            rep = duality_check(v, w)
            assert rep.ok, (field, trial, rep)
            assert rep.pairing_rank == rep.cohom_dim == rep.hom_dim
            total += 1
    assert total >= 50
    _passline(3, f"Cohom(V,W) = Hom(W,V)* with perfect pairing on {total} pairs")


# -- criterion 4: the two section-1 dualities ------------------------------------------


def test_criterion_4_hom_cotensor_and_cohom_contratensor():
    hom_cases = 0
    cohom_cases = 0
    for field in FIELDS:
        rng = random.Random(3000 + field.characteristic)
        coalgebras = [
            grouplike(field, 2), divided_power_dual(field, 3), matrix_coalgebra(field, 2),
        ]
        for trial in range(17):
            c = coalgebras[trial % len(coalgebras)]
            v = random_comodule(rng, c)
            m = random_comodule(rng, c)
            assert hom_comodules(v, m).dim == cotensor(dual_comodule(v), m).dim
            hom_cases += 1
            b = random_contramodule(rng, c)
            assert cohom(v, b).dim == contratensor(dual_comodule(v), b).dim
            cohom_cases += 1
    assert hom_cases >= 50 and cohom_cases >= 50
    _passline(4, f"Hom = dual-cotensor on {hom_cases} and Cohom = dual-contratensor "
                 f"on {cohom_cases} random instances")


# -- criterion 5: the equivalences at desk scale ----------------------------------------


def test_criterion_5_injectivity_projectivity_exactness():
    # (a) the fixed counterexample along the divided-power surjection
    for field in FIELDS:
        rho = divided_power_surjection(field, 3, 2, 2)
        assert not is_injective(comodule_along(rho))[0]
        breg = free_contramodule(rho.target, 1)
        from contramod.contramodule import contra_closure, quotient_contramodule, sub_contramodule

        rad = contra_closure(breg, [{1: field.one()}])
        sub, incl = sub_contramodule(breg, rad)
        quot, proj = quotient_contramodule(breg, rad)
        verdict = exactness_probe(rho, ShortExactSeq(sub, breg, quot, incl, proj))
        assert not verdict.exact and "left" in verdict.failures

    # (b) grouplike targets are cosemisimple: sampled sequences all induce exactly
    exact_count = 0
    for field in (GF2, GF3):
        rng = random.Random(4000 + field.characteristic)
        c = grouplike(field, 4)
        rho = random_surjection(rng, c)
        while rho.target.dim < 2:
            rho = random_surjection(rng, c)
        assert is_injective(comodule_along(rho))[0]
        while exact_count < (10 if field is GF2 else 20):
            ses = random_contra_ses(rng, rho.target)
            if ses is None:
                continue
            assert exactness_probe(rho, ses).exact
            exact_count += 1
    assert exact_count >= 20

    # free contramodules are projective; the trivial one over the
    # divided-power dual is not
    for field in FIELDS:
        for c in (grouplike(field, 2), divided_power_dual(field, 3), matrix_coalgebra(field, 2)):
            assert is_projective(free_contramodule(c, 1))[0]
        c3 = divided_power_dual(field, 3)
        assert not is_projective(trivial_contramodule(c3, grouplike_elements(c3)[0]))[0]

    # Cohom(-, B) exactness sampling agrees with the projectivity verdict
    agreements = 0
    for field in FIELDS:
        rng = random.Random(5000 + field.characteristic)
        for c in (divided_power_dual(field, 3), divided_power_dual(field, 2)):
            battery = socle_filtration_sequences(c)
            for _ in range(4):
                quad = random_comodule_ses(rng, c)
                if quad:
                    battery.append(quad)
            g = grouplike_elements(c)[0]
            candidates = [
                free_contramodule(c, 1),
                trivial_contramodule(c, g),
                contra_direct_sum(free_contramodule(c, 1), trivial_contramodule(c, g)),
                random_contramodule(rng, c),
            ]
            for b in candidates:
                projective = is_projective(b)[0]
                all_exact = all(
                    cohom_exactness_probe(s, mm, q, i, pr, b).exact
                    for (s, mm, q, i, pr) in battery
                )
                assert projective == all_exact, (field, c.name, b.name)
                agreements += 1
    assert agreements >= 20
    _passline(5, f"counterexample witnessed, cosemisimple probes exact, "
                 f"projectivity matches Cohom-exactness on {agreements} contramodules")


# -- criterion 6: tower stabilization ---------------------------------------------------


def test_criterion_6_tower_stabilization():
    t0 = time.time()
    battery = ["L0", "L1", "L2", "L3", "L1*L1"]
    expected = {
        0: {"L0": 1, "L1": 0, "L2": 0, "L3": 0, "L1*L1": 2},
        1: {"L0": 0, "L1": 1, "L2": 0, "L3": 0, "L1*L1": 0},
    }
    for lam in (0, 1):
        tower = build_tower(lam, 2, 3)
        reports = cohom_tower([battery_module(2, expr) for expr in battery], lam, 2, 3)
        for expr, rep in zip(battery, reports):
            assert rep.f_v == expected[lam][expr], (lam, expr, rep.f_v)
            assert rep.match, (lam, expr, [r.dim_cohom for r in rep.stages], rep.stable_from)
            in_range = [r.dim_cohom for r in rep.stages if r.m >= rep.stable_from]
            assert in_range and all(d == rep.f_v for d in in_range)
        # head check at every stage
        for offset, stage in enumerate(tower.stages):
            m = tower.m0 + offset
            restricted = restrict_to_kernel(stage, m)
            simples = [restrict_to_kernel(simple_module(2, mu), m) for mu in range(2 ** m)]
            hr = head_radical(restricted, simples)
            lam_label = restrict_to_kernel(simple_module(2, lam), m).name
            assert hr.head == {lam_label: 1}, (lam, m, hr.head)
            assert coaction_stabilizes(restricted, hr.radical)
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"criterion 6 exceeded budget: {elapsed:.1f}s"
    _passline(6, f"Cohom dims stabilize to the character multiplicities and heads "
                 f"are simple at every stage (m <= 3) in {elapsed:.1f}s")


# -- criterion 7: Mittag-Leffler engine ---------------------------------------------------


def _brute_image_set(mat, field):
    p = field.characteristic
    out = set()
    for combo in product(range(p), repeat=mat.cols):
        vec = {i: v for i, v in enumerate(combo) if v}
        out.add(tuple(sorted(mat.apply(vec).items())))
    return out


def test_criterion_7_mittag_leffler():
    rng = random.Random(0x714)
    checked = 0
    for trial in range(50):
        field = GF2 if trial % 2 else GF3
        dims = [rng.randint(1, 6) for _ in range(4)]
        transitions = []
        for t in range(3):
            entries = [
                (i, j, field.random(rng))
                for i in range(dims[t]) for j in range(dims[t + 1])
                if rng.random() < 0.7
            ]
            transitions.append(Mat.from_entries(dims[t], dims[t + 1], field, entries))
        sys = InverseSystem(dims, transitions)
        res = is_mittag_leffler(sys, 0)
        comp = transitions[0]
        sets = [_brute_image_set(comp, field)]
        for t in (1, 2):
            comp = comp @ transitions[t]
            sets.append(_brute_image_set(comp, field))
        p = field.characteristic
        assert [p ** d for d in res.image_dims] == [len(s) for s in sets]
        stab_oracle = sys.last_index
        for pos in range(len(sets) - 1, -1, -1):
            if sets[pos] == sets[-1]:
                stab_oracle = 1 + pos
            else:
                break
        assert res.stabilization_index == stab_oracle
        assert res.stabilized == (stab_oracle < sys.last_index)
        checked += 1
    assert checked == 50

    # four-term verdicts: honest exact fixture and the adversarial one
    from tests.test_towers import _constant_four_term  # shared fixtures

    from contramod.towers import limit_four_term

    assert limit_four_term(_constant_four_term(GF2)).status == "exact"
    field = QQ
    stages = 4

    def rank_proj(n, r):
        return Mat.from_entries(n, n, field, [(i, i, 1) for i in range(r)])

    from contramod.towers import FourTermSystem

    adversarial = FourTermSystem(
        InverseSystem([0] * stages, [Mat.zeros(0, 0, field)] * 3),
        InverseSystem([3] * stages, [rank_proj(3, r) for r in (2, 1, 0)]),
        InverseSystem([3] * stages, [rank_proj(3, r) for r in (2, 1, 0)]),
        InverseSystem([0] * stages, [Mat.zeros(0, 0, field)] * 3),
        [Mat.zeros(3, 0, field)] * stages,
        [Mat.identity(3, field)] * stages,
        [Mat.zeros(0, 3, field)] * stages,
    )
    assert limit_four_term(adversarial).status == "inconclusive"
    _passline(7, "ML detection matches brute-force image enumeration on 50 towers; "
                 "adversarial fixture is inconclusive, never exact")
