"""The shared exactness test, ``linalg.exactness_failures``, against
independent oracles for every check that runs on it: ``ShortExactSeq.validate``,
both exactness probes, ``FourTermSystem.validate`` and ``limit_four_term``.
The Cohom probe, ``cohom_exactness_probe``, is defined here: only the tests
call it.

The oracles decide exactness the long way: ranks against the dimensions of
the objects, and Im against Ker compared as canonical subspaces.
"""

import random
from dataclasses import replace

import pytest

from contramod.coalgebra import (
    divided_power_dual, divided_power_surjection, grouplike, grouplike_elements, matrix_coalgebra,
)
from contramod.comodule import Comodule
from contramod.contramodule import (
    Contramodule, cohom, direct_sum, free_contramodule, is_contra_map, trivial_contramodule,
)
from contramod.fields import GF2, GF3, QQ
from contramod.functors import ExactnessVerdict, exactness_probe, induce, induce_map
from contramod.linalg import exactness_failures, image, kernel, quotient_by_image, rank, solve
from contramod.matrix import Mat, kron, kron_identity
from contramod.randomgen import (
    random_comodule_ses, random_contra_ses, random_contramodule, random_surjection,
    socle_filtration_sequences,
)
from contramod.towers import FourTermSystem, InverseSystem, is_mittag_leffler, limit_four_term
from test_coalgebra import augmentation, identity_morphism

FIELDS = [QQ, GF2, GF3]


# -- the Cohom exactness probe that the other test modules import ------------------


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


# -- oracles ---------------------------------------------------------------------


def oracle_ses_failures(ses):
    failures = []
    if ses.sub.dim + ses.quot.dim != ses.mid.dim:
        failures.append("dimension-count")
    if rank(ses.incl) != ses.sub.dim:
        failures.append("inclusion-not-injective")
    if rank(ses.proj) != ses.quot.dim:
        failures.append("projection-not-surjective")
    if not (ses.proj @ ses.incl).is_zero():
        failures.append("composite-nonzero")
    if not is_contra_map(ses.sub, ses.mid, ses.incl):
        failures.append("inclusion-not-contra-map")
    if not is_contra_map(ses.mid, ses.quot, ses.proj):
        failures.append("projection-not-contra-map")
    return failures


def _oracle_verdict(first, second, dims):
    failures = []
    if rank(first) != dims[0]:
        failures.append("left")
    if image(first) != kernel(second):
        failures.append("middle")
    if rank(second) != dims[2]:
        failures.append("right")
    return not failures, failures, dims


def oracle_exactness_probe(rho, ses):
    if oracle_ses_failures(ses):
        raise ValueError("input sequence is not a valid SES")
    res_a, res_b, res_c = (induce(rho, w) for w in (ses.sub, ses.mid, ses.quot))
    ind_incl = induce_map(rho, res_a, res_b, ses.incl)
    ind_proj = induce_map(rho, res_b, res_c, ses.proj)
    return _oracle_verdict(ind_incl, ind_proj, (res_a.dim, res_b.dim, res_c.dim))


def oracle_cohom_exactness_probe(sub, mid, quot, incl, proj, b):
    eye_b = Mat.identity(b.dim, b.field)
    co_a, co_m, co_q = cohom(sub, b), cohom(mid, b), cohom(quot, b)

    def descend(co_src, co_tgt, structural):
        lifted = co_tgt.quotient_map @ kron(structural.transpose(), eye_b)
        assert (lifted @ co_src.image_subspace.basis).is_zero()
        return lifted @ co_src.section

    pi_star = descend(co_q, co_m, proj)
    iota_star = descend(co_m, co_a, incl)
    return _oracle_verdict(pi_star, iota_star, (co_q.dim, co_m.dim, co_a.dim))


def _dim(stage):
    return stage if isinstance(stage, int) else stage.dim


def oracle_four_validate(four):
    failures = []
    n = four.stage_count()
    if not (len(four.b) == len(four.c) == len(four.d) == n):
        return ["stage-count-mismatch"]
    for i in range(n):
        al, be, ga = four.alphas[i], four.betas[i], four.gammas[i]
        if rank(al) != _dim(four.a.stages[i]):
            failures.append(f"stage{i}:alpha-not-injective")
        if image(al) != kernel(be):
            failures.append(f"stage{i}:not-exact-at-B")
        if image(be) != kernel(ga):
            failures.append(f"stage{i}:not-exact-at-C")
        if rank(ga) != _dim(four.d.stages[i]):
            failures.append(f"stage{i}:gamma-not-surjective")
    for i in range(n - 1):
        if four.alphas[i] @ four.a.transitions[i] != four.b.transitions[i] @ four.alphas[i + 1]:
            failures.append(f"stage{i}:alpha-square")
        if four.betas[i] @ four.b.transitions[i] != four.c.transitions[i] @ four.betas[i + 1]:
            failures.append(f"stage{i}:beta-square")
        if four.gammas[i] @ four.c.transitions[i] != four.d.transitions[i] @ four.gammas[i + 1]:
            failures.append(f"stage{i}:gamma-square")
    return failures


def _composite_image(sys):
    """Image in the first stage of the composite of every transition."""
    out = sys.transitions[0]
    for tr in sys.transitions[1:]:
        out = out @ tr
    return image(out)


def _restrict(stage_map, s_src, s_tgt):
    """stage_map in the canonical bases of two subspaces, or None when it
    leaves the target subspace."""
    hit = (stage_map @ s_src.basis).columns()
    coords = [s_tgt.coords(hit.get(t, {})) for t in range(s_src.dim)]
    if None in coords:
        return None
    return Mat(s_tgt.dim, s_src.dim, s_tgt.field,
               {(s, t): v for t, col in enumerate(coords) for s, v in col.items()})


def _quotient_system(four):
    """The system B_i / Im(A_i), with induced transitions."""
    quots = [quotient_by_image(image(al)) for al in four.alphas]
    transitions = [quots[i].quotient_map @ four.b.transitions[i] @ quots[i + 1].section
                   for i in range(four.stage_count() - 1)]
    return InverseSystem([q.dim for q in quots], transitions, m0=four.a.m0)


def oracle_limit_four_term(four):
    """(status, detail) with every Mittag-Leffler result reduced to its
    (stabilized, stabilization_index, image_dims).  The status checks both
    hypotheses, A and B / Im A, before the other three systems; detail holds
    the results for A, B, C and D up to the first that has not settled."""
    assert not oracle_four_validate(four)
    base = four.a.m0
    mls = {label: is_mittag_leffler(sys, base)
           for label, sys in (("A", four.a), ("B", four.b), ("C", four.c), ("D", four.d))}
    ml_q = is_mittag_leffler(_quotient_system(four), base)
    # the image chain of B / Im A is the image of B's, so it settles no later
    assert ml_q.stabilization_index <= mls["B"].stabilization_index
    detail = {}
    for label, ml in mls.items():
        detail[f"ml_{label}"] = ml
        if not ml.stabilized:
            break
    if not (mls["A"].stabilized and ml_q.stabilized) or not all(ml.stabilized for ml in mls.values()):
        return "inconclusive", _plain(detail)
    stables = {label: _composite_image(sys)
               for label, sys in (("A", four.a), ("B", four.b), ("C", four.c), ("D", four.d))}
    al = _restrict(four.alphas[0], stables["A"], stables["B"])
    be = _restrict(four.betas[0], stables["B"], stables["C"])
    ga = _restrict(four.gammas[0], stables["C"], stables["D"])
    assert None not in (al, be, ga), "a stage map leaves the stable images"
    dims = {k: s.dim for k, s in stables.items()}
    exact = (rank(al) == dims["A"] and image(al) == kernel(be)
             and image(be) == kernel(ga) and rank(ga) == dims["D"])
    detail["stable_dims"] = dims
    return ("exact" if exact else "fails"), _plain(detail)


def _plain(detail):
    return {
        k: (v.stabilized, v.stabilization_index, v.image_dims) if hasattr(v, "image_dims") else v
        for k, v in detail.items()
    }


# -- random inputs --------------------------------------------------------------


def _random_mat(rng, rows, cols, field, density=0.5):
    return Mat.from_entries(rows, cols, field, [
        (i, j, field.random(rng)) for i in range(rows) for j in range(cols) if rng.random() < density
    ])


def _mutate(rng, m):
    """m with one entry shifted by a nonzero scalar, or m itself when empty."""
    if m.rows == 0 or m.cols == 0:
        return m
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    entries = [(r, c, v) for (r, c), v in m.data.items()]
    return Mat.from_entries(m.rows, m.cols, m.field, entries + [(i, j, m.field.random(rng, nonzero=True))])


def _block(field, row_dims, col_dims, blocks):
    entries = []
    for (bi, bj), m in blocks.items():
        r0, c0 = sum(row_dims[:bi]), sum(col_dims[:bj])
        entries += [(r0 + i, c0 + j, v) for (i, j), v in m.data.items()]
    return Mat.from_entries(sum(row_dims), sum(col_dims), field, entries)


def _random_basis_change(rng, n, field):
    """A random unit lower-triangular matrix and its inverse."""
    p = Mat.from_entries(n, n, field, [(i, i, 1) for i in range(n)] + [
        (i, j, field.random(rng)) for i in range(n) for j in range(i)
    ])
    inv = Mat.from_entries(n, n, field, [
        (i, j, v) for j in range(n) for i, v in solve(p, {j: field.one()}).items()
    ])
    return p, inv


def random_four_term(rng, field, stages):
    """0 -> A -> B -> C -> D -> 0 per stage, with B = A + X and C = X + Y
    before a random change of basis of B and C, and transitions that are
    block triangular (B preserves A, C preserves X) with random blocks, so
    the squares commute and the stable images need not split."""
    a, x, y = ([rng.randint(0, 2) for _ in range(stages)] for _ in range(3))
    ta, tx, ty, u, v = ([_random_mat(rng, d[t], e[t + 1], field) for t in range(stages - 1)]
                        for d, e in ((a, a), (x, x), (y, y), (a, x), (x, y)))
    changes_b = [_random_basis_change(rng, a[i] + x[i], field) for i in range(stages)]
    changes_c = [_random_basis_change(rng, x[i] + y[i], field) for i in range(stages)]
    eye = Mat.identity
    alphas, betas, gammas, tb, tc = [], [], [], [], []
    for i in range(stages):
        (pb, pb_inv), (pc, pc_inv) = changes_b[i], changes_c[i]
        alphas.append(pb @ _block(field, [a[i], x[i]], [a[i]], {(0, 0): eye(a[i], field)}))
        betas.append(pc @ _block(field, [x[i], y[i]], [a[i], x[i]], {(0, 1): eye(x[i], field)}) @ pb_inv)
        gammas.append(_block(field, [y[i]], [x[i], y[i]], {(0, 1): eye(y[i], field)}) @ pc_inv)
    for t in range(stages - 1):
        blk_b = _block(field, [a[t], x[t]], [a[t + 1], x[t + 1]], {(0, 0): ta[t], (0, 1): u[t], (1, 1): tx[t]})
        blk_c = _block(field, [x[t], y[t]], [x[t + 1], y[t + 1]], {(0, 0): tx[t], (0, 1): v[t], (1, 1): ty[t]})
        tb.append(changes_b[t][0] @ blk_b @ changes_b[t + 1][1])
        tc.append(changes_c[t][0] @ blk_c @ changes_c[t + 1][1])
    return FourTermSystem(
        InverseSystem(a, ta), InverseSystem([m.rows for m in alphas], tb),
        InverseSystem([m.rows for m in betas], tc), InverseSystem(y, ty),
        alphas, betas, gammas,
    )


def _mutated_four_term(rng, four):
    """four with one entry of one stage map or one transition changed."""
    maps = {"alphas": four.alphas, "betas": four.betas, "gammas": four.gammas}
    systems = {"a": four.a, "b": four.b, "c": four.c, "d": four.d}
    key = rng.choice(sorted(maps) + sorted(systems))
    if key in maps:
        seq = list(maps[key])
        i = rng.randrange(len(seq))
        seq[i] = _mutate(rng, seq[i])
        maps[key] = seq
    else:
        sys = systems[key]
        trs = list(sys.transitions)
        t = rng.randrange(len(trs))
        trs[t] = _mutate(rng, trs[t])
        systems[key] = InverseSystem(sys.stages, trs, sys.m0)
    return FourTermSystem(systems["a"], systems["b"], systems["c"], systems["d"],
                          maps["alphas"], maps["betas"], maps["gammas"])


# -- the shared test on hand-made chains -----------------------------------------------


def _m(rows, cols, entries):
    return Mat.from_entries(rows, cols, QQ, entries)


def test_exactness_failures_reads_each_position_off_the_map_shapes():
    incl = _m(3, 1, [(0, 0, 1)])                      # k -> k^3, onto e0
    proj = _m(2, 3, [(0, 1, 1), (1, 2, 1)])           # k^3 -> k^2, kills e0
    assert exactness_failures([incl, proj]) == []
    assert exactness_failures([_m(3, 1, []), proj]) == [0, 1]
    assert exactness_failures([_m(3, 1, [(1, 0, 1)]), proj]) == [1]
    squash = _m(3, 3, [(0, 1, 1), (1, 2, 1)])         # k^3 -> k^3, kills e0, rank 2
    assert exactness_failures([incl, squash]) == [2]
    # a zero map onto the zero space keeps a sequence exact
    assert exactness_failures([incl, proj, _m(0, 2, [])]) == []
    # 0 -> k^2 -> k^3 -> k -> X -> 0, exact up to k, then three ends
    two = _m(3, 2, [(0, 0, 1), (1, 1, 1)])
    onto = _m(1, 3, [(0, 2, 1)])
    assert exactness_failures([two, onto]) == []
    assert exactness_failures([two, onto, _m(1, 1, [])]) == [3]
    assert exactness_failures([two, onto, _m(2, 1, [(0, 0, 1)])]) == [2, 3]
    assert exactness_failures([two, _m(1, 3, [])]) == [1, 2]
    with pytest.raises(ValueError):
        exactness_failures([incl, _m(2, 2, [])])


# -- ShortExactSeq.validate --------------------------------------------------------


def _catalog(field):
    return [divided_power_dual(field, 3), grouplike(field, 3), matrix_coalgebra(field, 2)]


def test_ses_validate_matches_oracle_on_mutated_sequences():
    """The same ``ok`` as the oracle on random sequences and on copies with
    one entry of the inclusion or the projection changed; the names that
    did not change mean the same thing."""
    same_names = {"inclusion-not-injective", "projection-not-surjective",
                  "inclusion-not-contra-map", "projection-not-contra-map"}
    seen, checked, valid = set(), 0, 0
    for field in FIELDS:
        rng = random.Random(800 + field.characteristic)
        for c in _catalog(field):
            for _ in range(10):
                ses = random_contra_ses(rng, c)
                if ses is None:
                    continue
                variants = [ses]
                for _ in range(3):
                    if rng.random() < 0.5:
                        variants.append(replace(ses, incl=_mutate(rng, ses.incl)))
                    else:
                        variants.append(replace(ses, proj=_mutate(rng, ses.proj)))
                for cand in variants:
                    old, new = oracle_ses_failures(cand), cand.validate().failures
                    assert (not old) == (not new), (old, new)
                    assert same_names & set(old) == same_names & set(new), (old, new)
                    seen.update(new)
                    checked += 1
                    valid += not new
    assert checked >= 300 and 50 <= valid < checked
    assert {"inclusion-not-injective", "not-exact-at-mid", "projection-not-surjective"} <= seen


# -- the two probes ----------------------------------------------------------------


def _verdict(v):
    return v.exact, v.failures, v.dims


def test_induction_probe_matches_oracle():
    checked, inexact = 0, 0
    for field in FIELDS:
        rng = random.Random(810 + field.characteristic)
        surjections = [
            identity_morphism(divided_power_dual(field, 3)),
            augmentation(divided_power_dual(field, 3)),
            divided_power_surjection(field, 3, 2, 2),
            random_surjection(rng, grouplike(field, 3)),
        ]
        for rho in surjections:
            for _ in range(4):
                ses = random_contra_ses(rng, rho.target)
                if ses is None:
                    continue
                new = _verdict(exactness_probe(rho, ses))
                assert new == oracle_exactness_probe(rho, ses), (field, rho.target.name)
                checked += 1
                inexact += not new[0]
    assert checked >= 30 and inexact >= 1


def test_cohom_probe_matches_oracle_at_every_position():
    """Socle-filtration and random sequences, and the same sequences with
    the inclusion or the projection replaced by zero (still comodule maps,
    no longer exact), so that each position fails somewhere."""
    seen, checked = set(), 0
    for field in FIELDS:
        rng = random.Random(820 + field.characteristic)
        for c in (divided_power_dual(field, 3), divided_power_dual(field, 2)):
            battery = socle_filtration_sequences(c)
            battery += [quad for quad in (random_comodule_ses(rng, c) for _ in range(3)) if quad]
            g = grouplike_elements(c)[0]
            candidates = [
                free_contramodule(c, 1),
                trivial_contramodule(c, g),
                direct_sum(free_contramodule(c, 1), trivial_contramodule(c, g)),
                random_contramodule(rng, c),
            ]
            for s, mid, q, incl, proj in battery:
                zero_incl = Mat.zeros(incl.rows, incl.cols, field)
                zero_proj = Mat.zeros(proj.rows, proj.cols, field)
                for i, pr in ((incl, proj), (zero_incl, proj), (incl, zero_proj)):
                    b = rng.choice(candidates)
                    new = _verdict(cohom_exactness_probe(s, mid, q, i, pr, b))
                    assert new == oracle_cohom_exactness_probe(s, mid, q, i, pr, b), (field, c.name)
                    seen.update(new[1])
                    checked += 1
    assert checked >= 50
    assert seen == {"left", "middle", "right"}


# -- four-term systems and their limits ------------------------------------------------


def test_four_term_validate_and_limit_match_oracle():
    """Random four-term systems and one-entry mutations of them: the same
    failure lists, and on the valid ones the same limit verdict, detail
    and stable dimensions."""
    seen, statuses, valid = set(), set(), 0
    for field in FIELDS:
        rng = random.Random(830 + field.characteristic)
        for _ in range(60):
            four = random_four_term(rng, field, rng.randint(3, 5))
            assert not four.validate()
            for cand in (four, _mutated_four_term(rng, four)):
                old, new = oracle_four_validate(cand), cand.validate()
                assert new == old
                seen.update(name.split(":", 1)[1] for name in new)
                if new:
                    with pytest.raises(ValueError):
                        limit_four_term(cand)
                    continue
                verdict = limit_four_term(cand)
                status, detail = oracle_limit_four_term(cand)
                assert (verdict.status, _plain(verdict.detail)) == (status, detail)
                statuses.add(status)
                valid += 1
    assert valid >= 200
    assert statuses == {"exact", "fails", "inconclusive"}
    assert {"alpha-not-injective", "not-exact-at-B", "not-exact-at-C",
            "gamma-not-surjective"} <= seen
