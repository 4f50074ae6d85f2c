"""The structure maps written by index arithmetic against their Kronecker
product formulas, the Hom system against the Kronecker pair whose
difference it is and against its per-scalar writer, cotensor, contratensor
and induction (built from Hom, Cohom and the quotient contramodule) against
their own Kronecker formulas, the coequalizer against the quotient by the
image of f - g, the contramodule operations that run on the comodule code
against their direct Kronecker formulas, ``check_coalgebra`` against its
own column loop and ``check_comodule`` against its per-scalar loop on
seeded, rescaled and mutated comodules (over F2 also on k[G_1], k[G_2]
and k[G_3], with flips whose packed contributions cancel mod 2; the packed
F2 square also against the generic one), ``split_solve`` against one solve
on the Kronecker product, ``dual_comodule`` against one loop per side, pivot-read
``Subspace.coords`` against elimination, ``duality_check`` against the
trace-pairing loops, and the identity that makes Hom pair to zero against
Cohom's relations, ``matrix.push`` against the product with
``kron_identity`` and Delta pushed along a coalgebra map
(``check_morphism``, ``Induction.comodule``, ``random_surjection``) against the
Kronecker product and structure-constant formulas, and the battery's F2
Cohom dimensions against the dict columns of each module's relations.  The
stored left layout is checked against the relabels that once converted each
object to and from it, and a right C-comodule against the left
C^cop-comodule it is stored as.  The oracles live here only."""

import random
import re
from fractions import Fraction

import pytest

from contramod import comodule
from contramod.coalgebra import (
    Coalgebra, CoalgebraMorphism, check_coalgebra, check_morphism,
    divided_power_dual, divided_power_surjection, dual_of_algebra, grouplike, matrix_coalgebra,
)
from contramod.comodule import (
    Comodule, _gf2_masks, check_comodule, cofree, comodule_closure, comodule_over_self,
    cotensor, direct_sum, dual_comodule, hom_comodules, is_comodule_map, is_injective,
    quotient_comodule, sub_comodule,
)
from contramod.contramodule import (
    Contramodule, check_contramodule, cohom, contra_from_comodule,
    contra_from_dual, contratensor, duality_check, free_contramodule, gf2_cohom_dims, is_projective,
)
from contramod.fields import GF, GF2, QQ
from contramod.functors import Induction
from contramod.linalg import (
    Subspace, coequalizer, equalizer, image, quotient_by_image, rank, solve,
)
from contramod.matrix import Mat, kron_identity, map_of_vec, push
from contramod.randomgen import (
    random_comodule, random_contramodule, random_surjection, random_vector,
)
from contramod.sl2 import (
    battery_module, build_tower, frob_kernel_coalgebra, frobenius_twist, kernel_stage_masks,
    restrict_to_kernel, standard_rational, tensor_rational,
)
from test_linalg import invert, random_mat

FIELDS = [QQ, GF2, GF(3)]
PAIRS_PER_COALGEBRA = 15


def small_coalgebras(field):
    return [grouplike(field, 3), matrix_coalgebra(field, 2), divided_power_dual(field, 3)]


def hom_basis_maps(m, n_mod, sub=None):
    """The basis of a hom subspace, Hom(M, N) by default, decoded into
    N.dim x M.dim matrices by :func:`matrix.map_of_vec`."""
    if sub is None:
        sub = hom_comodules(m, n_mod)
    return [map_of_vec(col, m.dim, n_mod.dim, m.field) for col in sub.basis_columns()]


# -- the side layouts: the relabels that once converted to and from left layout ------


def right_to_left(coaction, n, md):
    """Rows i*n + c of a right coaction to rows c*md + i."""
    return Mat(n * md, md, coaction.field,
               {((idx % n) * md + idx // n, j): v for (idx, j), v in coaction.data.items()})


def left_to_right(coact, n, md):
    """Rows c*md + i of a left-layout coaction to rows i*n + c."""
    return Mat(md * n, md, coact.field,
               {((idx % md) * n + idx // md, j): v for (idx, j), v in coact.data.items()})


def theta_to_left(theta, n, b):
    """``coaction[c*b + i, k] = theta[i, c*b + k]``."""
    return Mat(n * b, b, theta.field,
               {((idx // b) * b + i, idx % b): v for (i, idx), v in theta.data.items()})


def left_to_theta(coact, n, b):
    """``theta[i, c*b + k] = coaction[c*b + i, k]``."""
    return Mat(b, n * b, coact.field,
               {(idx % b, (idx // b) * b + k): v for (idx, k), v in coact.data.items()})


def _left_coaction(m):
    """The coaction in left layout, read off the side's layout ``m.coaction``;
    for a right comodule this is its coaction as a left C^cop-comodule."""
    return m.coaction if m.side == "left" else right_to_left(m.coaction, m.coalgebra.dim, m.dim)


def _from_left(c, side, dim, coact):
    """The coaction in the side's layout whose left layout is coact."""
    return coact if side == "left" else left_to_right(coact, c.dim, dim)


def comodule_of(c, side, dim, coaction, name=""):
    """The comodule whose coaction in the side's layout is coaction."""
    return Comodule(c, side, dim, coaction if side == "left" else right_to_left(coaction, c.dim, dim),
                    name=name)


def _as_comodule(b):
    """The left comodule with the same entries as b, read off theta."""
    return Comodule(b.coalgebra, "left", b.dim, theta_to_left(b.theta, b.coalgebra.dim, b.dim),
                    name=b.name)


def contra_of_theta(c, dim, theta, name=""):
    """The contramodule whose structure map is theta."""
    return Contramodule(c, dim, theta_to_left(theta, c.dim, dim), name=name)


def relabel_contra_from_comodule(w):
    """The contramodule of a left comodule, its theta relabelled from the
    coaction entry by entry."""
    return contra_of_theta(w.coalgebra, w.dim, left_to_theta(w.coaction, w.coalgebra.dim, w.dim),
                           name=f"{w.name}~contra")


def cop(c):
    """The coopposite coalgebra C^cop, its Delta materialised."""
    n = c.dim
    delta = Mat(n * n, n, c.field, {((x % n) * n + x // n, k): v for (x, k), v in c.delta.data.items()})
    return Coalgebra(c.field, n, delta, c.epsilon, name=f"{c.name}^cop")


def coaction_stabilizes(m, sub):
    """True iff the coaction maps sub into C (x) sub: sub is its own closure."""
    return comodule_closure(m, sub.basis_columns()).dim == sub.dim


def theta_stabilizes(b, sub):
    """True iff theta maps C* (x) sub into sub."""
    return coaction_stabilizes(b, sub)


# -- oracles ---------------------------------------------------------------------


def swap_mat(field, a, b):
    """The braiding X (x) Y -> Y (x) X for dim X = a, dim Y = b."""
    one = field.one()
    data = {(j * a + i, i * b + j): one for i in range(a) for j in range(b)}
    return Mat(a * b, a * b, field, data)


def kron_cohom_maps(m, b):
    f, n = m.field, m.coalgebra.dim
    eye_b = Mat.identity(b.dim, f)
    f_map = m.coaction.transpose().kron(eye_b)
    g_map = Mat.identity(m.dim, f).kron(b.theta) @ swap_mat(f, n, m.dim).kron(eye_b)
    return f_map, g_map


def kron_dual_mult(c):
    return c.delta.transpose() @ swap_mat(c.field, c.dim, c.dim)


def kron_cotensor(m, n_mod):
    """The equalizer of rho_M (x) Id_N and Id_M (x) rho_N inside M (x) N."""
    f = m.field
    return equalizer(m.coaction.kron(Mat.identity(n_mod.dim, f)),
                     Mat.identity(m.dim, f).kron(n_mod.coaction))


def kron_contratensor_maps(m, b):
    f, n = m.field, m.coalgebra.dim
    ev = Mat(1, n * n, f, {(0, c * n + c): f.one() for c in range(n)})
    map1 = Mat.identity(m.dim, f).kron(b.theta)
    map2 = (Mat.identity(m.dim, f).kron(ev).kron(Mat.identity(b.dim, f))
            @ m.coaction.kron(Mat.identity(n * b.dim, f)))
    return map1, map2


def difference_coequalizer(f, g):
    return quotient_by_image(image(f - g))


def dict_cohom(m, b):
    """Cohom with its relation columns written as dicts of field scalars, over
    every field: column r*db + beta holds coaction[r, k] at row k*db + beta,
    minus theta[beta', c*db + beta] at row i*db + beta', for r = c*dm + i."""
    dm, db, fld = m.dim, b.dim, m.field
    zero = fld.zero()
    cols: dict = {}
    for (r, k), v in m.coaction.data.items():
        for beta in range(db):
            cols.setdefault(r * db + beta, {})[k * db + beta] = v
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


def random_pairs(field, side, seed):
    rng = random.Random(seed)
    for c in small_coalgebras(field):
        for _ in range(PAIRS_PER_COALGEBRA):
            yield random_comodule(rng, c, side=side), random_contramodule(rng, c)


# -- one stored layout against the relabels ------------------------------------------


def relabel_contra_from_dual(m, d):
    """contra_from_dual read off the right layout ``m.coaction``."""
    n, md = m.coalgebra.dim, m.dim
    b = md * d
    entries = []
    for (idx, s), v in m.coaction.data.items():
        i, j = divmod(idx, n)
        entries.extend((s * d + l, j * b + i * d + l, v) for l in range(d))
    return contra_of_theta(m.coalgebra, b, Mat.from_entries(b, n * b, m.field, entries),
                           name=f"hom({m.name},k^{d})")


def seeded_comodules(field, side, seed, count=4):
    rng = random.Random(seed)
    for c in small_coalgebras(field):
        for t in range(count):
            m = random_comodule(rng, c, side=side)
            m.name = f"m{t}"
            yield rng, m


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("field", FIELDS)
def test_stored_layout_matches_the_relabels(field, side):
    """The stored matrix is the side's layout relabelled, the side's layout
    is the relabel back, and a contramodule's theta is the relabel of its
    comodule's coaction."""
    for _, m in seeded_comodules(field, side, 1616):
        c, md = m.coalgebra, m.dim
        assert _left_coaction(m) == m.left_coaction
        assert _from_left(c, side, md, m.left_coaction) == m.coaction
        assert comodule_of(c, side, md, m.coaction, m.name) == m
        dual = dual_comodule(m)
        assert _left_coaction(dual) == dual.left_coaction
        if side == "left":
            b = contra_from_comodule(m)
            assert b == relabel_contra_from_comodule(m)
            assert _as_comodule(b).left_coaction == m.left_coaction
            assert contra_of_theta(c, md, b.theta, b.name) == b
        else:
            for d in (1, 2):
                assert contra_from_dual(m, d) == relabel_contra_from_dual(m, d)


@pytest.mark.parametrize("field", FIELDS)
def test_constructors_match_the_side_layouts(field):
    """cofree and C over itself, written straight into the stored layout,
    against Id (x) Delta and Delta on the right side; the free contramodule,
    read off Delta, against Hom(C, k^d) for C over itself on the right."""
    for c in small_coalgebras(field) + [grouplike(field, 1)]:
        for d in (0, 1, 2):
            assert cofree(c, d, "right").coaction == Mat.identity(d, field).kron(c.delta)
            assert cofree(c, d, "left").coaction == c.delta.kron(Mat.identity(d, field))
            right_self = comodule_over_self(c, "right")
            assert free_contramodule(c, d).left_coaction == contra_from_dual(right_self, d).left_coaction
        assert comodule_over_self(c, "right").coaction == comodule_over_self(c).coaction == c.delta


def over_cop(m):
    """A right comodule as the left C^cop-comodule on its relabelled layout,
    and a left one as the right C^cop-comodule on the same matrix, with
    C^cop's Delta materialised."""
    other = "left" if m.side == "right" else "right"
    return Comodule(cop(m.coalgebra), other, m.dim, _left_coaction(m), name=m.name)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("field", FIELDS)
def test_comodules_match_the_other_side_over_cop(field, side):
    """A right C-comodule is a left C^cop-comodule, and conversely: the axiom
    verdicts, injectivity, hom spaces, duals, closures, subobjects,
    quotients and direct sums agree, the stored matrices entry for entry."""
    for rng, m in seeded_comodules(field, side, 1717):
        c = m.coalgebra
        n = random_comodule(rng, c, side=side)
        bad = mutate_coaction(rng, m)
        for x in (m, bad):
            assert check_comodule(x).failures == check_comodule(over_cop(x)).failures
        assert is_injective(m)[0] == is_injective(over_cop(m))[0]
        m2, n2 = over_cop(m), over_cop(n)
        for x, y in ((m, n), (n, m), (m, m)):
            assert hom_comodules(x, y) == hom_comodules(over_cop(x), over_cop(y))
        dual, dual2 = dual_comodule(m), dual_comodule(m2)
        assert dual.left_coaction == dual2.left_coaction and dual.side == m2.side
        total, total2 = comodule.direct_sum(m, n), comodule.direct_sum(m2, n2)
        assert total.left_coaction == total2.left_coaction
        assert total.coaction == _from_left(c, side, total.dim, total2.left_coaction)
        vecs = [random_vector(rng, m.dim, field) for _ in range(rng.randint(1, 2))]
        sub = comodule_closure(m, vecs)
        assert sub == comodule_closure(m2, vecs)
        for build in (sub_comodule, quotient_comodule):
            (got, got_map), (want, want_map) = build(m, sub), build(m2, sub)
            assert (got.left_coaction, got_map) == (want.left_coaction, want_map)
            assert got.coaction == _from_left(c, side, got.dim, want.left_coaction)


# -- the maps ---------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_cohom_maps_match_kron_formulas(field):
    for m, b in random_pairs(field, "left", 101):
        assert cohom(m, b) == difference_coequalizer(*kron_cohom_maps(m, b))


@pytest.mark.parametrize("field", FIELDS)
def test_cohom_matches_dict_columns_on_random_pairs(field):
    """The relations read off the Hom system give the whole coequalizer of
    the dict columns, over every field."""
    for seed in (101, 303):
        for m, b in random_pairs(field, "left", seed):
            assert cohom(m, b) == dict_cohom(m, b)


def test_cohom_matches_dict_columns_on_readme_inputs():
    """The README's F2 cohom, duality and induce lines over divided_power_dual(3)."""
    c3 = divided_power_dual(GF2, 3)
    rho = divided_power_surjection(GF2, 3, 2, 2)
    regular = comodule_over_self(c3)
    pairs = [(regular, free_contramodule(c3, 1)), (regular, contra_from_comodule(cofree(c3, 1))),
             (Induction(rho).comodule, free_contramodule(rho.target, 1))]
    for m, b in pairs:
        co = cohom(m, b)
        assert co == dict_cohom(m, b)
        assert co.dim == 3


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cohom_matches_dict_columns_on_tower_stages(m):
    """Every stage P(lam, m), lam < 2^m, against the README battery."""
    from test_sl2 import dual_kernel_stage

    modules = [dual_comodule(restrict_to_kernel(battery_module(2, expr), m))
               for expr in ("L0", "L1", "L2", "L3", "L1*L1")]
    for lam in range(2 ** m):
        b = contra_from_comodule(dual_kernel_stage(lam, 2, m))
        for v in modules:
            assert cohom(v, b) == dict_cohom(v, b), (lam, v.name)


def coaction_monomials(m):
    return {r // m.dim for r, _ in m.left_coaction.data}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gf2_cohom_dims_match_the_per_module_count_on_tower_stages(m):
    """One call per stage against L0, L1, L2, L3 and L1*L1, whose coaction
    monomials differ, so the lone set shared by the battery is smaller
    than each module's own, against the dict columns of each module's
    Cohom: every stage P(lam, m), lam < 2^m, m <= 3, and P(0, 4), and an
    empty battery."""
    from test_sl2 import dual_kernel_stage

    modules = [dual_comodule(restrict_to_kernel(battery_module(2, expr), m))
               for expr in ("L0", "L1", "L2", "L3", "L1*L1")]
    ws = [coaction_monomials(v) for v in modules]
    assert all(w < set().union(*ws) for w in ws)
    masks = [(v.dim, _gf2_masks(v)) for v in modules]
    for lam in range(2 ** m if m <= 3 else 1):
        stage = kernel_stage_masks(lam, m)
        b = contra_from_comodule(dual_kernel_stage(lam, 2, m))
        assert gf2_cohom_dims(masks, stage) == [dict_cohom(v, b).dim for v in modules], (lam, m)
        assert gf2_cohom_dims([], stage) == []


def test_gf2_cohom_dims_match_the_per_module_count_on_random_pairs():
    """Each seeded F2 contramodule against all the seeded comodules over its
    coalgebra in one call; their lone spans are small, so the quotient
    k^db / L_V is read in many coordinates."""
    qs = set()
    for seed in (101, 303):
        pairs = list(random_pairs(GF2, "left", seed))
        for _, b in pairs:
            battery = [m for m, _ in pairs if m.coalgebra == b.coalgebra]
            ts = _gf2_masks(b)
            dims = gf2_cohom_dims([(m.dim, _gf2_masks(m)) for m in battery], (b.dim, ts))
            assert dims == [dict_cohom(m, b).dim for m in battery] == [cohom(m, b).dim for m in battery], b
            w_all = set().union(*map(coaction_monomials, battery))
            lone = [t for c, block in ts.items() if c not in w_all for t in block.values()]
            qs.add(b.dim - Subspace.from_columns(b.dim, GF2, lone).dim)
    assert max(qs) > 2


def unpacked_masks(blocks, d):
    """The entries (c*d + i, k) of the bits i of every mask blocks[c][k]."""
    return {(c * d + i, k) for c, block in blocks.items() for k, t in block.items()
            for i in range(t.bit_length()) if t >> i & 1}


@pytest.mark.parametrize("side", ["left", "right"])
def test_gf2_masks_unpack_to_the_stored_entries(side):
    """Every bit of ``_gf2_masks`` is one stored entry and every stored entry
    one bit, with no empty block and no mask past bit dim - 1, on the seeded
    F2 pairs (both the comodule and the contramodule) and k[G_2] over itself."""
    objects = [x for seed in (101, 303) for pair in random_pairs(GF2, side, seed) for x in pair]
    objects.append(comodule_over_self(frob_kernel_coalgebra(2, 2), side))
    for x in objects:
        blocks = _gf2_masks(x)
        assert unpacked_masks(blocks, x.dim) == set(x.left_coaction.data), x
        assert all(blocks.values()) and all(0 < t < 1 << x.dim for b in blocks.values() for t in b.values())


def test_gf2_cohom_reads_the_lone_masks_at_monomial_0():
    """divided_power_dual(2) with its two basis vectors swapped, so index 0
    is c_1 and eps = (0, 1).  The trivial comodule's one coaction row is at
    monomial 1, so the masks of free(1) at monomial 0 are lone.  Cohom of k
    against free(1) is k* (Cohom(M, Hom(C, V)) = Hom(M, V)), dimension 1;
    it reads 2 if those masks are skipped."""
    delta = Mat(4, 2, GF2, {(1, 0): 1, (2, 0): 1, (3, 1): 1})
    c = Coalgebra(GF2, 2, delta, Mat(1, 2, GF2, {(0, 1): 1}), name="divided_power_dual(2), swapped")
    assert check_coalgebra(c).ok
    k = Comodule(c, "left", 1, Mat(2, 1, GF2, {(1, 0): 1}), name="trivial")
    b = free_contramodule(c, 1)
    assert check_comodule(k).ok and check_contramodule(b).ok
    ts = _gf2_masks(b)
    assert 0 in ts and not any(r // k.dim == 0 for r, _ in k.left_coaction.data)
    assert gf2_cohom_dims([(k.dim, _gf2_masks(k))], (b.dim, ts)) == [1]
    assert cohom(k, b).dim == dict_cohom(k, b).dim == 1


@pytest.mark.parametrize("r", [1, 2])
def test_cohom_on_frobenius_kernels_at_p3(r):
    """Cohom over F3 on k[G_r]: the duals of L1, L1*L1 and L1*L1^Fr1
    restricted to G_r, each paired with each as a contramodule, against the
    dict columns, and at r = 1 against the Kronecker pair."""
    l1 = standard_rational(3)
    modules = [dual_comodule(restrict_to_kernel(x, r))
               for x in (l1, tensor_rational(l1, l1), tensor_rational(l1, frobenius_twist(l1, 1)))]
    dims = []
    for m in modules:
        for w in modules:
            b = contra_from_comodule(w)
            co = cohom(m, b)
            assert co == dict_cohom(m, b), (m.name, w.name)
            if r == 1:
                assert co == difference_coequalizer(*kron_cohom_maps(m, b)), (m.name, w.name)
            dims.append(co.dim)
    assert any(dims)


def test_stage_masks_serve_only_their_own_matrix():
    """Cohom over two stages of one dimension in the order A, B, A, over a
    ``replace`` copy of A with B's coaction, and over A after its coaction is
    reassigned, each against the dict columns: Cohom reads B's masks off the
    matrix B holds at the call."""
    from test_sl2 import dual_kernel_stage

    v = dual_comodule(restrict_to_kernel(battery_module(2, "L1*L1"), 2))
    a, b = (contra_from_comodule(dual_kernel_stage(lam, 2, 2)) for lam in (1, 2))
    assert a.dim == b.dim and cohom(v, a) != cohom(v, b)
    for x in (a, b, a):
        assert cohom(v, x) == dict_cohom(v, x)
    copy = a.replace(left_coaction=b.left_coaction)
    assert cohom(v, copy) == dict_cohom(v, b)
    a.left_coaction = b.left_coaction
    assert cohom(v, a) == dict_cohom(v, b)


@pytest.mark.parametrize("field", FIELDS)
def test_contratensor_maps_match_kron_formulas(field):
    for m, b in random_pairs(field, "right", 202):
        assert contratensor(m, b) == difference_coequalizer(*kron_contratensor_maps(m, b))


@pytest.mark.parametrize("field", FIELDS)
def test_cotensor_matches_kron_equalizer(field):
    rng = random.Random(212)
    for c in small_coalgebras(field):
        for _ in range(PAIRS_PER_COALGEBRA):
            m = random_comodule(rng, c, side="right")
            n_mod = random_comodule(rng, c, side="left")
            assert cotensor(m, n_mod) == kron_cotensor(m, n_mod)


def test_cotensor_of_kG2_stage_matches_kron_equalizer():
    stage = restrict_to_kernel(build_tower(0, 2, 2).stages[-1], 2)
    module = dual_comodule(restrict_to_kernel(battery_module(2, "L1*L1"), 2))
    sub = cotensor(stage, module)
    assert sub == kron_cotensor(stage, module)
    assert sub.dim > 0


@pytest.mark.parametrize("field", FIELDS)
def test_free_contramodule_matches_kron_formula(field):
    for c in small_coalgebras(field) + [grouplike(field, 1)]:
        for d in (0, 1, 2):
            free = free_contramodule(c, d)
            assert free.theta == kron_dual_mult(c).kron(Mat.identity(d, field))
            assert free.name == f"free({d})"


@pytest.mark.parametrize("field", FIELDS)
def test_induce_matches_kron_formulas(field):
    rng = random.Random(303)
    for c in small_coalgebras(field):
        for _ in range(3):
            rho = random_surjection(rng, c)
            w = random_contramodule(rng, rho.target)
            ind = Induction(rho)
            f_map, g_map = kron_cohom_maps(ind.comodule, w)
            res = ind.induce(w)
            oracle = difference_coequalizer(f_map, g_map)
            assert res.coeq.quotient_map == oracle.quotient_map
            assert res.coeq.section == oracle.section
            assert res.coeq.image_subspace == oracle.image_subspace
            free = free_contramodule(c, w.dim)
            eye = Mat.identity(c.dim, field)
            assert res.induced.theta == oracle.quotient_map @ free.theta @ eye.kron(oracle.section)
            assert res.induced.name == f"ind({w.name})"


# -- the coequalizer ----------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_coequalizer_matches_image_of_difference(field):
    rng = random.Random(404)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        f = random_mat(rng, rows, cols, field, rng.choice([0.1, 0.3, 0.6]))
        g = random_mat(rng, rows, cols, field, rng.choice([0.1, 0.3, 0.6]))
        # share some entries so that whole columns of f - g cancel
        shared = {k: v for k, v in f.data.items() if rng.random() < 0.5}
        g = Mat(rows, cols, field, {**g.data, **shared})
        assert coequalizer(f, g) == difference_coequalizer(f, g)
        assert coequalizer(f, f).dim == rows


# -- contramodules on the comodule code ------------------------------------------------


def kron_check_contramodule(b):
    c, f = b.coalgebra, b.field
    eye_b = Mat.identity(b.dim, f)
    failures = []
    if b.theta @ c.epsilon.transpose().kron(eye_b) != eye_b:
        failures.append("contra-unity")
    lhs = b.theta @ Mat.identity(c.dim, f).kron(b.theta)
    if lhs != b.theta @ kron_dual_mult(c).kron(eye_b):
        failures.append("contra-associativity")
    return failures


def kron_hom_equations(b, d):
    """f -> f o theta_B and f -> theta_D o (Id_C* (x) f) on B* (x) D."""
    n, bd, dd = b.coalgebra.dim, b.dim, d.dim
    lhs = b.theta.transpose().kron(Mat.identity(dd, d.field))
    entries = []
    for (d2, idx), v in d.theta.data.items():
        j, delta = divmod(idx, dd)
        for beta in range(bd):
            entries.append(((j * bd + beta) * dd + d2, beta * dd + delta, v))
    return lhs, Mat.from_entries(n * bd * dd, bd * dd, d.field, entries)


def kron_is_contra_map(b, d, t):
    return t @ b.theta == d.theta @ Mat.identity(b.coalgebra.dim, b.field).kron(t)


def kron_hit(b, basis):
    """theta applied to C* (x) (the columns of basis)."""
    return b.theta @ Mat.identity(b.coalgebra.dim, b.field).kron(basis)


def kron_stabilizes(b, sub):
    return all(sub.contains(col) for col in kron_hit(b, sub.basis).columns().values())


def kron_closure(b, vectors):
    sub = Subspace.from_columns(b.dim, b.field, vectors)
    while True:
        hit = kron_hit(b, sub.basis).columns().values()
        grown = sub.add(Subspace.from_columns(b.dim, b.field, hit))
        if grown.dim == sub.dim:
            return sub
        sub = grown


def kron_sub(b, sub):
    n, k = b.coalgebra.dim, sub.dim
    entries = [(s, j, v) for j, col in kron_hit(b, sub.basis).columns().items()
               for s, v in sub.coords(col).items()]
    theta = Mat.from_entries(k, n * k, b.field, entries)
    return contra_of_theta(b.coalgebra, k, theta, name=f"{b.name}|sub"), sub.basis


def kron_quotient(b, sub):
    coeq = quotient_by_image(sub)
    q = coeq.quotient_map
    assert (q @ kron_hit(b, sub.basis)).is_zero()
    theta = q @ kron_hit(b, coeq.section)
    return contra_of_theta(b.coalgebra, coeq.dim, theta, name=f"{b.name}/sub"), q


def kron_direct_sum(b1, b2):
    f, n = b1.field, b1.coalgebra.dim
    d1, d2 = b1.dim, b2.dim
    eye_n = Mat.identity(n, f)
    incl1 = Mat(d1 + d2, d1, f, {(i, i): f.one() for i in range(d1)})
    incl2 = Mat(d1 + d2, d2, f, {(d1 + i, i): f.one() for i in range(d2)})
    theta = (incl1 @ b1.theta @ eye_n.kron(incl1.transpose())
             + incl2 @ b2.theta @ eye_n.kron(incl2.transpose()))
    return contra_of_theta(b1.coalgebra, d1 + d2, theta, name=f"{b1.name}+{b2.name}")


def kron_split_solve(hom_rows, post, pre):
    """A map X with hom_rows @ vec(X) = 0 and post @ X @ pre = identity, or
    None: one solve on the Kronecker product pre^T (x) post."""
    f, e = hom_rows.field, post.rows
    system = hom_rows.vstack(pre.transpose().kron(post))
    x = solve(system, {hom_rows.rows + i * e + i: f.one() for i in range(e)})
    return None if x is None else map_of_vec(x, pre.rows, post.cols, f)


def kron_is_projective(b):
    c, f = b.coalgebra, b.field
    free = contra_of_theta(c, c.dim * b.dim, kron_dual_mult(c).kron(Mat.identity(b.dim, f)))
    lhs, rhs = kron_hom_equations(b, free)
    section = kron_split_solve(lhs - rhs, b.theta, Mat.identity(b.dim, f))
    return section is not None, section


def mutate_theta(rng, b):
    """b with one random entry of theta moved by a nonzero scalar."""
    f = b.field
    key = (rng.randrange(b.dim), rng.randrange(b.theta.cols))
    data = dict(b.theta.data)
    data[key] = f.add(data.get(key, f.zero()), f.random(rng, nonzero=True))
    data = {k: v for k, v in data.items() if v != 0}
    return contra_of_theta(b.coalgebra, b.dim, Mat(b.dim, b.theta.cols, f, data), name=b.name)


def random_contramodules(field, seed, count=6):
    """Seeded random contramodules and mutations of them, named apart."""
    rng = random.Random(seed)
    for c in small_coalgebras(field):
        for t in range(count):
            b = random_contramodule(rng, c)
            b.name = f"b{t}"
            yield rng, b
            yield rng, mutate_theta(rng, b)


@pytest.mark.parametrize("field", FIELDS)
def test_contramodule_verdicts_match_kron_identities(field):
    seen = set()
    for _, b in random_contramodules(field, 505, count=15):
        # the zero action is contra-associative, never contra-unital
        zero = contra_of_theta(b.coalgebra, b.dim, Mat(b.dim, b.theta.cols, field))
        for x in (b, zero):
            failures = check_contramodule(x).failures
            assert failures == kron_check_contramodule(x)
            seen.add(tuple(failures))
    assert seen == {(), ("contra-unity",), ("contra-associativity",),
                    ("contra-unity", "contra-associativity")}


@pytest.mark.parametrize("field", FIELDS)
def test_contra_homs_match_kron_equations(field):
    rng = random.Random(606)
    for _, b in random_contramodules(field, 607):
        d = random_contramodule(rng, b.coalgebra)
        for x, y in ((b, d), (d, b), (b, b)):
            hom = hom_comodules(x, y)
            assert hom == equalizer(*kron_hom_equations(x, y))
            maps = hom_basis_maps(x, y, hom) + [random_mat(rng, y.dim, x.dim, field, 0.5)]
            for t in maps:
                assert is_comodule_map(x, y, t) == kron_is_contra_map(x, y, t)
        flag, section = is_projective(b)
        assert (flag, section) == kron_is_projective(b)
        if flag:
            assert b.theta @ section == Mat.identity(b.dim, field)


def kron_hom_pair(x, y):
    """The pair F -> coaction_Y o F, a Kronecker product with an identity, and
    F -> (Id_C (x) F) o coaction_X on X* (x) Y, in left layout; Hom(X, Y) is
    their equalizer."""
    n, xd, yd = x.coalgebra.dim, x.dim, y.dim
    lhs = Mat.identity(xd, x.field).kron(_left_coaction(y))
    data = {}
    for (idx, vcol), val in _left_coaction(x).data.items():
        cc, v = divmod(idx, xd)
        for w in range(yd):
            data[(vcol * n * yd + cc * yd + w, v * yd + w)] = val
    return lhs, Mat(xd * n * yd, xd * yd, x.field, data)


def kron_is_injective(m):
    amb = cofree(m.coalgebra, m.dim, side=m.side)
    lhs, rhs = kron_hom_pair(amb, m)
    retraction = kron_split_solve(lhs - rhs, Mat.identity(m.dim, m.field), m.coaction)
    return retraction is not None, retraction


def mutate_coaction(rng, m):
    """m with one random coaction entry moved by a nonzero scalar, redrawn
    until the result is not a comodule."""
    f = m.field
    while True:
        key = (rng.randrange(m.coaction.rows), rng.randrange(m.dim))
        data = dict(m.coaction.data)
        data[key] = f.add(data.get(key, f.zero()), f.random(rng, nonzero=True))
        coact = Mat(m.coaction.rows, m.dim, f, {k: v for k, v in data.items() if v != 0})
        bad = comodule_of(m.coalgebra, m.side, m.dim, coact, name=f"{m.name}~")
        if not check_comodule(bad).ok:
            return bad


def scalar_hom_system(x, y):
    """The Hom system written one field scalar at a time, with ``fld.sub``."""
    n, xd, yd, fld = x.coalgebra.dim, x.dim, y.dim, x.field
    zero, coact_y = fld.zero(), y.left_coaction.data.items()
    data = {(v * n * yd + r, v * yd + w): val for v in range(xd) for (r, w), val in coact_y}
    for (idx, vcol), val in x.left_coaction.data.items():
        row, col = vcol * n * yd + idx // xd * yd, idx % xd * yd
        for w in range(yd):
            data[row + w, col + w] = fld.sub(data.get((row + w, col + w), zero), val)
    return Mat(xd * n * yd, xd * yd, fld, {key: s for key, s in data.items() if s != 0})


@pytest.mark.parametrize("field", FIELDS)
def test_hom_system_matches_scalar_writer(field):
    """The int-accumulated Hom system equals the per-scalar one, entry types
    included, on the pairs Cohom and Hom read it for."""
    for m, b in random_pairs(field, "left", 909):
        for x, y in ((b, m), (m, b), (m, m), (b, b)):
            assert typed(comodule._hom_system(x, y)) == typed(scalar_hom_system(x, y))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("field", FIELDS)
def test_hom_system_matches_kron_pair(field, side):
    rng = random.Random(818 if side == "left" else 828)
    for c in small_coalgebras(field):
        for _ in range(4):
            x, y = random_comodule(rng, c, side=side), random_comodule(rng, c, side=side)
            bad = mutate_coaction(rng, y)
            for a, b in ((x, y), (y, x), (x, x), (x, bad), (bad, x), (bad, bad)):
                lhs, rhs = kron_hom_pair(a, b)
                assert comodule._hom_system(a, b) == lhs - rhs
                assert hom_comodules(a, b) == equalizer(lhs, rhs)
            for m in (x, bad):
                flag, retraction = is_injective(m)
                assert (flag, retraction) == kron_is_injective(m)
                if flag:
                    assert retraction @ m.coaction == Mat.identity(m.dim, field)
        other = random_comodule(rng, c, side="right" if side == "left" else "left")
        with pytest.raises(ValueError, match="side mismatch"):
            hom_comodules(x, other)


@pytest.mark.parametrize("field", FIELDS)
def test_contra_subobjects_match_kron_formulas(field):
    for rng, b in random_contramodules(field, 708):
        vecs = [random_vector(rng, b.dim, field) for _ in range(rng.randint(1, 2))]
        span = Subspace.from_columns(b.dim, field, vecs)
        assert theta_stabilizes(b, span) == kron_stabilizes(b, span)
        sub = comodule_closure(b, vecs)
        assert sub == kron_closure(b, vecs)
        assert theta_stabilizes(b, sub)
        assert sub_comodule(b, sub) == kron_sub(b, sub)
        assert quotient_comodule(b, sub) == kron_quotient(b, sub)
        if not theta_stabilizes(b, span):
            with pytest.raises(ValueError, match="not a subcomodule"):
                sub_comodule(b, span)
            with pytest.raises(ValueError, match="not a subcomodule"):
                quotient_comodule(b, span)


def kron_right_stable(m, sub):
    """rho(sub) inside sub (x) C for a right comodule, by one span test."""
    inside = image(sub.basis.kron(Mat.identity(m.coalgebra.dim, m.field)))
    return all(inside.contains(col) for col in (m.coaction @ sub.basis).columns().values())


@pytest.mark.parametrize("field", FIELDS)
def test_right_subobjects_of_unstable_span_raise(field):
    rng = random.Random(717)
    seen = set()
    for c in small_coalgebras(field):
        for _ in range(6):
            m = random_comodule(rng, c, side="right")
            vecs = [random_vector(rng, m.dim, field) for _ in range(rng.randint(1, 2))]
            span = Subspace.from_columns(m.dim, field, vecs)
            stable = kron_right_stable(m, span)
            seen.add(stable)
            if stable:
                assert sub_comodule(m, span)[1] == span.basis
                assert quotient_comodule(m, span)[0].dim == m.dim - span.dim
                continue
            with pytest.raises(ValueError, match="not a subcomodule"):
                sub_comodule(m, span)
            with pytest.raises(ValueError, match="not a subcomodule"):
                quotient_comodule(m, span)
    assert seen == {True, False}


@pytest.mark.parametrize("field", FIELDS)
def test_contra_direct_sum_matches_block_formula(field):
    rng = random.Random(809)
    for _, b in random_contramodules(field, 810):
        d = mutate_theta(rng, random_contramodule(rng, b.coalgebra))
        d.name = "d"
        assert direct_sum(b, d) == kron_direct_sum(b, d)
        assert direct_sum(d, b) == kron_direct_sum(d, b)


# -- check_coalgebra against its column loop -------------------------------------------


def add_into(acc, key, val, f):
    """acc[key] += val in the field f, keeping only nonzero entries."""
    s = f.add(acc.get(key, f.zero()), val)
    if s == 0:
        acc.pop(key, None)
    else:
        acc[key] = s


def loop_check_coalgebra(c):
    f, n = c.field, c.dim
    cols = c.delta.columns()
    failures = []
    for k in range(n):
        lhs, rhs = {}, {}
        for idx, v in cols.get(k, {}).items():
            i, j = divmod(idx, n)
            for idx2, w in cols.get(i, {}).items():
                add_into(lhs, idx2 * n + j, f.mul(v, w), f)
            for idx2, w in cols.get(j, {}).items():
                add_into(rhs, i * n * n + idx2, f.mul(v, w), f)
        if lhs != rhs:
            failures.append("coassociativity")
            break
    left_ok = right_ok = True
    for k in range(n):
        left, right = {}, {}
        for idx, v in cols.get(k, {}).items():
            i, j = divmod(idx, n)
            add_into(left, j, f.mul(c.eps(i), v), f)
            add_into(right, i, f.mul(c.eps(j), v), f)
        left_ok = left_ok and left == {k: f.one()}
        right_ok = right_ok and right == {k: f.one()}
    if not left_ok:
        failures.append("counit-left")
    if not right_ok:
        failures.append("counit-right")
    return failures


def mutated_coalgebras(rng, c):
    """c with one delta entry moved, one epsilon entry moved, one delta
    column zeroed, and the epsilon row zeroed."""
    f, n = c.field, c.dim
    row, col = rng.randrange(n * n), rng.randrange(n)
    delta = dict(c.delta.data)
    delta[(row, col)] = f.add(delta.get((row, col), f.zero()), f.random(rng, nonzero=True))
    yield Mat(n * n, n, f, {k: v for k, v in delta.items() if v != 0}), c.epsilon
    k = rng.randrange(n)
    eps = dict(c.epsilon.data)
    eps[(0, k)] = f.add(eps.get((0, k), f.zero()), f.random(rng, nonzero=True))
    yield c.delta, Mat(1, n, f, {key: v for key, v in eps.items() if v != 0})
    yield Mat(n * n, n, f, {key: v for key, v in c.delta.data.items() if key[1] != k}), c.epsilon
    yield c.delta, Mat(1, n, f)


@pytest.mark.parametrize("field", FIELDS)
def test_check_coalgebra_matches_column_loop(field):
    rng = random.Random(911)
    seen = set()
    sources = small_coalgebras(field) + [grouplike(field, 1), divided_power_dual(field, 4)]
    for c in sources:
        assert check_coalgebra(c).failures == loop_check_coalgebra(c) == []
        for _ in range(8):
            for delta, eps in mutated_coalgebras(rng, c):
                bad = Coalgebra(field, c.dim, delta, eps)
                failures = check_coalgebra(bad).failures
                assert failures == loop_check_coalgebra(bad)
                seen.update(failures)
    assert seen == {"coassociativity", "counit-left", "counit-right"}


@pytest.mark.parametrize("field", FIELDS)
def test_check_coalgebra_right_counit_only_defect(field):
    """Delta(x) = e_0 (x) x with eps = e_0^*: coassociative and left counital,
    but (Id (x) eps) o Delta sends x to eps(x) e_0, so only the right counit
    law fails."""
    one = field.one()
    for n in (2, 3):
        delta = Mat(n * n, n, field, {(k, k): one for k in range(n)})
        c = Coalgebra(field, n, delta, Mat(1, n, field, {(0, 0): one}))
        assert check_coalgebra(c).failures == loop_check_coalgebra(c) == ["counit-right"]


# -- check_comodule against its per-scalar loop ---------------------------------------


def loop_check_comodule(m):
    """Coassociativity and counit column by column, one field operation per
    product of scalars; a right comodule is checked over C^cop."""
    c = m.coalgebra
    f = c.field
    zero = f.zero()
    n, md = c.dim, m.dim
    coact_cols = _left_coaction(m).columns()
    delta_cols = c.delta.columns()
    if m.side == "right":
        delta_cols = {k: {(x % n) * n + x // n: w for x, w in col.items()}
                      for k, col in delta_cols.items()}
    eps = c.epsilon.row_groups().get(0, {})
    coassoc_ok = counit_ok = True
    for k in range(md):
        lhs, rhs, counit_acc = {}, {}, {}
        for idx, v in coact_cols.get(k, {}).items():
            cc, i = divmod(idx, md)
            for idx2, w in delta_cols.get(cc, {}).items():
                add_into(lhs, idx2 * md + i, f.mul(v, w), f)
            for idx2, w in coact_cols.get(i, {}).items():
                add_into(rhs, cc * n * md + idx2, f.mul(v, w), f)
            if cc in eps:
                add_into(counit_acc, i, f.mul(eps[cc], v), f)
        coassoc_ok = coassoc_ok and lhs == rhs
        counit_ok = counit_ok and counit_acc == {k: f.one()}
    return [name for name, ok in (("coassociativity", coassoc_ok), ("counit", counit_ok)) if not ok]


def with_coaction(m, data, name):
    """m with its coaction replaced by data, in m's own layout."""
    f = m.field
    coact = Mat(m.coaction.rows, m.coaction.cols, f, {k: v for k, v in data.items() if v != 0})
    return comodule_of(m.coalgebra, m.side, m.dim, coact, name=name)


def broken_comodules(rng, m):
    """m with its coaction changed three ways: coassociativity broken with
    the counit law kept, the counit law broken with coassociativity kept, and
    both broken.  Each is redrawn until the scalar loop reports exactly that."""
    c, f, md = m.coalgebra, m.field, m.dim
    eps = c.epsilon.row_groups().get(0, {})
    n = c.dim

    def row(cc, i):
        # row of coalgebra index cc and module index i in m's own layout
        return cc * md + i if m.side == "left" else i * n + cc

    def redraw(want, perturb):
        for _ in range(200):
            data = dict(m.coaction.data)
            perturb(data)
            bad = with_coaction(m, data, f"{m.name}~")
            if loop_check_comodule(bad) == want:
                return bad
        raise AssertionError(f"no {want} mutation of {m.name}")

    def shift(data, key, val):
        data[key] = f.add(data.get(key, f.zero()), val)

    def keep_counit(data):
        # a change in the kernel of eps (x) Id: eps(c2) a at (c1, i), -eps(c1) a at (c2, i)
        c1, c2 = rng.sample(range(n), 2)
        i, k, a = rng.randrange(md), rng.randrange(md), f.random(rng, nonzero=True)
        shift(data, (row(c1, i), k), f.mul(eps.get(c2, f.zero()), a) if c1 in eps else a)
        if c1 in eps:
            shift(data, (row(c2, i), k), f.neg(f.mul(eps[c1], a)))

    def anywhere(data):
        for _ in range(rng.randint(1, 3)):
            shift(data, (rng.randrange(m.coaction.rows), rng.randrange(md)), f.random(rng, nonzero=True))

    yield redraw(["coassociativity"], keep_counit)
    # Delta (x) Id and Id (x) coaction agree on the block sum M + N with N's
    # columns zeroed, since M's coaction lands in C (x) M; the counit fails on N
    other = comodule.direct_sum(m, m)
    data = {key: v for key, v in other.coaction.data.items() if key[1] < md}
    yield with_coaction(other, data, f"{m.name}+0")
    yield redraw(["coassociativity", "counit"], anywhere)


def rescaled(m, coalgebra_scales, module_scales):
    """m and its coalgebra in the bases g_c e_c and d_i m_i, so their entries
    pick up the denominators g_a g_b and g_c d_i: an isomorphic comodule."""
    c, f = m.coalgebra, m.field
    n, md = c.dim, m.dim
    g = [f.of(coalgebra_scales[a % len(coalgebra_scales)]) for a in range(n)]
    d = [f.of(module_scales[i % len(module_scales)]) for i in range(md)]
    delta = Mat(n * n, n, f, {(x, k): f.mul(v * g[k], invert(f, g[x // n] * g[x % n]))
                              for (x, k), v in c.delta.data.items()})
    eps = Mat(1, n, f, {(0, k): f.mul(v, g[k]) for (_, k), v in c.epsilon.data.items()})
    c2 = Coalgebra(f, n, delta, eps, name=f"{c.name}'")
    coact = Mat(n * md, md, f, {(idx, j): f.mul(v * d[j], invert(f, g[idx // md] * d[idx % md]))
                                for (idx, j), v in _left_coaction(m).data.items()})
    return Comodule(c2, m.side, md, coact, f"{m.name}'")


CHECK_FIELDS = [QQ, GF2, GF(3), GF(5)]
ALL_VERDICTS = {(), ("coassociativity",), ("counit",), ("coassociativity", "counit")}


def assert_check_matches_loop(m, rng, seen):
    for x in (m, *broken_comodules(rng, m)):
        failures = check_comodule(x).failures
        assert failures == loop_check_comodule(x), x.name
        seen.add(tuple(failures))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("field", CHECK_FIELDS)
def test_check_comodule_matches_scalar_loop(field, side):
    rng = random.Random(1212 if side == "left" else 1313)
    seen = set()
    for c in small_coalgebras(field):
        for t in range(4):
            m = random_comodule(rng, c, side=side)
            m.name = f"m{t}"
            assert check_comodule(m).ok
            assert_check_matches_loop(m, rng, seen)
    assert seen == ALL_VERDICTS


@pytest.mark.parametrize("side", ["left", "right"])
def test_check_comodule_with_many_distinct_denominators(side):
    """Delta, epsilon and the coaction rescaled by the primes 2..43, so each
    operand's common scale is the lcm of many coprime denominators."""
    rng = random.Random(1414)
    seen, dens = set(), set()
    for c in small_coalgebras(QQ):
        for m in (random_comodule(rng, c, side=side), cofree(c, 2, side=side)):
            m = rescaled(m, [2, 5, 13, 41, 43], [3, 7, 11, 17, 19, 23])
            dens.update(v.denominator for v in m.coaction.data.values())
            assert check_coalgebra(m.coalgebra).ok and check_comodule(m).ok
            assert_check_matches_loop(m, rng, seen)
            for delta, eps in mutated_coalgebras(rng, m.coalgebra):
                bad = Coalgebra(QQ, c.dim, delta, eps)
                assert check_coalgebra(bad).failures == loop_check_coalgebra(bad)
    assert all(any(den % q == 0 for den in dens) for q in (2, 3, 5, 7, 11, 13, 41))
    assert seen == ALL_VERDICTS


def test_check_comodule_matches_scalar_loop_on_kG2_stage():
    from test_sl2 import dual_kernel_stage

    rng = random.Random(1515)
    right = dual_comodule(dual_kernel_stage(0, 2, 2))
    seen = set()
    for m in (right, dual_comodule(right)):
        assert check_comodule(m).ok
        assert_check_matches_loop(m, rng, seen)
    assert seen == ALL_VERDICTS


@pytest.mark.parametrize("side", ["left", "right"])
def test_check_comodule_matches_scalar_loop_on_kG2(side):
    """k[G_2] over itself, whose Delta is not cocommutative, so the right
    side's Delta^cop rows differ from Delta's."""
    rng = random.Random(1616)
    seen = set()
    m = comodule_over_self(frob_kernel_coalgebra(2, 2), side)
    assert check_comodule(m).ok
    assert_check_matches_loop(m, rng, seen)
    assert seen == ALL_VERDICTS


def parity_flips(rng, m, count):
    """(k, (r1, r2)): two stored entries in column k of m over F2 whose
    changes meet in one packed row of the coassociativity square and cancel
    there.  Either one bit i of two blocks c1, c2 whose Delta columns
    (Delta^cop's on the right) share a row x, so the first side flips bit i
    of row x twice; or two bits i, i2 of one block c whose coaction columns
    hold one block value at a common b, so the second side XORs that value
    into row c*n + b twice."""
    n, d = m.coalgebra.dim, m.dim
    holders: dict = {}
    for x, c in m.coalgebra.delta.data:
        holders.setdefault(x if m.side == "left" else x % n * n + x // n, set()).add(c)
    columns_at: dict = {}   # (b, block value u) -> the columns j with B_j(b) = u
    for b, block in _gf2_masks(m).items():
        for j, u in block.items():
            columns_at.setdefault((b, u), set()).add(j)
    shared_rows = sorted(sorted(cs) for cs in holders.values() if len(cs) > 1)
    shared_values = sorted(sorted(js) for js in columns_at.values() if len(js) > 1)
    for _ in range(count):
        k, i = rng.randrange(d), rng.randrange(d)
        c1, c2 = rng.sample(rng.choice(shared_rows), 2)
        yield k, (c1 * d + i, c2 * d + i)
        c = rng.randrange(n)
        i, i2 = rng.sample(rng.choice(shared_values), 2)
        yield k, (c * d + i, c * d + i2)


def flipped(m, k, rows):
    """m with its stored entries (r, k), r in rows, flipped over F2."""
    data = dict(m.left_coaction.data)
    for r in rows:
        if data.pop((r, k), None) is None:
            data[r, k] = 1
    return Comodule(m.coalgebra, m.side, m.dim, Mat(m.left_coaction.rows, m.dim, GF2, data), f"{m.name}~")


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("r", [1, 2])
def test_check_comodule_matches_scalar_loop_on_parity_flips(r, side):
    rng = random.Random(1818 + r)
    seen = set()
    m = comodule_over_self(frob_kernel_coalgebra(2, r), side)
    for k, rows in parity_flips(rng, m, 30):
        bad = flipped(m, k, rows)
        failures = check_comodule(bad).failures
        assert failures == loop_check_comodule(bad), (k, rows)
        seen.add(tuple(failures))
    assert seen == {("coassociativity",), ("coassociativity", "counit")}


@pytest.mark.parametrize("side", ["left", "right"])
def test_gf2_coassociative_matches_the_generic_square(side):
    """The packed F2 square against the generic one on the same coaction:
    the seeded F2 pairs (comodule and contramodule) and k[G_2] over itself,
    each with its mutations, and parity flips of k[G_2]."""
    rng = random.Random(2020 if side == "left" else 2121)
    objects = [x for seed in (101, 303) for pair in random_pairs(GF2, side, seed) for x in pair]
    kg2 = comodule_over_self(frob_kernel_coalgebra(2, 2), side)
    seen = set()
    for x in (*objects, kg2):
        for y in (x, *broken_comodules(rng, x)):
            verdict = comodule._gf2_coassociative(y)
            assert verdict == comodule._coassociative(y), y.name
            seen.add(verdict)
    for k, rows in parity_flips(rng, kg2, 20):
        bad = flipped(kg2, k, rows)
        assert comodule._gf2_coassociative(bad) == comodule._coassociative(bad), (k, rows)
    assert seen == {True, False}


def test_check_coalgebra_on_kG3():
    """k[G_3] (dimension 512) is a coalgebra, and deleting one Delta entry
    (a*n + b, k) with eps(a) = eps(b) = 0 breaks coassociativity alone."""
    c = frob_kernel_coalgebra(2, 3)
    n = c.dim
    assert check_coalgebra(c).ok
    eps = {k for _, k in c.epsilon.data}
    entries = sorted(key for key in c.delta.data if not {key[0] // n, key[0] % n} & eps)
    rng = random.Random(1919)
    for key in rng.sample(entries, 2):
        bad = Coalgebra(GF2, n, Mat(n * n, n, GF2, {e: v for e, v in c.delta.data.items() if e != key}),
                        c.epsilon)
        assert check_coalgebra(bad).failures == loop_check_coalgebra(bad) == ["coassociativity"], key


# -- the dual comodule ------------------------------------------------------------------


def loop_dual_comodule(m):
    """The dual read off the stored coaction, one loop per side."""
    c = m.coalgebra
    n, md = c.dim, m.dim
    entries = []
    if m.side == "left":
        for (idx, j), v in m.coaction.data.items():
            cc, i = divmod(idx, md)
            entries.append((j * n + cc, i, v))
        coact = Mat.from_entries(md * n, md, m.field, entries)
        return comodule_of(c, "right", md, coact, name=f"{m.name}*")
    for (idx, j), v in m.coaction.data.items():
        i, cc = divmod(idx, n)
        entries.append((cc * md + j, i, v))
    coact = Mat.from_entries(n * md, md, m.field, entries)
    return Comodule(c, "left", md, coact, name=f"{m.name}*")


def assert_dual_matches_loop(m):
    dual, oracle = dual_comodule(m), loop_dual_comodule(m)
    assert (dual.coaction, dual.side, dual.name) == (oracle.coaction, oracle.side, oracle.name)
    double = dual_comodule(dual)
    assert (double.coaction, double.side) == (m.coaction, m.side)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("field", FIELDS)
def test_dual_comodule_matches_side_loops(field, side):
    rng = random.Random(505)
    for c in small_coalgebras(field):
        for _ in range(PAIRS_PER_COALGEBRA):
            assert_dual_matches_loop(random_comodule(rng, c, side=side))


def test_dual_comodule_of_tower_stages_matches_side_loops():
    tower = build_tower(0, 2, 3)
    for offset, stage in enumerate(tower.stages):
        assert_dual_matches_loop(restrict_to_kernel(stage, tower.m0 + offset))


# -- pivot-read coordinates and the duality pairing -----------------------------------


def elimination_coords(sub, vec):
    """Coordinates by subtracting each basis column in pivot order, or None
    when a residual is left."""
    f = sub.field
    cols = sub.basis.columns()
    coeffs, residual = {}, dict(vec)
    for t, p in enumerate(sub.pivots):
        c = residual.get(p)
        if c is None or c == 0:
            continue
        coeffs[t] = c
        for i, v in cols.get(t, {}).items():
            s = f.sub(residual.get(i, f.zero()), f.mul(c, v))
            if s == 0:
                residual.pop(i, None)
            else:
                residual[i] = s
    if any(v != 0 for v in residual.values()):
        return None
    return coeffs


@pytest.mark.parametrize("field", FIELDS)
def test_coords_matches_elimination(field):
    rng = random.Random(606)
    seen = {True: 0, False: 0}
    for _ in range(200):
        amb = rng.randint(1, 9)
        cols = [random_vector(rng, amb, field) for _ in range(rng.randint(0, 5))]
        sub = Subspace.from_columns(amb, field, cols)
        inside = [sub.basis.apply(random_vector(rng, sub.dim, field)) for _ in range(3) if sub.dim]
        for vec in inside + [random_vector(rng, amb, field) for _ in range(3)]:
            want = elimination_coords(sub, vec)
            assert sub.coords(vec) == want
            assert sub.contains(vec) == (want is not None)
            seen[want is not None] += 1
    assert seen[True] > 100 and seen[False] > 100


def trace_pair_duality(v, w):
    """(cohom_dim, hom_dim, pairing_rank) by decoding every relation, section
    column and hom basis vector to a matrix and pairing them by trace."""
    f = v.field
    co = cohom(v, contra_from_comodule(w))
    hom = comodule.hom_comodules(w, v)
    hom_maps = hom_basis_maps(w, v, hom)

    def trace_pair(map_vw, map_wv):
        acc = f.zero()
        for (y, x), val in map_vw.data.items():
            other = map_wv[x, y]
            if other != 0:
                acc = f.add(acc, f.mul(val, other))
        return acc

    for rel_col in co.image_subspace.basis.columns().values():
        rel = map_of_vec(rel_col, v.dim, w.dim, f)
        if any(trace_pair(rel, hmap) != 0 for hmap in hom_maps):
            return co.dim, hom.dim, -1
    sec_cols = co.section.columns()
    entries = []
    for t in range(co.dim):
        rep = map_of_vec(sec_cols.get(t, {}), v.dim, w.dim, f)
        entries += [(t, s, trace_pair(rep, hmap)) for s, hmap in enumerate(hom_maps)]
    return co.dim, hom.dim, rank(Mat.from_entries(co.dim, hom.dim, f, entries))


@pytest.mark.parametrize("field", FIELDS)
def test_duality_check_matches_trace_pair_loops(field):
    rng = random.Random(707)
    pairs = [(random_comodule(rng, c), random_comodule(rng, c))
             for c in small_coalgebras(field) for _ in range(PAIRS_PER_COALGEBRA)]
    ranks = set()
    for v, w in pairs:
        rep = duality_check(v, w)
        assert (rep.cohom_dim, rep.hom_dim, rep.pairing_rank) == trace_pair_duality(v, w)
        ranks.add(rep.pairing_rank)
    assert len(ranks) > 2 and -1 not in ranks


def test_duality_check_builds_one_hom_system(monkeypatch):
    """duality_check builds the rows of one Hom system and eliminates them
    in one echelon, over Q, F2 and F3; it forms no Hom-system matrix."""
    from contramod import contramodule, linalg
    rows, echelons, matrices = [], [], []
    build, make, system = comodule._hom_rows, linalg.make_echelon, comodule._hom_system
    monkeypatch.setattr(comodule, "_hom_rows", lambda x, y, *key: rows.append((x.left_coaction, y)) or build(x, y, *key))
    for module in (linalg, comodule, contramodule):
        monkeypatch.setattr(module, "make_echelon", lambda f, *fed: echelons.append(f) or make(f, *fed))
    monkeypatch.setattr(comodule, "_hom_system", lambda x, y: matrices.append((x, y)) or system(x, y))
    rng = random.Random(709)
    for field in FIELDS:
        for c in small_coalgebras(field):
            v, w = random_comodule(rng, c), random_comodule(rng, c)
            rows.clear()
            echelons.clear()
            assert duality_check(v, w).ok
            # Cohom(V, W) reads the system of (W as a contramodule, V), on W's matrix
            assert rows == [(w.left_coaction, v)] and echelons == [field] and not matrices


def _random_coaction_data(rng, c, dim):
    """A left 'comodule' whose coaction is a random matrix, axioms or not."""
    return Comodule(c, "left", dim, random_mat(rng, c.dim * dim, dim, c.field, 0.3), name="random")


@pytest.mark.parametrize("field", FIELDS)
def test_hom_pairs_to_zero_against_cohom_relations(field):
    """Hom(W, V) is the equalizer that Cohom(V, W)'s relations pair against,
    so the trace pairing kills every relation for any coaction data: the
    identity that lets ``duality_check`` pair only the section."""
    rng = random.Random(708)
    pairs = []
    for c in small_coalgebras(field):
        for _ in range(PAIRS_PER_COALGEBRA):
            pairs.append((random_comodule(rng, c), random_comodule(rng, c)))
            w = _random_coaction_data(rng, c, rng.randint(1, 3))
            u = _random_coaction_data(rng, c, rng.randint(1, 2))
            # Hom(W, W + U) holds the inclusion of W for any data
            pairs += [(w, u), (w, w), (comodule.direct_sum(w, u), w)]
    nonzero = non_comodules = 0
    for v, w in pairs:
        co = cohom(v, contra_from_comodule(w))
        hom = comodule.hom_comodules(w, v)
        dv, dw = v.dim, w.dim
        # Hom(W, V) sits in W* (x) V at y*dim V + x, Cohom in V* (x) W at x*dim W + y
        reindexed = Mat(dv * dw, hom.dim, field,
                        {((i % dv) * dw + i // dv, s): val for (i, s), val in hom.basis.data.items()})
        assert (co.image_subspace.basis.transpose() @ reindexed).is_zero()
        nonzero += hom.dim > 0 and co.image_subspace.dim > 0
        non_comodules += not (comodule.check_comodule(v).ok and comodule.check_comodule(w).ok)
    assert nonzero > len(pairs) // 2 and non_comodules > len(pairs) // 2


@pytest.mark.parametrize("field", FIELDS)
def test_duality_check_reads_hom_and_cohom_off_one_elimination(field):
    """duality_check's hom_dim is that of hom_comodules(W, V) and its
    cohom_dim that of cohom(V, W), on comodules and on random coaction data;
    the quotient map's rows it reads Hom from span Hom(W, V) once reindexed
    from V* (x) W to W* (x) V."""
    rng = random.Random(711)
    pairs = []
    for c in small_coalgebras(field):
        for _ in range(PAIRS_PER_COALGEBRA):
            pairs.append((random_comodule(rng, c), random_comodule(rng, c)))
            pairs.append((_random_coaction_data(rng, c, rng.randint(1, 3)),
                          _random_coaction_data(rng, c, rng.randint(1, 3))))
    dims = set()
    for v, w in pairs:
        rep = duality_check(v, w)
        hom = comodule.hom_comodules(w, v)
        co = cohom(v, contra_from_comodule(w))
        assert (rep.hom_dim, rep.cohom_dim) == (hom.dim, co.dim)
        dv, dw = v.dim, w.dim
        rows = [{(i % dw) * dv + i // dw: val for i, val in row.items()}
                for row in co.quotient_map.row_groups().values()]
        assert Subspace.from_columns(dv * dw, field, rows) == hom
        dims.add(hom.dim)
    assert len(dims) > 2


@pytest.mark.parametrize("field", FIELDS)
def test_hom_rows_are_the_hom_system_in_each_callers_coordinates(field):
    """The builder's int rows are nonzero and reduced mod p, and over their
    scale they are the Hom system's rows, with column v*yd + w keyed
    base + sv*v + sw*w, for the keys of Hom's kernel and of Cohom."""
    for m, b in random_pairs(field, "left", 713):
        for x, y in ((b, m), (m, b), (m, m)):
            system, xd, yd = comodule._hom_system(x, y), x.dim, y.dim
            for base, sv, sw in ((0, yd, 1), (xd * yd - 1, -yd, -1), (0, 1, xd)):
                rows, s = comodule._hom_rows(x, y, base, sv, sw)
                p = field.characteristic
                ints = [v for row in rows.values() for v in row.values()]
                assert all(v and (not p or 0 < v < p) for v in ints)
                got = {(i, base + sv * (j // yd) + sw * (j % yd)): v for (i, j), v in system.data.items()}
                assert {(i, j): field.of(Fraction(v, s)) for i, row in rows.items()
                        for j, v in row.items()} == got


# -- pushing Delta along a coalgebra map --------------------------------------------------


def surjection_sources(field):
    """battery_q's four sources and matrix_coalgebra(3)."""
    return [matrix_coalgebra(field, 2), divided_power_dual(field, 3), divided_power_dual(field, 4),
            grouplike(field, 3), matrix_coalgebra(field, 3)]


def kron_check_morphism(rho):
    """check_morphism's failures with (r (x) r) o Delta_C as a Kronecker product."""
    c, d, r = rho.source, rho.target, rho.matrix
    failures = []
    if d.delta @ r != r.kron(r) @ c.delta:
        failures.append("comultiplication-compatibility")
    if d.epsilon @ r != c.epsilon:
        failures.append("counit-compatibility")
    if rho.surjective != (rank(r) == d.dim):
        failures.append("surjectivity-flag")
    return failures


def structure_constant_surjection(rng, c):
    """random_surjection with the target built as the dual of the
    subalgebra's structure constants, one product per pair of entries."""
    f, n = c.field, c.dim
    mult = c.delta.transpose()

    def product(x, y):
        xy = {}
        for i, vx in x.items():
            for j, vy in y.items():
                for k, v in mult.apply({i * n + j: f.mul(vx, vy)}).items():
                    add_into(xy, k, v, f)
        return xy

    gens = [dict(c.epsilon.row_groups().get(0, {}))]
    for _ in range(rng.randint(0, 2)):
        gens.append(random_vector(rng, n, f))
    sub = Subspace.from_columns(n, f, gens)
    while True:
        cols = sub.basis_columns()
        extra = [xy for x in cols for y in cols if (xy := product(x, y)) and not sub.contains(xy)]
        if not extra:
            break
        sub = sub.add(Subspace.from_columns(n, f, extra))
    k, cols = sub.dim, sub.basis_columns()
    entries = []
    for s in range(k):
        for t in range(k):
            coords = sub.coords(product(cols[s], cols[t]))
            assert coords is not None, "subalgebra not closed"
            entries += [(u, s * k + t, v) for u, v in coords.items()]
    unit_coords = sub.coords(dict(c.epsilon.row_groups().get(0, {})))
    unit = Mat.from_entries(k, 1, f, [(u, 0, v) for u, v in unit_coords.items()])
    target = dual_of_algebra(Mat.from_entries(k, k * k, f, entries), unit, name=f"dual-sub({k})")
    return CoalgebraMorphism(c, target, sub.basis.transpose(), surjective=True)


def typed(m):
    """A matrix with the type of every entry, so Fraction(1) and 1 differ."""
    return m.rows, m.cols, m.field, sorted((key, type(v).__name__, v) for key, v in m.data.items())


@pytest.mark.parametrize("field", FIELDS)
def test_random_surjection_matches_structure_constants(field):
    """Seeded draws give bit-identical maps, targets and generator states."""
    for c in surjection_sources(field):
        for seed in range(20):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            rho, old = random_surjection(rng, c), structure_constant_surjection(oracle_rng, c)
            assert typed(rho.matrix) == typed(old.matrix)
            assert typed(rho.target.delta) == typed(old.target.delta)
            assert typed(rho.target.epsilon) == typed(old.target.epsilon)
            assert (rho.target.name, rho.surjective) == (old.target.name, old.surjective)
            assert rng.getstate() == oracle_rng.getstate()


def _push_operand(rng, rows, cols, field):
    """A random matrix whose Q entries have denominators 1, 3 and 7."""
    def scalar():
        if field.characteristic:
            return field.random(rng)
        return Fraction(rng.randint(-4, 4), rng.choice((1, 3, 7)))
    return Mat.from_entries(rows, cols, field, [(i, j, scalar()) for i in range(rows)
                                                for j in range(cols) if rng.random() < 0.5])


@pytest.mark.parametrize("field", FIELDS)
def test_push_delta_matches_kron(field):
    """push(t, n, left, m) equals kron_identity(t, n, left) @ m, entry types
    included, on random operands, empty ones and a t with no rows, and raises
    the same ValueError where the shapes do not compose; (r (x) Id_C) o Delta_C
    and the coaction of Induction.comodule equal the Kronecker product."""
    rng = random.Random(1313)
    for _ in range(150):
        left, n = rng.random() < 0.5, rng.randint(0, 3)
        t = _push_operand(rng, rng.randint(0, 3), rng.randint(0, 3), field)
        m = _push_operand(rng, n * t.cols, rng.randint(0, 3), field)
        assert typed(push(t, n, left, m)) == typed(kron_identity(t, n, left) @ m)
        bad = _push_operand(rng, n * t.cols + rng.choice((-1, 1)) if n * t.cols else 1, 2, field)
        with pytest.raises(ValueError) as want:
            kron_identity(t, n, left) @ bad
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            push(t, n, left, bad)
    t = _push_operand(rng, 2, 3, field)
    for left in (True, False):
        assert push(t, 2, left, Mat(6, 4, field)) == Mat(4, 4, field)
        assert push(Mat(0, 3, field), 2, left, _push_operand(rng, 6, 4, field)) == Mat(0, 4, field)
    with pytest.raises(ValueError, match="field mismatch"):
        push(Mat.identity(2, field), 1, True, Mat.identity(2, GF(5)))
    for c in surjection_sources(field):
        eye = Mat.identity(c.dim, field)
        for _ in range(4):
            r = random_mat(rng, rng.randint(1, c.dim + 1), c.dim, field, 0.4)
            assert push(r, c.dim, False, c.delta) == r.kron(eye) @ c.delta
            rho = random_surjection(rng, c)
            assert Induction(rho).comodule.coaction == rho.matrix.kron(eye) @ c.delta


def morphism_variants(rng, rho):
    """rho, its wrong flag, one-entry mutations of its matrix, a zero map, a
    target whose structure tensors are mutated, and for grouplike sources a
    non-surjective inclusion, each with both flags."""
    c, d, r = rho.source, rho.target, rho.matrix
    f = c.field
    variants = [(d, r)]
    for _ in range(3):
        data = dict(r.data)
        key = (rng.randrange(d.dim), rng.randrange(c.dim))
        data[key] = f.add(data.get(key, f.zero()), f.random(rng, nonzero=True))
        variants.append((d, Mat(d.dim, c.dim, f, {k: v for k, v in data.items() if v != 0})))
    variants.append((d, Mat(d.dim, c.dim, f)))
    variants += [(Coalgebra(f, d.dim, delta, eps), r) for delta, eps in mutated_coalgebras(rng, d)]
    if c.name.startswith("grouplike"):
        bigger = grouplike(f, c.dim + 1)
        variants.append((bigger, Mat.from_entries(c.dim + 1, c.dim, f, [(i, i, 1) for i in range(c.dim)])))
    for target, matrix in variants:
        for flag in (True, False):
            yield CoalgebraMorphism(c, target, matrix, surjective=flag)


@pytest.mark.parametrize("field", FIELDS)
def test_check_morphism_matches_kron_oracle(field):
    """The same failure lists as (r (x) r) o Delta_C formed by kron, on
    valid maps, mutations, non-surjective maps, wrong flags and targets that
    are not coalgebras."""
    rng = random.Random(1717)
    seen, passed = set(), 0
    for c in surjection_sources(field):
        for _ in range(3):
            for rho in morphism_variants(rng, random_surjection(rng, c)):
                failures = check_morphism(rho).failures
                assert failures == kron_check_morphism(rho)
                seen.update(failures)
                passed += not failures
    assert seen == {"comultiplication-compatibility", "counit-compatibility", "surjectivity-flag"}
    # every drawn map with its true flag, and the three grouplike inclusions
    assert passed >= 15 + 3


# -- at tower scale -------------------------------------------------------------------


def _tower_cohom_inputs(m_max):
    stage = build_tower(0, 2, m_max).stages[-1]
    b = contra_from_comodule(dual_comodule(restrict_to_kernel(stage, m_max)))
    for expr in ("L0", "L1*L1"):
        yield expr, dual_comodule(restrict_to_kernel(battery_module(2, expr), m_max)), b


def test_cohom_over_kG3_matches_kron_formulas():
    dims = {}
    for expr, v, b in _tower_cohom_inputs(3):
        co = cohom(v, b)
        assert co == difference_coequalizer(*kron_cohom_maps(v, b))
        dims[expr] = co.dim
    assert dims == {"L0": 1, "L1*L1": 2}


@pytest.mark.slow
def test_cohom_over_kG4_dimensions():
    """The scale point: k[G_4] has dimension 4096, and the L1*L1 coequalizer
    has 4194304 columns."""
    dims = {expr: cohom(v, b).dim for expr, v, b in _tower_cohom_inputs(4)}
    assert dims == {"L0": 1, "L1*L1": 2}
