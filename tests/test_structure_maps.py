"""The structure maps written by index arithmetic against their Kronecker
product formulas, and the column-by-column coequalizer against the quotient
by the image of f - g.  The oracles live here only."""

import random

import pytest

from contramod.coalgebra import divided_power_dual, grouplike, matrix_coalgebra
from contramod.comodule import dual_comodule
from contramod.contramodule import (
    _contratensor_maps, _dual_mult, cohom, cohom_maps, contra_from_comodule, contratensor,
)
from contramod.fields import GF2, GF3, QQ
from contramod.functors import build_f_g, comodule_along, induce
from contramod.linalg import coequalizer, image, quotient_by_image
from contramod.matrix import Mat, kron, swap_mat
from contramod.randomgen import random_comodule, random_contramodule, random_surjection
from contramod.sl2 import battery_module, build_tower, restrict_to_kernel

FIELDS = [QQ, GF2, GF3]
PAIRS_PER_COALGEBRA = 15


def small_coalgebras(field):
    return [grouplike(field, 3), matrix_coalgebra(field, 2), divided_power_dual(field, 3)]


# -- oracles ---------------------------------------------------------------------


def kron_cohom_maps(m, b):
    f, n = m.field, m.coalgebra.dim
    eye_b = Mat.identity(b.dim, f)
    f_map = kron(m.coaction.transpose(), eye_b)
    g_map = kron(Mat.identity(m.dim, f), b.theta) @ kron(swap_mat(f, n, m.dim), eye_b)
    return f_map, g_map


def kron_dual_mult(c):
    return c.delta.transpose() @ swap_mat(c.field, c.dim, c.dim)


def kron_contratensor_maps(m, b):
    f, n = m.field, m.coalgebra.dim
    ev = Mat(1, n * n, f, {(0, c * n + c): f.one() for c in range(n)})
    map1 = kron(Mat.identity(m.dim, f), b.theta)
    map2 = kron(kron(Mat.identity(m.dim, f), ev), Mat.identity(b.dim, f)) @ kron(
        m.coaction, Mat.identity(n * b.dim, f)
    )
    return map1, map2


def difference_coequalizer(f, g):
    return quotient_by_image(image(f - g))


def random_pairs(field, side, seed):
    rng = random.Random(seed)
    for c in small_coalgebras(field):
        for _ in range(PAIRS_PER_COALGEBRA):
            yield random_comodule(rng, c, side=side), random_contramodule(rng, c)


# -- the maps ---------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_cohom_maps_match_kron_formulas(field):
    for m, b in random_pairs(field, "left", 101):
        f_map, g_map = cohom_maps(m, b)
        assert (f_map, g_map) == kron_cohom_maps(m, b)
        assert cohom(m, b) == difference_coequalizer(f_map, g_map)


@pytest.mark.parametrize("field", FIELDS)
def test_contratensor_maps_match_kron_formulas(field):
    for m, b in random_pairs(field, "right", 202):
        maps = _contratensor_maps(m, b)
        assert maps == kron_contratensor_maps(m, b)
        assert contratensor(m, b) == difference_coequalizer(*maps)


@pytest.mark.parametrize("field", FIELDS)
def test_dual_mult_matches_swap_formula(field):
    for c in small_coalgebras(field) + [grouplike(field, 1)]:
        assert _dual_mult(c) == kron_dual_mult(c)


@pytest.mark.parametrize("field", FIELDS)
def test_induce_matches_kron_formulas(field):
    rng = random.Random(303)
    for c in small_coalgebras(field):
        for _ in range(3):
            rho = random_surjection(rng, c)
            w = random_contramodule(rng, rho.target)
            f_map, g_map = kron_cohom_maps(comodule_along(rho), w)
            assert build_f_g(rho, w) == (f_map, g_map)
            res = induce(rho, w)
            oracle = difference_coequalizer(f_map, g_map)
            assert res.presentation == oracle.quotient_map
            assert res.section == oracle.section
            assert res.relations == oracle.image_subspace
            f_new, g_new = build_f_g(rho, w)
            assert f_new - g_new == f_map - g_map


# -- the coequalizer ----------------------------------------------------------------


def _random_mat(rng, rows, cols, field, density):
    entries = [(i, j, field.random(rng)) for i in range(rows) for j in range(cols)
               if rng.random() < density]
    return Mat.from_entries(rows, cols, field, entries)


@pytest.mark.parametrize("field", FIELDS)
def test_coequalizer_matches_image_of_difference(field):
    rng = random.Random(404)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        f = _random_mat(rng, rows, cols, field, rng.choice([0.1, 0.3, 0.6]))
        g = _random_mat(rng, rows, cols, field, rng.choice([0.1, 0.3, 0.6]))
        # share some entries so that whole columns of f - g cancel
        shared = {k: v for k, v in f.data.items() if rng.random() < 0.5}
        g = Mat(rows, cols, field, {**g.data, **shared})
        assert coequalizer(f, g) == difference_coequalizer(f, g)
        assert coequalizer(f, f).dim == rows


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
