"""Canonical rational scalars against Fraction-only oracles.

Over Q a canonical scalar is an ``int`` when it is integral and a
``Fraction`` with denominator > 1 otherwise.  Operands here mix ints,
non-canonical ``Fraction(k, 1)`` and true fractions; every output of the
products, ``from_entries``, the generic echelon engine and ``FieldSpec``
must equal a dense oracle computed on ``Fraction``s alone, be canonical, and
leave its operands as they were."""

import random
from fractions import Fraction

from contramod.fields import QQ
from contramod.linalg import _EchelonGeneric
from contramod.matrix import Mat, push
from test_linalg import invert


def canonical(v):
    """A canonical rational scalar, zero included."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def assert_canonical_equal(got: dict, want: dict):
    assert got == want
    assert all(v != 0 and canonical(v) for v in got.values())


def mixed_scalar(rng):
    """A nonzero rational as an int, as a Fraction(k, 1), or as a Fraction
    whose denominator may cancel."""
    k = rng.choice([-1, 1]) * rng.randint(1, 9)
    kind = rng.random()
    if kind < 0.4:
        return k
    if kind < 0.6:
        return Fraction(k, 1)
    return Fraction(k, rng.randint(2, 6))


def mixed_mat(rng, rows, cols):
    """A Q matrix holding mixed scalars as drawn, not made canonical."""
    return Mat(rows, cols, QQ, {(i, j): mixed_scalar(rng) for i in range(rows)
                                for j in range(cols) if rng.random() < 0.6})


def snapshot(data: dict):
    return sorted((k, type(v), v) for k, v in data.items())


def frac_dense(m):
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.data.items():
        out[i][j] = Fraction(v)
    return out


def frac_matmul(a, b, inner, cols):
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
            for row in a]


def frac_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def frac_eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def frac_sparse(dense):
    return {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}


def test_products_are_canonical_and_equal_fraction_oracles():
    """``@``, ``kron``, ``push`` and ``apply`` on mixed operands, which they
    leave unchanged."""
    rng = random.Random(4242)
    for _ in range(150):
        n, m, k = (rng.randint(0, 4) for _ in range(3))
        a, b = mixed_mat(rng, n, m), mixed_mat(rng, m, k)
        vec = {j: mixed_scalar(rng) for j in range(m) if rng.random() < 0.6}
        nt, left = rng.randint(0, 3), rng.random() < 0.5
        t = mixed_mat(rng, rng.randint(0, 3), rng.randint(0, 3))
        mm = mixed_mat(rng, nt * t.cols, rng.randint(0, 3))
        before = [snapshot(x) for x in (a.data, b.data, vec, t.data, mm.data)]
        da, db = frac_dense(a), frac_dense(b)
        assert_canonical_equal((a @ b).data, frac_sparse(frac_matmul(da, db, m, k)))
        assert_canonical_equal(a.kron(b).data, frac_sparse(frac_kron(da, db)))
        col = [[Fraction(vec.get(j, 0))] for j in range(m)]
        assert_canonical_equal(a.apply(vec), {i: v for (i, _), v in
                                              frac_sparse(frac_matmul(da, col, m, 1)).items()})
        big = frac_kron(frac_eye(nt), frac_dense(t)) if left else frac_kron(frac_dense(t), frac_eye(nt))
        assert_canonical_equal(push(t, nt, left, mm).data,
                               frac_sparse(frac_matmul(big, frac_dense(mm), nt * t.cols, mm.cols)))
        assert [snapshot(x) for x in (a.data, b.data, vec, t.data, mm.data)] == before


def test_from_entries_is_canonical_and_equals_fraction_sums():
    rng = random.Random(4343)
    strings = ["4/2", "2/4", "-6/3", "3", "-1/5", "0", "7/7"]
    for _ in range(100):
        entries = [(rng.randrange(3), rng.randrange(3),
                    rng.choice(strings) if rng.random() < 0.3 else mixed_scalar(rng))
                   for _ in range(rng.randint(0, 12))]
        # repeated keys, some of them cancelling
        entries += [(i, j, -Fraction(v)) for i, j, v in entries if rng.random() < 0.2]
        want: dict = {}
        for i, j, v in entries:
            want[i, j] = want.get((i, j), Fraction(0)) + Fraction(v)
        assert_canonical_equal(Mat.from_entries(3, 3, QQ, entries).data,
                               {key: v for key, v in want.items() if v})


def frac_rref(rows, ncols):
    """Dense Gauss-Jordan on Fractions: the pivot columns and the nonzero
    rows of the reduced row echelon form."""
    dense = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    pivots, r = [], 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(dense)) if dense[i][col]), None)
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        dense[r] = [v / dense[r][col] for v in dense[r]]
        for i in range(len(dense)):
            if i != r and dense[i][col]:
                c = dense[i][col]
                dense[i] = [x - c * y for x, y in zip(dense[i], dense[r])]
        pivots.append(col)
        r += 1
    return pivots, dense[:r]


def test_engine_rows_and_residuals_are_canonical_and_equal_fraction_oracles():
    """``row_items`` and ``reduce_vector`` of the generic engine over Q,
    before and after back elimination, on rows it must not mutate."""
    rng = random.Random(4444)
    for _ in range(80):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 6)):
            if rows and rng.random() < 0.3:  # a dependent row
                c = mixed_scalar(rng)
                rows.append({j: c * v for j, v in rng.choice(rows).items()})
            else:
                rows.append({j: mixed_scalar(rng) for j in rng.sample(range(ncols), rng.randint(1, ncols))})
        probe = {j: mixed_scalar(rng) for j in rng.sample(range(ncols), rng.randint(1, ncols))}
        before = [snapshot(x) for x in (*rows, probe)]
        pivots, rref = frac_rref(rows, ncols)
        vec = [Fraction(probe.get(j, 0)) for j in range(ncols)]
        for p, row in zip(pivots, rref):
            c = vec[p]
            vec = [x - c * y for x, y in zip(vec, row)]
        residual = {j: v for j, v in enumerate(vec) if v}
        ech = _EchelonGeneric(QQ)
        for row in rows:
            ech.add_row(row)
        assert_canonical_equal(ech.reduce_vector(probe), residual)
        ech.finalize()
        items = ech.row_items()
        assert [p for p, _ in items] == pivots
        for (_, got), want in zip(items, rref):
            assert_canonical_equal(got, {j: v for j, v in enumerate(want) if v})
        assert_canonical_equal(ech.reduce_vector(probe), residual)
        assert [snapshot(x) for x in (*rows, probe)] == before


def test_fieldspec_gives_canonical_rationals():
    """of, parse, add, sub, mul, invert and random over Q, against Fraction
    arithmetic; random replays the Fraction draws it has always made."""
    rng = random.Random(4545)
    assert (type(QQ.zero()), type(QQ.one())) == (int, int)
    for s in ["4/2", "2/4", "-6/3", "-12", "0", "1/1", "-3/9"]:
        assert QQ.parse(s) == Fraction(s) and canonical(QQ.parse(s))
        assert QQ.of(s) == Fraction(s) and canonical(QQ.of(s))
    for _ in range(300):
        x, y = mixed_scalar(rng), mixed_scalar(rng)
        fx, fy = Fraction(x), Fraction(y)
        for got, want in ((QQ.of(x), fx), (QQ.add(x, y), fx + fy), (QQ.sub(x, y), fx - fy),
                          (QQ.mul(x, y), fx * fy), (invert(QQ, x), 1 / fx), (QQ.sub(x, x), 0)):
            assert got == want and canonical(got)
        if type(x) is int:
            assert QQ.parse(x) == x and type(QQ.parse(x)) is int
    drawn, replay = random.Random(46), random.Random(46)
    for _ in range(300):
        nonzero = drawn.random() < 0.5
        replay.random()
        got = QQ.random(drawn, nonzero=nonzero)
        want = Fraction(replay.randint(-3, 3), replay.choice([1, 1, 1, 2]))
        while nonzero and want == 0:
            want = Fraction(replay.randint(-3, 3), replay.choice([1, 1, 1, 2]))
        assert got == want and canonical(got)
    assert drawn.getstate() == replay.getstate()
