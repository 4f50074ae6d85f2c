"""Concrete SL2 instantiation in positive characteristic: normal-form
arithmetic in the coordinate ring, rational modules with polynomial
coactions, Frobenius twists and kernels, the characteristic-2 projective
catalog, the twisted tensor tower, and the character multiplicity oracle.

Normal form: the relation ad = 1 + bc eliminates mixed a/d monomials, so a
monomial is (i, j, k, l) for b^i c^j a^k d^l with k*l = 0.  The r-th
Frobenius-kernel coordinate ring has basis b^i c^j a^k with all exponents
below q = p^r, using a^q = 1 and d = a^{q - 1}(1 + bc); from the reduction
on, such a monomial is the int (i*q + j)*q + k, and :func:`_mul3` is its one
product.  Stages and battery modules reach k[G_m] one way, through the one
tensor step :func:`kernel_masks` on their factors.

Every mod-p sum adds plain ints and is reduced once, by :func:`_mod`, as the
matrix kernels reduce once per output entry.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb, prod
from typing import NamedTuple

from .coalgebra import Coalgebra, Verdict
from .comodule import Comodule, _gf2_masks, dual_comodule
from .fields import GF, Record
from .linalg import Subspace, kernel
from .matrix import Mat

Mono = tuple  # (b_exp, c_exp, a_exp, d_exp), a_exp * d_exp == 0


def _mod(acc: dict, p: int) -> dict:
    """The nonzero residues mod p of an int accumulator."""
    return {k: s for k, v in acc.items() if (s := v % p)}


def _mono_mul(m1: Mono, m2: Mono, p: int) -> dict:
    """Product of two normal-form monomials; a^k d^l pairs reduce through
    (ad)^t = (1 + bc)^t."""
    i = m1[0] + m2[0]
    j = m1[1] + m2[1]
    k = m1[2] + m2[2]
    l = m1[3] + m2[3]
    t = min(k, l)
    if t == 0:
        return {(i, j, k, l): 1}
    out = {}
    for s in range(t + 1):
        c = comb(t, s) % p
        if c:
            out[(i + s, j + s, k - t, l - t)] = c
    return out


class SL2Poly:
    """Element of k[SL2] over F_p in normal form; immutable by convention."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict | None = None):
        self.p = p
        self.terms = {} if terms is None else terms

    @classmethod
    def const(cls, p: int, val: int) -> "SL2Poly":
        val %= p
        return cls(p, {(0, 0, 0, 0): val} if val else {})

    @classmethod
    def gen(cls, p: int, name: str) -> "SL2Poly":
        mono = {"b": (1, 0, 0, 0), "c": (0, 1, 0, 0), "a": (0, 0, 1, 0), "d": (0, 0, 0, 1)}[name]
        return cls(p, {mono: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, SL2Poly) and self.p == other.p and self.terms == other.terms

    def __hash__(self):
        raise TypeError("SL2Poly is not hashable")

    def __add__(self, other: "SL2Poly") -> "SL2Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return SL2Poly(self.p, _mod(terms, self.p))

    def __mul__(self, other: "SL2Poly") -> "SL2Poly":
        p = self.p
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                for m, cr in _mono_mul(m1, m2, p).items():
                    acc[m] = acc.get(m, 0) + c1 * c2 * cr
        return SL2Poly(p, _mod(acc, p))

    def frobenius(self, s: int) -> "SL2Poly":
        """Raise to the p^s power: exponents scale, coefficients are fixed."""
        q = self.p ** s
        return SL2Poly(self.p, {
            (i * q, j * q, k * q, l * q): c for (i, j, k, l), c in self.terms.items()
        })

    def eps(self) -> int:
        """Counit: a, d -> 1 and b, c -> 0."""
        return sum(c for (i, j, _, _), c in self.terms.items() if i == 0 and j == 0) % self.p

    def torus_restrict(self) -> dict:
        """Restrict along a -> z, d -> z^-1, b, c -> 0: weight -> coefficient."""
        out: dict = {}
        for (i, j, k, l), c in self.terms.items():
            if i or j:
                continue
            out[k - l] = out.get(k - l, 0) + c
        return _mod(out, self.p)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j, k, l), c in sorted(self.terms.items()):
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip("bcad", (i, j, k, l)) if e
            ) or "1"
            bits.append(f"{c}*{mono}" if c != 1 or mono == "1" else mono)
        return " + ".join(bits)


def _delta_mono(mono: Mono, p: int) -> dict:
    """Coproduct of a normal-form monomial in the tensor square, via the
    closed binomial expansions of the generator coproducts."""
    i, j, k, l = mono
    acc = {((0, 0, 0, 0), (0, 0, 0, 0)): 1}

    def mul_in(acc, pairs):
        out: dict = {}
        for (x1, y1), c1 in acc.items():
            for (x2, y2), c2 in pairs.items():
                for mx, cx in _mono_mul(x1, x2, p).items():
                    for my, cy in _mono_mul(y1, y2, p).items():
                        out[mx, my] = out.get((mx, my), 0) + c1 * c2 * cx * cy
        return _mod(out, p)

    # binomial expansions of the generator coproducts, each in one shot:
    # (a(x)b + b(x)d)^i, (c(x)a + d(x)c)^j, (a(x)a + b(x)c)^k, (c(x)b + d(x)d)^l
    db = {((i - t, 0, t, 0), (t, 0, 0, i - t)): c
          for t in range(i + 1) if (c := comb(i, t) % p)}
    dc = {((0, u, 0, j - u), (0, j - u, u, 0)): c
          for u in range(j + 1) if (c := comb(j, u) % p)}
    da = {((k - s, 0, s, 0), (0, k - s, s, 0)): c
          for s in range(k + 1) if (c := comb(k, s) % p)}
    dd = {((0, v, 0, l - v), (v, 0, 0, l - v)): c
          for v in range(l + 1) if (c := comb(l, v) % p)}
    for exp, factor in ((i, db), (j, dc), (k, da), (l, dd)):
        if exp:
            acc = mul_in(acc, factor)
    return acc


def delta_poly(poly: SL2Poly) -> dict:
    """Coproduct of a polynomial as a tensor-square dict {(m1, m2): coeff}."""
    p = poly.p
    acc: dict = {}
    for mono, c in poly.terms.items():
        for key, c2 in _delta_mono(mono, p).items():
            acc[key] = acc.get(key, 0) + c * c2
    return _mod(acc, p)


# -- rational modules -------------------------------------------------------------


class RationalComodule(Record):
    """Module with a polynomial coaction v_j -> sum_i v_i (x) a_ij, stored as
    the matrix of coefficients (a_ij); entries must satisfy the
    matrix-coefficient identities, checked by validate()."""

    def __init__(self, p: int, dim: int, entries: dict, name: str = ""):
        self.p = p
        self.dim = dim
        self.entries = entries   # (i, j) -> SL2Poly, nonzero only
        self.name = name

    def entry(self, i: int, j: int) -> SL2Poly:
        return self.entries.get((i, j), SL2Poly(self.p))

    def validate(self) -> Verdict:
        failures = []
        p = self.p
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = delta_poly(self.entry(i, j))
                rhs: dict = {}
                for k in range(self.dim):
                    e1, e2 = self.entries.get((i, k)), self.entries.get((k, j))
                    if e1 is None or e2 is None:
                        continue
                    for m1, c1 in e1.terms.items():
                        for m2, c2 in e2.terms.items():
                            rhs[m1, m2] = rhs.get((m1, m2), 0) + c1 * c2
                if lhs != _mod(rhs, p):
                    failures.append(f"delta({i},{j})")
                want = 1 if i == j else 0
                if self.entry(i, j).eps() != want:
                    failures.append(f"eps({i},{j})")
        return Verdict(failures)

    def character(self) -> dict:
        """Weight multiplicities from the torus restriction of the coaction;
        requires a weight basis (diagonal restricts to single powers and
        off-diagonal entries die on the torus)."""
        ch: dict = {}
        for j in range(self.dim):
            for i in range(self.dim):
                tor = self.entry(i, j).torus_restrict()
                if i == j:
                    if len(tor) != 1 or list(tor.values()) != [1]:
                        raise ValueError(f"basis vector {j} is not a weight vector")
                    w = next(iter(tor))
                    ch[w] = ch.get(w, 0) + 1
                elif tor:
                    raise ValueError(f"off-diagonal entry ({i},{j}) survives the torus")
        return ch

    def __repr__(self):
        return f"RationalComodule({self.name or 'module'}, dim={self.dim}, p={self.p})"


def trivial_rational(p: int) -> RationalComodule:
    return RationalComodule(p, 1, {(0, 0): SL2Poly.const(p, 1)}, name="L0")


def standard_rational(p: int) -> RationalComodule:
    g = {n: SL2Poly.gen(p, n) for n in "abcd"}
    entries = {(0, 0): g["a"], (0, 1): g["b"], (1, 0): g["c"], (1, 1): g["d"]}
    return RationalComodule(p, 2, entries, name="L1")


def frobenius_twist(m: RationalComodule, s: int) -> RationalComodule:
    if s < 0:
        raise ValueError("twist power must be nonnegative")
    entries = {k: poly.frobenius(s) for k, poly in m.entries.items()}
    return RationalComodule(m.p, m.dim, entries, name=f"{m.name}^Fr{s}" if s else m.name)


def tensor_rational(m: RationalComodule, n: RationalComodule) -> RationalComodule:
    if m.p != n.p:
        raise ValueError("characteristic mismatch")
    entries = {}
    for (i, j), e1 in m.entries.items():
        for (i2, j2), e2 in n.entries.items():
            prod = e1 * e2
            if not prod.is_zero():
                entries[(i * n.dim + i2, j * n.dim + j2)] = prod
    return RationalComodule(m.p, m.dim * n.dim, entries, name=f"{m.name}*{n.name}")


def p_adic_digits(lam: int, p: int) -> list:
    if lam < 0:
        raise ValueError("weight must be nonnegative")
    if lam == 0:
        return [0]
    digits = []
    while lam:
        digits.append(lam % p)
        lam //= p
    return digits


def simple_module(p: int, mu: int) -> RationalComodule:
    """Twisted tensor product of restricted simples along the p-adic digits."""
    if p != 2:
        raise NotImplementedError("module catalog is shipped for p = 2 only")
    factors = [frobenius_twist(standard_rational(p) if digit else trivial_rational(p), t)
               for t, digit in enumerate(p_adic_digits(mu, p))]
    return reduce(tensor_rational, factors).replace(name=f"L{mu}")


def catalog_modules(p: int = 2) -> dict:
    """The characteristic-2 catalog: the simples L0-L3 from
    :func:`simple_module`, the projective G-structures, and the fixed
    projection q, built once per p and returned as a fresh dict."""
    return dict(_catalog(p))


@lru_cache(maxsize=None)
def _catalog(p: int) -> dict:
    if p != 2:
        raise NotImplementedError("catalog is shipped for p = 2 only")
    out = {f"L{mu}": simple_module(p, mu) for mu in range(4)}
    l1 = out["L1"]
    out["P0"] = tensor_rational(l1, l1).replace(name="P0")
    out["P1"] = RationalComodule(p, 2, dict(l1.entries), name="P1")
    out["q"] = Mat(1, 4, GF(p), {(0, 1): 1, (0, 2): 1})
    return out


def is_rational_map(t: Mat, m: RationalComodule, n: RationalComodule) -> bool:
    """Exact polynomial identity: coaction_N o T = (id (x) T) o coaction_M,
    as one accumulator over (l2, j, monomial) that must vanish mod p."""
    if m.p != n.p or t.field != GF(m.p):
        raise ValueError("characteristic mismatch")
    if t.rows != n.dim or t.cols != m.dim:
        return False
    acc: dict = {}
    for (l, i), coeff in t.data.items():
        # T[l, i] meets column l of N's coaction and row i of M's
        for l2 in range(n.dim):
            for mono, c in n.entry(l2, l).terms.items():
                acc[l2, i, mono] = acc.get((l2, i, mono), 0) + c * coeff
        for j in range(m.dim):
            for mono, c in m.entry(i, j).terms.items():
                acc[l, j, mono] = acc.get((l, j, mono), 0) - c * coeff
    return not _mod(acc, m.p)


def hom_rational(m: RationalComodule, n: RationalComodule) -> Subspace:
    """All module maps M -> N, solved by equating normal-form coefficients.

    Unknowns are flattened as M* (x) N, matching the comodule hom convention.
    """
    if m.p != n.p:
        raise ValueError("characteristic mismatch")
    rows: dict = {}
    for (l2, l), poly in n.entries.items():
        # T[l, j] contributes poly to equation (l2, j)
        for j in range(m.dim):
            var = j * n.dim + l
            for mono, c in poly.terms.items():
                cur = rows.setdefault((l2, j, mono), {})
                cur[var] = cur.get(var, 0) + c
    for (i, j), poly in m.entries.items():
        # -T[l2, i] contributes for every l2
        for l2 in range(n.dim):
            var = i * n.dim + l2
            for mono, c in poly.terms.items():
                cur = rows.setdefault((l2, j, mono), {})
                cur[var] = cur.get(var, 0) - c
    data = {(ridx, var): c for ridx, row in enumerate(rows.values())
            for var, c in _mod(row, m.p).items()}
    return kernel(Mat(len(rows), m.dim * n.dim, GF(m.p), data))


# -- Frobenius kernels ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _reduce_mono_kernel(mono: Mono, p: int, q: int) -> tuple:
    """Image of a normal-form monomial in the kernel basis, as ((x, coeff), ..)
    with x = (i*q + j)*q + k for b^i c^j a^k.  Memoised: a tower stage repeats
    a few thousand monomials across some hundred thousand terms."""
    i, j, k, l = mono
    k2 = (k + (q - 1) * l) % q
    out = []
    for s in range(min(l, q - 1) + 1):
        c = comb(l, s) % p
        if c and i + s < q and j + s < q:
            out.append((((i + s) * q + j + s) * q + k2, c))
    return tuple(out)


def reduce_poly_to_kernel(poly: SL2Poly, r: int) -> dict:
    """Coefficients of a polynomial on the k[G_r] basis, as {x: coeff} with
    x = (i*q + j)*q + k for b^i c^j a^k, q = p^r."""
    p = poly.p
    q = p ** r
    out: dict = {}
    for mono, c in poly.terms.items():
        for x, c2 in _reduce_mono_kernel(mono, p, q):
            out[x] = out.get(x, 0) + c * c2
    return _mod(out, p)


def _mul3(x: int, y: int, q: int):
    """Product of monomials (i*q + j)*q + k of k[G_r], q = p^r, for b^i c^j a^k:
    one monomial, or None where b^q = 0 or c^q = 0 kills it; a^q = 1."""
    qq = q * q
    if x // qq + y // qq >= q or x // q % q + y // q % q >= q:
        return None
    return x + y - q if x % q + y % q >= q else x + y


def _kernel_delta(p: int, r: int) -> Mat:
    """Comultiplication of k[G_r], built generator by generator in the
    truncated tensor ring where monomial products are single terms; the
    generator coproducts are those of k[SL2], reduced to the kernel basis.
    Each column's keys are distinct and its residues canonical, so the
    entries go straight into the matrix."""
    q = p ** r
    dim = q * q * q

    def tmul(acc, factor):
        out: dict = {}
        for (x1, y1), c1 in acc.items():
            for (x2, y2), c2 in factor.items():
                if (mx := _mul3(x1, x2, q)) is not None and (my := _mul3(y1, y2, q)) is not None:
                    out[mx, my] = out.get((mx, my), 0) + c1 * c2
        return _mod(out, p)

    def reduced_delta(gen):
        out: dict = {}
        for (x, y), c in _delta_mono(gen, p).items():
            for mx, cx in _reduce_mono_kernel(x, p, q):
                for my, cy in _reduce_mono_kernel(y, p, q):
                    out[mx, my] = out.get((mx, my), 0) + c * cx * cy
        return _mod(out, p)

    db, dc, da = (reduced_delta(gen) for gen in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    data = {}
    base_i = {(0, 0): 1}
    for i in range(q):
        if i:
            base_i = tmul(base_i, db)
        base_j = base_i
        for j in range(q):
            if j:
                base_j = tmul(base_j, dc)
            cur = base_j
            for k in range(q):
                if k:
                    cur = tmul(cur, da)
                col = (i * q + j) * q + k
                for (m1, m2), c in cur.items():
                    data[m1 * dim + m2, col] = c
    return Mat(dim * dim, dim, GF(p), data)


@lru_cache(maxsize=None)
def frob_kernel_coalgebra(p: int, r: int) -> Coalgebra:
    """The coordinate ring of the r-th Frobenius kernel as a coalgebra of
    dimension p^(3r); the comultiplication matrix is built lazily."""
    if r < 1:
        raise ValueError("r must be at least 1")
    q = p ** r
    dim = q * q * q
    field = GF(p)
    epsilon = Mat(1, dim, field, {(0, k): 1 for k in range(q)})  # b^0 c^0 a^k
    return Coalgebra(
        field, dim, epsilon=epsilon, name=f"k[G_{r}]",
        delta_factory=lambda: _kernel_delta(p, r),
    )


def restrict_to_kernel(m: RationalComodule, r: int) -> Comodule:
    """Right comodule over k[G_r] by reducing every coaction entry.

    The polynomial coaction v_j -> sum_i v_i (x) a_ij lands in V (x) k[G_r]
    after reduction; left-comodule consumers take the dual."""
    c = frob_kernel_coalgebra(m.p, r)
    md = m.dim
    # each (i, j) owns the stored rows x*dim + i of column j, and the reduced
    # coefficients are nonzero residues mod p, so they go straight in
    data = {}
    for (i, j), poly in m.entries.items():
        for x, coeff in reduce_poly_to_kernel(poly, r).items():
            data[(x * md + i, j)] = coeff
    coact = Mat(m.dim * c.dim, m.dim, c.field, data)
    return Comodule(c, "right", m.dim, coact, name=f"{m.name}|G{r}")


# -- characters and multiplicities ------------------------------------------------------


def char_product(c1: dict, c2: dict) -> dict:
    out: dict = {}
    for w1, m1 in c1.items():
        for w2, m2 in c2.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + m1 * m2
    return {w: m for w, m in out.items() if m}


def restricted_simple_character(p: int, d: int) -> dict:
    """For 0 <= d < p the simple of highest weight d has the full string of
    weights d, d-2, .., -d."""
    if not 0 <= d < p:
        raise ValueError("digit out of range")
    return {d - 2 * t: 1 for t in range(d + 1)}


def simple_character(p: int, mu: int) -> dict:
    ch = {0: 1}
    for t, digit in enumerate(p_adic_digits(mu, p)):
        scaled = {w * p ** t: m for w, m in restricted_simple_character(p, digit).items()}
        ch = char_product(ch, scaled)
    return ch


def character_decomposition(p: int, ch: dict) -> dict:
    """Greedy expansion in simple characters from the highest weight down;
    raises on any negative coefficient (inconsistent character)."""
    remaining = {w: m for w, m in ch.items() if m}
    mults: dict = {}
    while remaining:
        w = max(remaining)
        m = remaining[w]
        if w < 0 or m < 0:
            raise ValueError(f"inconsistent character at weight {w}: {m}")
        mults[w] = mults.get(w, 0) + m
        for w2, m2 in simple_character(p, w).items():
            s = remaining.get(w2, 0) - m * m2
            if s:
                remaining[w2] = s
            else:
                remaining.pop(w2, None)
    return mults


def f_multiplicity(lam: int, v: RationalComodule) -> int:
    """Composition multiplicity of the simple of highest weight lam in V."""
    return character_decomposition(v.p, v.character()).get(lam, 0)


# -- the twisted tensor tower --------------------------------------------------------


def tower_base(lam: int, p: int, m_max: int) -> int:
    """The first stage index s + 1 of the tower of lam, where s indexes the
    top p-adic digit; raises unless the tower reaches stage m_max."""
    if p != 2:
        raise NotImplementedError("tower catalog is shipped for p = 2 only")
    s = len(p_adic_digits(lam, p)) - 1
    if m_max <= s:
        raise ValueError(f"m_max must exceed the top digit index {s}")
    return s + 1


def _stage_factors(lam: int, p: int, m: int) -> list:
    """The twisted factors whose tensor product, in order, is P(lam, m): the
    projective P_d twisted t times for the p-adic digit d of lam at place t,
    then P0 twisted t times for t = s+1 .. m-1."""
    m0 = tower_base(lam, p, m)
    cat = catalog_modules(p)
    proj = {0: cat["P0"], 1: cat["P1"]}
    digits = p_adic_digits(lam, p)
    return ([frobenius_twist(proj[d], t) for t, d in enumerate(digits)]
            + [frobenius_twist(cat["P0"], t) for t in range(m0, m)])


def stage_dim(lam: int, p: int, m: int) -> int:
    """Dimension of P(lam, m) from its factors, without tensoring anything."""
    return prod(f.dim for f in _stage_factors(lam, p, m))


def kernel_masks(factors: list, m: int) -> tuple[int, dict]:
    """The dual of the tensor product of the rational modules ``factors``, in
    order, restricted to G_m over F2, as (dim, blocks): blocks[z][j] has
    bit i for each entry (z*dim + i, j) of the dual, the theta masks of its
    contramodule in the layout of :func:`comodule._gf2_masks`.  No matrix of
    the product is formed: the masks are tensored from those of the
    restricted factors' duals, in k[G_m], which is commutative, so the
    product of the duals is the dual of the product.

    For M of dimension md and N of dimension nd, out = md*nd, entry
    ((x*y)*out + i*nd + i2, j*nd + j2) of M (x) N adds the products of M's
    entries (x*md + i, j) and N's (y*nd + i2, j2), where x*y is one
    truncated monomial or 0 (:func:`_mul3`).  So M's mask (x, j), spread to
    bit i*nd for its bit i, times N's mask (y, j2) is the image in block
    x*y, column j*nd + j2: the bits i*nd + i2 are distinct, so the integer
    product carries nothing.  Images in one column of one block add mod 2.
    Each step groups the pairs (x, y) by their product z and writes one
    block at a time, without its cancelled columns or an empty block.

    Few mask values occur (1533 among P(0,4)'s 30157 masks), and the result
    keeps one int object per value and one per column index.  Each step
    forms the product of each distinct spread left value with each right
    value once; these are distinct, since such a product determines both
    factors.  A column with one image stores its product, and only a sum of
    images is looked up among the step's values, which start as the
    products."""
    q = 2 ** m
    dim, blocks = 1, {0: {0: 1}}  # the trivial comodule, e -> 1 (x) e
    for f in factors:
        nd, pad = f.dim, "0" * (f.dim - 1)
        right = _gf2_masks(dual_comodule(restrict_to_kernel(f, m)))
        us = list({u for block in right.values() for u in block.values()})
        slot = {u: s for s, u in enumerate(us)}
        products: dict = {}   # left value t -> row, row[s] = t spread times us[s]
        for t in {t for block in blocks.values() for t in block.values()}:
            spread = int(pad.join(bin(t)[2:]), 2)
            products[t] = [spread * u for u in us]
        left = [(x, [(j * nd, products[t]) for j, t in block.items()]) for x, block in blocks.items()]
        values = {p: p for row in products.values() for p in row}
        share = values.setdefault
        dim, blocks = dim * nd, {}
        column = list(range(dim))   # one int object per column index, shared by every block
        pairs: dict = {}   # z -> (images of x, uses of y as (j2, slot)) for the pairs x*y = z
        for y, block in right.items():
            uses = [(j2, slot[u]) for j2, u in block.items()]
            for x, images in left:
                if (z := _mul3(x, y, q)) is not None:
                    pairs.setdefault(z, []).append((images, uses))
        while pairs:   # popped, so each group is freed once its block is written
            z, zpairs = pairs.popitem()
            acc: dict = {}
            get = acc.get
            sums = []   # the columns that received a second image
            for images, uses in zpairs:
                for j2, s in uses:
                    for col, row in images:
                        key = col + j2
                        old = get(key)
                        if old is None:
                            acc[column[key]] = row[s]
                        else:
                            acc[key] = old ^ row[s]
                            sums.append(key)
            for key in sums:
                t = get(key)
                if t:
                    acc[key] = share(t, t)
                elif t == 0:
                    del acc[key]
            if acc:
                blocks[z] = acc
    return dim, blocks


def kernel_stage_masks(lam: int, m: int) -> tuple[int, dict]:
    """:func:`kernel_masks` of P(lam, m), from its twisted factors."""
    return kernel_masks(_stage_factors(lam, 2, m), m)


class Tower(NamedTuple):
    stages: list  # P(lam, m) for m = m0 .. m_max
    m0: int


def build_tower(lam: int, p: int = 2, m_max: int = 3) -> Tower:
    """Stages P_{lam, m} for m = s+1 .. m_max, where s indexes the top p-adic
    digit: each stage tensors one more twist of P0 into the one before."""
    m0 = tower_base(lam, p, m_max)
    factors = _stage_factors(lam, p, m_max)
    products = accumulate(factors[m0:], tensor_rational, initial=reduce(tensor_rational, factors[:m0]))
    stages = [stage.replace(name=f"P({lam},{m})") for m, stage in enumerate(products, start=m0)]
    return Tower(stages, m0)


def _battery_factors(p: int, expr: str) -> list:
    cat = catalog_modules(p)
    factors = [f.strip() for f in expr.split("*")]
    for f in factors:
        if f not in cat or f == "q":
            raise KeyError(f"unknown battery module {f!r}")
    return [cat[f] for f in factors]


def battery_dim(p: int, expr: str) -> int:
    """Dimension of a battery expression from its factors' catalog
    dimensions, without tensoring anything.  Taken as a product of powers:
    a running product over a million factors would take seconds."""
    powers = Counter(m.dim for m in _battery_factors(p, expr))
    return prod(d ** k for d, k in powers.items())


def battery_top_weight(p: int, expr: str) -> int:
    """Largest absolute weight of a battery expression, from its factors'
    characters without tensoring anything: weights add under tensor
    products, so the product's top and bottom weights are the sums of the
    factors'."""
    factors = _battery_factors(p, expr)
    chars = [m.character() for m in factors]
    return max(sum(max(c) for c in chars), -sum(min(c) for c in chars))


def battery_module(p: int, expr: str) -> RationalComodule:
    """Parse battery expressions like "L1*L1" or "L3" into catalog tensors."""
    return reduce(tensor_rational, _battery_factors(p, expr)).replace(name=expr)
