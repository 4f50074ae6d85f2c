"""Concrete SL2 instantiation in positive characteristic: normal-form
arithmetic in the coordinate ring, rational modules with polynomial
coactions, Frobenius twists and kernels, the characteristic-2 projective
catalog, the twisted tensor tower, and the character multiplicity oracle.

Normal form: the relation ad = 1 + bc eliminates mixed a/d monomials, so a
monomial is (i, j, k, l) for b^i c^j a^k d^l with k*l = 0.  The r-th
Frobenius-kernel coordinate ring has basis b^i c^j a^k with all exponents
below p^r, using a^{p^r} = 1 and d = a^{p^r - 1}(1 + bc).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import comb, prod

from .coalgebra import Coalgebra, Verdict
from .comodule import Comodule, dual_comodule
from .fields import GF
from .linalg import Subspace, kernel
from .matrix import Mat, kron_identity
from .towers import InverseSystem

Mono = tuple  # (b_exp, c_exp, a_exp, d_exp), a_exp * d_exp == 0


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
        p = self.p
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = (terms.get(m, 0) + c) % p
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return SL2Poly(p, terms)

    def __mul__(self, other: "SL2Poly") -> "SL2Poly":
        p = self.p
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2 % p
                if not c12:
                    continue
                for m, cr in _mono_mul(m1, m2, p).items():
                    s = (acc.get(m, 0) + c12 * cr) % p
                    if s:
                        acc[m] = s
                    else:
                        acc.pop(m, None)
        return SL2Poly(p, acc)

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
            w = k - l
            s = (out.get(w, 0) + c) % self.p
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return out

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
                c12 = c1 * c2 % p
                if not c12:
                    continue
                for mx, cx in _mono_mul(x1, x2, p).items():
                    for my, cy in _mono_mul(y1, y2, p).items():
                        key = (mx, my)
                        s = (out.get(key, 0) + c12 * cx * cy) % p
                        if s:
                            out[key] = s
                        else:
                            out.pop(key, None)
        return out

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
            s = (acc.get(key, 0) + c * c2) % p
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return acc


# -- rational modules -------------------------------------------------------------


@dataclass
class RationalComodule:
    """Module with a polynomial coaction v_j -> sum_i v_i (x) a_ij, stored as
    the matrix of coefficients (a_ij); entries must satisfy the
    matrix-coefficient identities, checked by validate()."""

    p: int
    dim: int
    entries: dict   # (i, j) -> SL2Poly, nonzero only
    name: str = ""

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
                            key = (m1, m2)
                            s = (rhs.get(key, 0) + c1 * c2) % p
                            if s:
                                rhs[key] = s
                            else:
                                rhs.pop(key, None)
                if lhs != rhs:
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
    out = None
    for t, digit in enumerate(p_adic_digits(mu, p)):
        factor = trivial_rational(p) if digit == 0 else standard_rational(p)
        factor = frobenius_twist(factor, t)
        out = factor if out is None else tensor_rational(out, factor)
    out.name = f"L{mu}"
    return out


def catalog_modules(p: int = 2) -> dict:
    """The characteristic-2 catalog: the simples L0-L3 from
    :func:`simple_module`, the projective G-structures, and the fixed
    projection q."""
    if p != 2:
        raise NotImplementedError("catalog is shipped for p = 2 only")
    out = {f"L{mu}": simple_module(p, mu) for mu in range(4)}
    l1 = out["L1"]
    out["P0"] = replace(tensor_rational(l1, l1), name="P0")
    out["P1"] = RationalComodule(p, 2, dict(l1.entries), name="P1")
    out["q"] = Mat.from_entries(1, 4, GF(p), [(0, 1, 1), (0, 2, 1)])
    return out


def is_rational_map(t: Mat, m: RationalComodule, n: RationalComodule) -> bool:
    """Exact polynomial identity: coaction_N o T = (id (x) T) o coaction_M."""
    p = m.p
    if t.rows != n.dim or t.cols != m.dim:
        return False
    for l2 in range(n.dim):
        for j in range(m.dim):
            lhs = SL2Poly(p)
            for l in range(n.dim):
                coeff = t[l, j]
                if coeff != 0:
                    lhs = lhs + n.entry(l2, l) * SL2Poly.const(p, int(coeff))
            rhs = SL2Poly(p)
            for i in range(m.dim):
                coeff = t[l2, i]
                if coeff != 0:
                    rhs = rhs + m.entry(i, j) * SL2Poly.const(p, int(coeff))
            if lhs != rhs:
                return False
    return True


def hom_rational(m: RationalComodule, n: RationalComodule) -> Subspace:
    """All module maps M -> N, solved by equating normal-form coefficients.

    Unknowns are flattened as M* (x) N, matching the comodule hom convention.
    """
    if m.p != n.p:
        raise ValueError("characteristic mismatch")
    field = GF(m.p)
    nvars = m.dim * n.dim
    rows: dict = {}

    for (l2, l), poly in n.entries.items():
        # T[l, j] contributes poly to equation (l2, j)
        for j in range(m.dim):
            var = j * n.dim + l
            for mono, c in poly.terms.items():
                cur = rows.setdefault((l2, j, mono), {})
                cur[var] = (cur.get(var, 0) + c) % m.p
    for (i, j), poly in m.entries.items():
        # -T[l2, i] contributes for every l2
        for l2 in range(n.dim):
            var = i * n.dim + l2
            for mono, c in poly.terms.items():
                cur = rows.setdefault((l2, j, mono), {})
                cur[var] = (cur.get(var, 0) - c) % m.p
    entries = []
    for ridx, row in enumerate(rows.values()):
        for var, c in row.items():
            if c:
                entries.append((ridx, var, c))
    big = Mat.from_entries(len(rows), nvars, field, entries)
    return kernel(big)


# -- Frobenius kernels ---------------------------------------------------------------


def _kernel_index(mono3, q: int) -> int:
    i, j, k = mono3
    return (i * q + j) * q + k


@lru_cache(maxsize=None)
def _reduce_mono_kernel(mono: Mono, p: int, q: int) -> tuple:
    """Image of a normal-form monomial in the kernel basis {b^i c^j a^k}, as
    ((mono3, coeff), ..).  Memoised: the entries of a tower stage repeat a
    few thousand monomials across some hundred thousand terms."""
    i, j, k, l = mono
    if l == 0:
        return (((i, j, k % q), 1),) if i < q and j < q else ()
    k2 = (k + (q - 1) * l) % q
    out = []
    for s in range(min(l, q - 1) + 1):
        c = comb(l, s) % p
        if c and i + s < q and j + s < q:
            out.append(((i + s, j + s, k2), c))
    return tuple(out)


def reduce_poly_to_kernel(poly: SL2Poly, r: int) -> dict:
    """Coefficients of a polynomial on the k[G_r] basis, as {mono3: coeff}."""
    p = poly.p
    q = p ** r
    out: dict = {}
    for mono, c in poly.terms.items():
        for m3, c2 in _reduce_mono_kernel(mono, p, q):
            s = (out.get(m3, 0) + c * c2) % p
            if s:
                out[m3] = s
            else:
                out.pop(m3, None)
    return out


def _mul3(m1, m2, q: int):
    """Product of two monomials b^i c^j a^k of k[G_r], q = p^r: one monomial,
    or None where b^q = 0 or c^q = 0 kills it; a^q = 1."""
    i = m1[0] + m2[0]
    j = m1[1] + m2[1]
    if i >= q or j >= q:
        return None
    return (i, j, (m1[2] + m2[2]) % q)


def _kernel_delta_factory(p: int, r: int):
    """Comultiplication of k[G_r], built generator by generator in the
    truncated tensor ring where monomial products are single terms; the
    generator coproducts are those of k[SL2], reduced to the kernel basis."""
    q = p ** r
    dim = q * q * q
    field = GF(p)

    def tmul(acc, factor):
        out: dict = {}
        for (x1, y1), c1 in acc.items():
            for (x2, y2), c2 in factor.items():
                mx = _mul3(x1, x2, q)
                if mx is None:
                    continue
                my = _mul3(y1, y2, q)
                if my is None:
                    continue
                key = (mx, my)
                s = (out.get(key, 0) + c1 * c2) % p
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def reduced_delta(gen):
        out: dict = {}
        for (x, y), c in _delta_mono(gen, p).items():
            for mx, cx in _reduce_mono_kernel(x, p, q):
                for my, cy in _reduce_mono_kernel(y, p, q):
                    out[mx, my] = (out.get((mx, my), 0) + c * cx * cy) % p
        return {key: c for key, c in out.items() if c}

    e = (0, 0, 0)
    unit = {(e, e): 1}
    db, dc, da = (reduced_delta(gen) for gen in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))

    def build():
        entries = []
        base_i = unit
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
                    col = _kernel_index((i, j, k), q)
                    for (m1, m2), c in cur.items():
                        entries.append((_kernel_index(m1, q) * dim + _kernel_index(m2, q), col, c))
        return Mat.from_entries(dim * dim, dim, field, entries)

    return build


@lru_cache(maxsize=None)
def frob_kernel_coalgebra(p: int, r: int) -> Coalgebra:
    """The coordinate ring of the r-th Frobenius kernel as a coalgebra of
    dimension p^(3r); the comultiplication matrix is built lazily."""
    if r < 1:
        raise ValueError("r must be at least 1")
    q = p ** r
    dim = q * q * q
    field = GF(p)
    eps_entries = [(0, _kernel_index((0, 0, k), q), 1) for k in range(q)]
    epsilon = Mat.from_entries(1, dim, field, eps_entries)
    return Coalgebra(
        field, dim, epsilon=epsilon, name=f"k[G_{r}]",
        delta_factory=_kernel_delta_factory(p, r),
    )


def restrict_to_kernel(m: RationalComodule, r: int) -> Comodule:
    """Right comodule over k[G_r] by reducing every coaction entry.

    The polynomial coaction v_j -> sum_i v_i (x) a_ij lands in V (x) k[G_r]
    after reduction; left-comodule consumers take the dual."""
    c = frob_kernel_coalgebra(m.p, r)
    q, md = m.p ** r, m.dim
    # each (i, j) owns the stored rows x*dim + i of column j, and the reduced
    # coefficients are nonzero residues mod p, so they go straight in
    data = {}
    for (i, j), poly in m.entries.items():
        for mono3, coeff in reduce_poly_to_kernel(poly, r).items():
            data[(_kernel_index(mono3, q) * md + i, j)] = coeff
    coact = Mat(m.dim * c.dim, m.dim, c.field, data)
    return Comodule(c, "right", m.dim, coact, name=f"{m.name}|G{r}")


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


def dual_kernel_stage(lam: int, p: int, m: int) -> Comodule:
    """The dual of P(lam, m) restricted to G_m, a left comodule equal entry
    for entry to the dual of the restricted stage of :func:`build_tower`:
    each twisted factor is restricted and dualised, and the duals are
    tensored in k[G_m], so no k[SL2] product is formed and the stage itself
    is never reindexed."""
    factors = [dual_comodule(restrict_to_kernel(f, m)) for f in _stage_factors(lam, p, m)]
    return replace(reduce(tensor_kernel, factors), name=f"P({lam},{m})|G{m}*")


def build_tower(lam: int, p: int = 2, m_max: int = 3) -> InverseSystem:
    """Stages P_{lam, m} for m = s+1 .. m_max, where s indexes the top p-adic
    digit; transitions tensor the fixed projection q into the top twist."""
    m0 = tower_base(lam, p, m_max)
    factors = _stage_factors(lam, p, m_max)
    stage = reduce(tensor_rational, factors[:m0])
    stage.name = f"P({lam},{m0})"
    stages = [stage]
    transitions = []
    proj = catalog_modules(p)["q"]
    for m, top in enumerate(factors[m0:], start=m0 + 1):
        prev = stages[-1]
        nxt = tensor_rational(prev, top)
        nxt.name = f"P({lam},{m})"
        stages.append(nxt)
        transitions.append(kron_identity(proj, prev.dim, left=True))
    return InverseSystem(stages, transitions, m0=m0)


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
    out = None
    for m in _battery_factors(p, expr):
        out = m if out is None else tensor_rational(out, m)
    out.name = expr
    return out
