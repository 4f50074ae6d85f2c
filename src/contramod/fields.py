"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain Python objects.  Over the rationals a canonical scalar is
an ``int`` when it is integral and a ``fractions.Fraction`` with denominator
> 1 otherwise; over a prime field it is a representative ``0..p-1``.  A
:class:`FieldSpec` coerces, parses and formats them and does scalar
arithmetic.  The hot kernels (elimination in :mod:`linalg`, products in
:mod:`matrix`, the axiom checkers in :mod:`comodule` and :mod:`coalgebra`)
work on Python ints instead, the kernels handing back canonical scalars;
there is no floating point anywhere.  A serialized integer such as ``"-12"``
is parsed as an int, without a ``Fraction``.  Integral rationals being ints,
the kernels read most rational operands as they are, with no conversion.

:class:`Record`, the base of the package's record classes, lives here, in
the one module every layer imports.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the first 13 primes as bases is proven deterministic
# below _MR_LIMIT, about 3.3e24 (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not certified above {_MR_LIMIT}")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(x):
    """The canonical rational scalar of an int or a Fraction."""
    if type(x) is int:
        return x
    # Fraction's numerator and denominator are properties, a Python call
    # each; the slots behind them are read directly
    return x._numerator if x._denominator == 1 else x


class FieldSpec:
    """Ground field: characteristic 0 means the rationals, p means F_p.
    Immutable, equal by characteristic, and hashable."""

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        object.__setattr__(self, "characteristic", characteristic)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FieldSpec is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.characteristic == other.characteristic if type(other) is FieldSpec else NotImplemented

    def __hash__(self):
        return hash(self.characteristic)

    def __repr__(self):
        return f"FieldSpec(characteristic={self.characteristic})"

    # -- canonical scalars ------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, x):
        """Coerce an int, Fraction or string like ``"-3"``/``"2/5"``."""
        if isinstance(x, str):
            x = Fraction(x)
        if self.characteristic == 0:
            return _rational(x if type(x) is int else Fraction(x))
        p = self.characteristic
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return (x.numerator % p) * pow(den, -1, p) % p
        return int(x) % p

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        s = a + b
        return _rational(s) if self.characteristic == 0 else s % self.characteristic

    def sub(self, a, b):
        s = a - b
        return _rational(s) if self.characteristic == 0 else s % self.characteristic

    def mul(self, a, b):
        s = a * b
        return _rational(s) if self.characteristic == 0 else s % self.characteristic

    def neg(self, a):
        return -a if self.characteristic == 0 else (-a) % self.characteristic

    # -- serialization -----------------------------------------------------

    def format(self, a) -> str:
        return str(a)

    def parse(self, s) -> object:
        """A serialized scalar: a string like ``"-3"`` or ``"2/5"``, or an
        integer.  Floats and booleans are refused, not rounded."""
        if isinstance(s, bool) or not isinstance(s, (str, int)):
            raise ValueError(f"scalar must be a string or an integer, got {s!r}")
        if isinstance(s, str):
            # ASCII digits with an optional "-" read as an int, without
            # Fraction's string parser; every other string goes through of()
            digits = s[1:] if s[:1] == "-" else s
            if digits.isascii() and digits.isdigit():
                s = int(s)
        return self.of(s)

    def random(self, rng, nonzero: bool = False):
        """Small random scalar, for batteries and property tests."""
        if self.characteristic == 0:
            val = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2]))
            while nonzero and val == 0:
                val = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2]))
            return _rational(val)
        p = self.characteristic
        lo = 1 if nonzero else 0
        return rng.randrange(lo, p)

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    """The prime field F_p.  A non-prime p is refused, 0 included: FieldSpec(0)
    would be the rationals."""
    if not _is_prime(p):
        raise ValueError(f"F_p needs a prime p, got {p}")
    return FieldSpec(p)


GF2 = GF(2)


class Record:
    """Base of the package's plain record classes.  ``__init__`` checks its
    arguments and stores each, and nothing else, as an attribute of the same
    name; equality (within one class), ``repr`` and ``replace`` read them
    off ``vars``.  A record is mutable, so unhashable.  ``Contramodule``,
    which also stores its fixed ``side``, overrides ``replace``."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with changes, built by ``__init__``, so its checks run again."""
        return type(self)(**{**vars(self), **changes})
