"""2x2 matrices over pluggable characteristic-2 coefficient fields.

A coefficient field is any object with attributes ``zero``/``one`` and
methods ``add``, ``mul``, ``square``, ``inv``, ``div``, ``pow``,
``is_zero``, ``eq`` acting on its element type (``div(a, b)`` equals
``mul(a, inv(b))`` and raises ``ZeroDivisionError`` for a zero b), and
optionally the fast paths ``mat_mul(x, y)`` and ``mat_sq(x)``: the four
entries of x*y and of x*x, or ``NotImplemented`` for inputs they
decline, as Python's binary operators do.  ``Mat2.mul`` and ``Mat2.square`` hold the only formulas
and take them when no fast path answers.  ``Gf2m`` (int elements) fits
directly and has both fast paths; ``SeriesField`` adapts
``LaurentSeries`` values at a working precision and ``RationalField``
holds exact elements of K = GF(2)(z); neither has a fast path.  Scalar
matrices are identified with scalars throughout: a scalar enters a
matrix as s*I via ``Mat2.scalar``.
"""

from __future__ import annotations

from .gf2poly import cldivmod, clgcd, clmul, clpow, clsq
from .laurent import LaurentSeries


class SeriesField:
    """Field adapter for LaurentSeries coefficients at a fixed precision.

    Equality is coefficientwise agreement below the common precision,
    which is the only meaningful comparison for truncated series.
    """

    def __init__(self, prec: int):
        self.prec = prec
        self.zero = LaurentSeries.zero(prec)
        self.one = LaurentSeries.one(prec)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    def square(self, a):
        """a^2 to the working precision, or to one coefficient past its
        exact valuation when that lies beyond the working precision."""
        window = max(self.prec - 2 * a.val, 1)
        return a.clip((window + 1) // 2).square().clip(window)

    @staticmethod
    def inv(a):
        return a.inv()

    @staticmethod
    def div(a, b):
        return a.div(b)

    @staticmethod
    def pow(a, n):
        return a.pow(n)

    @staticmethod
    def is_zero(a) -> bool:
        return a.is_zero

    @staticmethod
    def eq(a, b) -> bool:
        return a.agrees(b)

    @property
    def name(self) -> str:
        return f"series(prec={self.prec})"


def _quo(a: int, b: int) -> int:
    return cldivmod(a, b)[0]


class RationalField:
    """The field K = GF(2)(z), exact.

    An element is a pair (num, den) of bit-packed GF(2)[z] ints, coprime
    and with den nonzero.  GF(2)[z] has no unit but 1, so the pair is the
    unique form of its value and equality is equality of pairs.  Sums and
    products cancel the common factors they can create (Henrici), so
    each gcd runs on the smallest operands available.
    """

    zero = (0, 1)
    one = (1, 1)

    @staticmethod
    def add(x, y):
        (a, b), (c, d) = x, y
        g = clgcd(b, d)
        b, d = _quo(b, g), _quo(d, g)
        num = clmul(a, d) ^ clmul(c, b)
        # num is prime to b and d, so only g's factors can cancel
        h = clgcd(num, g)
        return _quo(num, h), clmul(clmul(b, d), _quo(g, h))

    @staticmethod
    def mul(x, y):
        (a, b), (c, d) = x, y
        g, h = clgcd(a, d), clgcd(c, b)
        return clmul(_quo(a, g), _quo(c, h)), clmul(_quo(b, h), _quo(d, g))

    @staticmethod
    def square(x):
        return clsq(x[0]), clsq(x[1])

    @staticmethod
    def inv(x):
        if x[0] == 0:
            raise ZeroDivisionError("zero has no inverse")
        return x[1], x[0]

    @classmethod
    def div(cls, x, y):
        return cls.mul(x, cls.inv(y))

    @classmethod
    def pow(cls, x, n: int):
        num, den = x if n >= 0 else cls.inv(x)
        return clpow(num, abs(n)), clpow(den, abs(n))

    @staticmethod
    def is_zero(x) -> bool:
        return x[0] == 0

    @staticmethod
    def eq(x, y) -> bool:
        return x == y


class Mat2:
    """2x2 matrix; entries live in the attached field.  Operations return
    new matrices and never change their operands."""

    __slots__ = ("F", "a", "b", "c", "d")

    def __init__(self, F, a, b, c, d):
        self.F = F
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, F) -> Mat2:
        return cls(F, F.one, F.zero, F.zero, F.one)

    @classmethod
    def scalar(cls, F, s) -> Mat2:
        return cls(F, s, F.zero, F.zero, s)

    # -- arithmetic ----------------------------------------------------------

    def mul(self, o: Mat2) -> Mat2:
        F = self.F
        fast = getattr(F, "mat_mul", None)
        if fast is not None and (entries := fast(self, o)) is not NotImplemented:
            return Mat2(F, *entries)
        return Mat2(
            F,
            F.add(F.mul(self.a, o.a), F.mul(self.b, o.c)),
            F.add(F.mul(self.a, o.b), F.mul(self.b, o.d)),
            F.add(F.mul(self.c, o.a), F.mul(self.d, o.c)),
            F.add(F.mul(self.c, o.b), F.mul(self.d, o.d)),
        )

    def add(self, o: Mat2) -> Mat2:
        F = self.F
        return Mat2(F, F.add(self.a, o.a), F.add(self.b, o.b), F.add(self.c, o.c), F.add(self.d, o.d))

    __add__ = add

    def square(self) -> Mat2:
        """x^2 = ((a^2 + bc, b(a + d)), (c(a + d), d^2 + bc)) in characteristic 2."""
        F = self.F
        fast = getattr(F, "mat_sq", None)
        if fast is not None and (entries := fast(self)) is not NotImplemented:
            return Mat2(F, *entries)
        a, b, c, d = self.a, self.b, self.c, self.d
        bc, tr = F.mul(b, c), F.add(a, d)
        return Mat2(F, F.add(F.square(a), bc), F.mul(b, tr), F.mul(c, tr), F.add(F.square(d), bc))

    def scale(self, s) -> Mat2:
        F = self.F
        return Mat2(F, F.mul(self.a, s), F.mul(self.b, s), F.mul(self.c, s), F.mul(self.d, s))

    def add_scalar(self, s) -> Mat2:
        F = self.F
        return Mat2(F, F.add(self.a, s), self.b, self.c, F.add(self.d, s))

    def det(self):
        F = self.F
        return F.add(F.mul(self.a, self.d), F.mul(self.b, self.c))

    def trace(self):
        return self.F.add(self.a, self.d)

    # -- predicates --------------------------------------------------------

    def eq(self, o: Mat2) -> bool:
        F = self.F
        return F.eq(self.a, o.a) and F.eq(self.b, o.b) and F.eq(self.c, o.c) and F.eq(self.d, o.d)

    def is_scalar(self) -> bool:
        F = self.F
        return F.is_zero(self.b) and F.is_zero(self.c) and F.eq(self.a, self.d)

    def __repr__(self) -> str:
        return f"Mat2[{self.a!r}, {self.b!r}; {self.c!r}, {self.d!r}]"
