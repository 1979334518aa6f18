"""GF(2^m) arithmetic for randomized matrix-identity testing.

Field elements are plain ints in [0, 2^m): bit coordinates with respect
to a fixed irreducible modulus.  Every field uses the lexicographically
least irreducible polynomial of its degree (``min_irreducible``, e.g.
0x1002B for m = 16), so randomized runs are reproducible across
machines.  For m <= 16 multiplication goes through exp/log tables; the
generic path reduces carry-less products modulo the field polynomial.
The exp table is stored twice over (exp[i] == exp[i + order]), so a sum
of two logs indexes it with no reduction mod the group order.  That
also gives the table fast paths ``mat_mul`` and ``mat_sq`` of a 2x2
product and square (see ``mat2``): with every entry nonzero, a product
is 8 log lookups, 8 exp lookups and 4 XORs, and a square through
x^2 = ((a^2 + bc, b(a + d)), (c(a + d), d^2 + bc)) with a nonzero trace
is 5 of each.  In every other case they return ``NotImplemented``.
"""

from __future__ import annotations

import random

from .gf2poly import _prime_factors, clmod, clmul, clsq, min_irreducible

_TABLE_LIMIT = 16  # build exp/log tables up to this extension degree


class Gf2m:
    """The field GF(2^m) modulo the least irreducible polynomial of degree m."""

    zero = 0
    one = 1

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("extension degree must be at least 2")
        self.m = m
        self.modulus = min_irreducible(m)
        self.order = (1 << m) - 1
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if m <= _TABLE_LIMIT:
            self._build_tables()

    # -- table construction -------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        return clmod(clmul(a, b), self.modulus)

    def _raw_pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._raw_mul(r, a)
            n >>= 1
            a = clmod(clsq(a), self.modulus)
        return r

    def _find_generator(self) -> int:
        factors = _prime_factors(self.order)
        g = 2
        while True:
            if all(self._raw_pow(g, self.order // p) != 1 for p in factors):
                return g
            g += 1

    def _build_tables(self) -> None:
        g = self._find_generator()
        m, order = self.m, self.order
        # v -> v*g is GF(2)-linear: look up the images of v's low 8 bits
        # and of the rest
        low = [self._raw_mul(b, g) for b in range(1 << min(m, 8))]
        high = [self._raw_mul(b << 8, g) for b in range(1 << max(m - 8, 0))]
        ints = list(range(order + 1))  # one int object per value, shared by both tables
        exp = [0] * (2 * order)
        log = [0] * (order + 1)
        v = 1
        for i in range(order):
            exp[i] = exp[i + order] = ints[v]
            log[v] = ints[i]
            v = low[v & 255] ^ high[v >> 8]
        assert v == 1
        self._exp = exp
        self._log = log

    # -- field protocol --------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._raw_mul(a, b)

    def mat_mul(self, x, y):
        """Entries (a, b, c, d) of the 2x2 product x*y of two ``Mat2`` by
        the tables; ``NotImplemented`` for a zero entry (letter, insertion
        and scalar matrices) or a tableless field."""
        a, b, c, d = x.a, x.b, x.c, x.d
        e, f, g, h = y.a, y.b, y.c, y.d
        log = self._log
        if log is None or not (a and b and c and d and e and f and g and h):
            return NotImplemented
        exp = self._exp
        la, lb, lc, ld = log[a], log[b], log[c], log[d]
        le, lf, lg, lh = log[e], log[f], log[g], log[h]
        return (
            exp[la + le] ^ exp[lb + lg],
            exp[la + lf] ^ exp[lb + lh],
            exp[lc + le] ^ exp[ld + lg],
            exp[lc + lf] ^ exp[ld + lh],
        )

    def mat_sq(self, x):
        """Entries (a, b, c, d) of the square of a ``Mat2`` by the tables,
        through ``Mat2.square``'s formula; ``NotImplemented`` for a zero
        entry or trace, or a tableless field."""
        a, b, c, d = x.a, x.b, x.c, x.d
        tr = a ^ d
        log = self._log
        if log is None or not (a and b and c and d and tr):
            return NotImplemented
        exp = self._exp
        lb, lc, lt = log[b], log[c], log[tr]
        bc = exp[lb + lc]
        return exp[2 * log[a]] ^ bc, exp[lb + lt], exp[lc + lt], exp[2 * log[d]] ^ bc

    def square(self, a: int) -> int:
        if self._exp is not None:
            return self._exp[2 * self._log[a]] if a else 0
        return clmod(clsq(a), self.modulus)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._exp is not None:
            return self._exp[self.order - self._log[a]]
        return self._raw_pow(a, self.order - 1)

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("zero has no inverse")
        if a == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self.order - self._log[b]]
        return self._raw_mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("zero has no inverse")
            return 0 if n else 1
        n %= self.order
        if self._exp is not None:
            return self._exp[(self._log[a] * n) % self.order]
        return self._raw_pow(a, n)

    @staticmethod
    def is_zero(a: int) -> bool:
        return a == 0

    @staticmethod
    def eq(a: int, b: int) -> bool:
        return a == b

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(0, 1 << self.m)

    def sample_invertible(self, rng: random.Random) -> int:
        return rng.randrange(1, 1 << self.m)

    @property
    def name(self) -> str:
        return f"GF(2^{self.m})"

    def __repr__(self) -> str:
        return f"Gf2m({self.m}, modulus=0x{self.modulus:X})"


_FIELDS: dict[int, Gf2m] = {}


def field(m: int) -> Gf2m:
    """Shared Gf2m instance for degree m."""
    if m not in _FIELDS:
        _FIELDS[m] = Gf2m(m)
    return _FIELDS[m]
