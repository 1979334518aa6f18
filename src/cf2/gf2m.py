"""GF(2^m) arithmetic for randomized matrix-identity testing.

Field elements are plain ints in [0, 2^m): bit coordinates with respect
to a fixed irreducible modulus.  Every field uses the published modulus
from ``MODULI`` (the lexicographically least irreducible polynomial of
its degree, as an integer), so randomized runs are reproducible across
machines.  For m <= 16 multiplication goes through exp/log tables; the
generic path reduces carry-less products modulo the field polynomial.
The exp table is stored twice over (exp[i] == exp[i + order]), so a sum
of two logs indexes it with no reduction mod the group order.  That
also gives ``mat_mul``, a fused 2x2 product: with all eight entries
nonzero it looks up each entry's log once and does 8 exp lookups and
4 XORs.
"""

from __future__ import annotations

import random

from .gf2poly import _prime_factors, clmod, clmul, clsq, min_irreducible

# Lexicographically least irreducible polynomial of each degree,
# bit-packed (bit i = coefficient of z^i).  Regenerated by the tests
# from the irreducibility test in gf2poly.
MODULI = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
}

_TABLE_LIMIT = 16  # build exp/log tables up to this extension degree


class Gf2m:
    """The field GF(2^m) with the published modulus for its degree."""

    zero = 0
    one = 1

    def __init__(self, m: int, modulus: int | None = None):
        if m < 2:
            raise ValueError("extension degree must be at least 2")
        if modulus is None:
            modulus = MODULI.get(m) or min_irreducible(m)
        if modulus.bit_length() - 1 != m:
            raise ValueError("modulus degree mismatch")
        self.m = m
        self.modulus = modulus
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

    def mat_mul(self, x, y) -> tuple[int, int, int, int]:
        """Entries (a, b, c, d) of the 2x2 product x*y of two ``Mat2``.
        Letter, insertion and scalar matrices have zero entries, so they
        and tableless fields take the entrywise formula."""
        a, b, c, d = x.a, x.b, x.c, x.d
        e, f, g, h = y.a, y.b, y.c, y.d
        log = self._log
        if log is not None and a and b and c and d and e and f and g and h:
            exp = self._exp
            la, lb, lc, ld = log[a], log[b], log[c], log[d]
            le, lf, lg, lh = log[e], log[f], log[g], log[h]
            return (
                exp[la + le] ^ exp[lb + lg],
                exp[la + lf] ^ exp[lb + lh],
                exp[lc + le] ^ exp[ld + lg],
                exp[lc + lf] ^ exp[ld + lh],
            )
        mul = self.mul
        return (
            mul(a, e) ^ mul(b, g),
            mul(a, f) ^ mul(b, h),
            mul(c, e) ^ mul(d, g),
            mul(c, f) ^ mul(d, h),
        )

    def square(self, a: int) -> int:
        return self.mul(a, a) if self._exp is not None else clmod(clsq(a), self.modulus)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._exp is not None:
            return self._exp[self.order - self._log[a]]
        return self._raw_pow(a, self.order - 1)

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
    """Shared Gf2m instance for degree m (published modulus)."""
    if m not in _FIELDS:
        _FIELDS[m] = Gf2m(m)
    return _FIELDS[m]


def ext_sample_invertible(m: int, rng: random.Random) -> int:
    """Uniformly random nonzero element of GF(2^m)."""
    return field(m).sample_invertible(rng)
