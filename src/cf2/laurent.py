"""Truncated Laurent series in 1/z over GF(2) with exact valuation tracking.

A series is a window of exactly known coefficients: bit i of ``mask`` is
the coefficient of z^-(val+i).  ``prec`` is the absolute precision: the
coefficient of z^-n is exact for every n < prec and unknown from
n = prec on.  Polynomial parts are allowed (negative valuation).

The zero-to-precision series is the sentinel ``mask == 0``; its ``val``
is meaningless and its ``valuation`` reports infinity together with the
precision up to which zeroness is known.  Nonzero series always keep
bit 0 of ``mask`` set, so ``val`` is the exact valuation and the norm
2^-val is ultrametric under addition.

Precision bookkeeping (p = abs. precision, v = valuation):
  add      min(p_a, p_b)
  mul      min(p_a + v_b, p_b + v_a)
  square   2 * p_a              (cross terms vanish in characteristic 2)
  inv      p_a - 2 * v_a
  div      min(p_a - v_b, p_b - 2 * v_b + v_a)   (the product with the inverse, bit for bit)
The square rule is exact: the unknown tail t of a has valuation >= p,
and (k + t)^2 = k^2 + t^2 carries its first unknown coefficient at 2p.
In windows (w = p - v, the coefficients known past the valuation) a
product keeps the smaller window and a square doubles it.  So ``pow``
clips its base to about half the result's window before each square,
and a power 2^k squares O(p) bits, not 2^k p.  ``clip`` drops
coefficients a caller will never read: ``SeriesField.square`` keeps a
square only to the working precision, or to one coefficient past its
exact valuation when that lies beyond it.

Every int built here is sized by the bits a value keeps, never by its
precision: a mask is cut to its window only when it is wider than the
window, and a sum drops an operand that has no bit below the sum's
precision instead of shifting it there.  A series with one known bit
costs one bit at any precision.
"""

from __future__ import annotations

import math

from .gf2poly import _DENSE_BITS, bit_reverse, clmul, clsq, monomial_str


def _low(mask: int, nbits: int) -> int:
    """The low nbits bits of mask; no nbits-wide int when mask is narrower."""
    return mask & ((1 << nbits) - 1) if mask.bit_length() > nbits else mask


def _inv_mask(m: int, nbits: int) -> int:
    """Inverse of the power series with bit mask m (bit 0 set) mod t^nbits.

    Newton's step x <- x(2 - m x) doubles the bits of x that are exact.
    In characteristic 2, 2 = 0 and -1 = 1, so the step is x <- m x^2: one
    product with a square operand, which ``clmul`` splits into two
    half-size products above its Karatsuba cutoff."""
    if m & 1 == 0:
        raise ValueError("constant term must be 1")
    x = 1
    k = 1
    while k < nbits:
        k = min(2 * k, nbits)
        window = (1 << k) - 1
        x = clmul(m & window, clsq(x)) & window
    return x


def _div_sparse(m: int, d: int, w: int) -> int:
    """m/d mod t^w for a divisor d = 1 + u (bit 0 set) of few terms.

    In characteristic 2, 1/(1 + u) = (1 + u)(1 + u^2)(1 + u^4) ... and
    u^(2^j) = u(t^(2^j)), so the factor of each j with 2^j val(u) < w is
    one shifted XOR per term of u; the later factors are 1 mod t^w."""
    y = _low(m, w)
    u = d ^ 1
    taps = [i for i in range(min(u.bit_length(), w)) if u >> i & 1]
    while taps:
        acc = y
        for i in taps:
            acc ^= y << i
        y = _low(acc, w)
        taps = [2 * i for i in taps if 2 * i < w]
    return y


class LaurentSeries:
    """Truncated series over GF(2) in powers of 1/z.  Operations return new
    series and never change their operands."""

    __slots__ = ("val", "mask", "prec")

    def __init__(self, val: int, mask: int, prec: int):
        if mask < 0:
            raise ValueError("mask must be nonnegative")
        if mask:
            mask = _low(mask, prec - val) if prec > val else 0
        if mask:
            strip = (mask & -mask).bit_length() - 1
            val += strip
            mask >>= strip
        else:
            val = 0
        self.val = val
        self.mask = mask
        self.prec = prec

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, prec: int) -> LaurentSeries:
        return cls(0, 0, prec)

    @classmethod
    def one(cls, prec: int) -> LaurentSeries:
        return cls(0, 1, prec)

    @classmethod
    def from_rational(cls, num: int, den: int, prec: int) -> LaurentSeries:
        """Expansion of num/den (bit-packed GF(2)[z] ints) in powers of 1/z
        to absolute precision prec."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if num == 0:
            return cls.zero(prec)
        v = den.bit_length() - num.bit_length()
        if prec <= v:
            raise ValueError(f"precision {prec} too small for valuation {v}")
        d_inv = _inv_mask(bit_reverse(den, den.bit_length()), prec - v)
        return cls(v, clmul(bit_reverse(num, num.bit_length()), d_inv), prec)

    # -- accessors ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when the series is zero to its stated precision."""
        return self.mask == 0

    @property
    def valuation(self):
        """Exact valuation; math.inf for the zero-to-precision series."""
        return math.inf if self.mask == 0 else self.val

    def known_zero_below(self) -> int:
        """Largest exponent bound below which the series is provably zero.

        Equals the exact valuation for nonzero series and the absolute
        precision for the zero-to-precision sentinel.
        """
        return self.prec if self.mask == 0 else self.val

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        prec = min(self.prec, other.prec)
        if other.mask == 0 or other.val >= prec:
            return LaurentSeries(self.val, self.mask, prec)
        if self.mask == 0 or self.val >= prec:
            return LaurentSeries(other.val, other.mask, prec)
        v = min(self.val, other.val)
        mask = (self.mask << (self.val - v)) ^ (other.mask << (other.val - v))
        return LaurentSeries(v, mask, prec)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: LaurentSeries) -> LaurentSeries:
        if self.mask == 0 or other.mask == 0:
            pa = self.prec + (other.val if other.mask else other.prec)
            pb = other.prec + (self.val if self.mask else self.prec)
            return LaurentSeries.zero(pa if self.mask == 0 else pb)
        v = self.val + other.val
        prec = min(self.prec + other.val, other.prec + self.val)
        window = prec - v
        return LaurentSeries(v, clmul(_low(self.mask, window), _low(other.mask, window)), prec)

    def square(self) -> LaurentSeries:
        if self.mask == 0:
            return LaurentSeries.zero(2 * self.prec)
        return LaurentSeries(2 * self.val, clsq(self.mask), 2 * self.prec)

    def inv(self) -> LaurentSeries:
        if self.mask == 0:
            raise ZeroDivisionError("not invertible at this precision")
        nbits = self.prec - self.val
        return LaurentSeries(-self.val, _inv_mask(self.mask, nbits), self.prec - 2 * self.val)

    def div(self, other: LaurentSeries) -> LaurentSeries:
        """self * other.inv(), bit for bit.  A divisor of few terms, such as
        a letter, divides through the Frobenius product (``_div_sparse``)
        when its shifted XORs number fewer than ``_DENSE_BITS``, the count
        at which ``clmul`` stops shifting and XORing too."""
        if other.mask == 0:
            raise ZeroDivisionError("not invertible at this precision")
        if self.mask == 0:
            return LaurentSeries.zero(self.prec - other.val)
        v = self.val - other.val
        prec = min(self.prec - other.val, other.prec - 2 * other.val + self.val)
        window = prec - v
        u = other.mask ^ 1
        # one factor of _div_sparse per j with val(u) 2^j < window
        low = (u & -u).bit_length() - 1
        factors = ((window - 1) // low).bit_length() if u else 0
        if u.bit_count() * factors >= _DENSE_BITS:
            return self * other.inv()
        return LaurentSeries(v, _div_sparse(self.mask, other.mask, window), prec)

    def clip(self, window: int) -> LaurentSeries:
        """The same series known only to window coefficients past its
        valuation (window >= 1); itself when it knows no more than that."""
        if self.mask == 0 or self.prec - self.val <= window:
            return self
        return LaurentSeries(self.val, self.mask, self.val + window)

    def pow(self, n: int) -> LaurentSeries:
        if n < 0:
            return self.inv().pow(-n)
        # a product's window is the smaller of its factors' windows, and the
        # result starts as one(prec), so no factor needs more than max(prec, 1)
        # coefficients and a base about to be squared needs half of that
        window = max(self.prec, 1)
        result = LaurentSeries.one(self.prec)
        base = self.clip(window)
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base.clip((window + 1) // 2).square()
        return result

    def mul_poly(self, poly: int) -> LaurentSeries:
        """Multiply by an exact polynomial in z, a bit-packed GF(2)[z] int."""
        if poly == 0:
            return LaurentSeries.zero(self.prec)
        d = poly.bit_length() - 1
        if self.mask == 0:
            return LaurentSeries.zero(self.prec - d)
        return LaurentSeries(self.val - d, clmul(self.mask, bit_reverse(poly, d + 1)), self.prec - d)

    # -- comparison ---------------------------------------------------------

    def agrees(self, other: LaurentSeries) -> bool:
        """Coefficientwise equality below the common precision."""
        return (self + other).mask == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.mask == other.mask
            and self.prec == other.prec
            and (self.mask == 0 or self.val == other.val)
        )

    def __hash__(self) -> int:
        return hash(("LaurentSeries", self.val, self.mask, self.prec))

    # -- text -----------------------------------------------------------------

    def __str__(self) -> str:
        tail = f"O({monomial_str(-self.prec)})"
        m = self.mask
        terms = [monomial_str(-(self.val + i)) for i in range(m.bit_length()) if m >> i & 1]
        return " + ".join(terms + [tail])

    def __repr__(self) -> str:
        return f"<LaurentSeries {self}>"
