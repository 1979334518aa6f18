"""Truncated Laurent series: windows, valuations, precision soundness."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cf2 import laurent
from cf2.gf2poly import clmul, clsq, parse_poly
from cf2.laurent import LaurentSeries


def as_dict(s: LaurentSeries) -> dict[int, int]:
    """Known coefficients as {exponent n of z^-n: 1}."""
    out = {}
    m = s.mask
    i = 0
    while m:
        if m & 1:
            out[s.val + i] = 1
        m >>= 1
        i += 1
    return out


def naive_mul(a: LaurentSeries, b: LaurentSeries) -> dict[int, int]:
    out: dict[int, int] = {}
    for n in as_dict(a):
        for k in as_dict(b):
            out[n + k] = out.get(n + k, 0) ^ 1
    return {n: 1 for n, v in out.items() if v}


series_strategy = st.builds(
    LaurentSeries,
    st.integers(-20, 20),
    st.integers(0, (1 << 48) - 1),
    st.integers(30, 80),
)


def test_geometric_expansion():
    s = LaurentSeries.from_rational(parse_poly("z"), parse_poly("z^2+1"), 8)
    assert str(s) == "z^-1 + z^-3 + z^-5 + z^-7 + O(z^-8)"
    assert s.val == 1


def test_identity_expansion():
    s = LaurentSeries.from_rational(1, 1, 4)
    assert s.val == 0 and s.mask == 1 and s.prec == 4
    assert str(s) == "1 + O(z^-4)"


def test_polynomial_part():
    s = LaurentSeries.from_rational(parse_poly("z^2+z"), parse_poly("z"), 4)
    assert s.val == -1
    assert str(s) == "z + 1 + O(z^-4)"


def test_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.from_rational(1, 0, 8)


def test_rational_zero_numerator_is_zero_to_precision():
    s = LaurentSeries.from_rational(0, parse_poly("z^2+1"), 8)
    assert s.is_zero and s == LaurentSeries.zero(8)


def test_rational_needs_precision_past_the_valuation():
    den = parse_poly("z^3+1")
    with pytest.raises(ValueError, match="^precision 3 too small for valuation 3$"):
        LaurentSeries.from_rational(1, den, 3)
    assert LaurentSeries.from_rational(1, den, 4) == LaurentSeries(3, 1, 4)


def test_square_thins():
    s = LaurentSeries(1, 0b11, 10)
    sq = s.square()
    assert as_dict(sq) == {2: 1, 4: 1}
    assert sq.prec == 20


def test_cancellation_raises_valuation():
    s = LaurentSeries(3, 0b101, 10) + LaurentSeries(3, 1, 10)
    assert s.val == 5


def test_zero_sentinel():
    z = LaurentSeries.zero(10)
    assert z.is_zero and z.valuation == math.inf and z.known_zero_below() == 10
    assert str(z) == "O(z^-10)"


def test_inverse_geometric():
    s = LaurentSeries(0, 0b11, 5)
    assert str(s.inv()) == "1 + z^-1 + z^-2 + z^-3 + z^-4 + O(z^-5)"


def test_inverse_of_zero_errors():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(10).inv()


@pytest.mark.parametrize(
    "nbits", [*range(1, 71), *(n for j in range(7, 17) for n in ((1 << j) - 1, 1 << j, (1 << j) + 1))]
)
def test_inv_mask_is_the_inverse_mod_t_to_nbits(nbits):
    # the definition: m x = 1 mod t^nbits with x < 2^nbits, for a dense m
    # wider than the window, so the step reads only m's low bits
    rng = random.Random(nbits)
    m = rng.getrandbits(nbits + 40) | 1
    x = laurent._inv_mask(m, nbits)
    assert x < 1 << nbits
    assert clmul(m, x) & ((1 << nbits) - 1) == 1


def _same(x: LaurentSeries, y: LaurentSeries) -> bool:
    return (x.val, x.mask, x.prec) == (y.val, y.mask, y.prec)


@pytest.mark.parametrize("w", [1, 2, 7, 8, 9, *(n for j in range(4, 17) for n in ((1 << j) - 1, (1 << j) + 1))])
@pytest.mark.parametrize("weight", [1, 2, 3, 5])
def test_div_is_the_product_with_the_inverse(w, weight):
    # a divisor of weight 1 is a monomial (u = 0); the numerator's window is
    # the division's, or wider, or narrower, at negative and positive
    # valuations, so both factors of the precision rule are read
    rng = random.Random(w * 8 + weight)
    d = sum(1 << i for i in [0, *rng.sample(range(1, 9), weight - 1)])
    for va, vb, wide_a, wide_b in [(-3, -2, 0, 5), (4, -1, 7, 0), (0, 2, 0, 0), (-9, 3, 40, 1)]:
        a = LaurentSeries(va, rng.getrandbits(w + wide_a) | 1, va + w + wide_a)
        b = LaurentSeries(vb, d, vb + w + wide_b)
        assert _same(a.div(b), a * b.inv())


def _cut_cases():
    """(weight of u, val(u), window) with weight x factors at the cut - 1,
    the cut and the cut + 1 for one factor, and on either side of it for 5."""
    cut = laurent._DENSE_BITS
    low = 2 * cut
    # (w - 1) // low = 1: one factor; 199 // 8 = 24 < 32: five factors
    cases = [(cut + k, low, 2 * low) for k in (-1, 0, 1)]
    return cases + [((cut - 1) // 5, 8, 200), (-(-cut // 5), 8, 200)]


@pytest.mark.parametrize("weight,low,w", _cut_cases())
def test_div_takes_the_frobenius_product_below_the_cut(monkeypatch, weight, low, w):
    factors = ((w - 1) // low).bit_length()
    rng = random.Random(weight)
    d = 1 | sum(1 << i for i in [low, *rng.sample(range(low + 1, w), weight - 1)])
    a = LaurentSeries(-5, rng.getrandbits(w) | 1, w - 5)
    b = LaurentSeries(-1, d, w - 1)
    want = a * b.inv()
    inverted = []
    inv = LaurentSeries.inv
    monkeypatch.setattr(LaurentSeries, "inv", lambda s: inverted.append(s) or inv(s))
    assert _same(a.div(b), want)
    assert bool(inverted) == (weight * factors >= laurent._DENSE_BITS)


def test_div_of_zero_and_by_zero():
    b = LaurentSeries(-2, 0b111, 30)
    for zero in (LaurentSeries.zero(40), LaurentSeries(3, 0, 25)):
        assert _same(zero.div(b), zero * b.inv())
    for a in (LaurentSeries(1, 0b101, 20), LaurentSeries.zero(20)):
        with pytest.raises(ZeroDivisionError):
            a.div(LaurentSeries.zero(20))


def test_coeff_unknown_region():
    # z^-n is bit n - val of the mask for n below the precision; the bit
    # of z^-8, past precision 6, is unknown and dropped
    s = LaurentSeries(2, 0b1000001, 6)
    assert (s.val, s.mask, s.prec) == (2, 1, 6)
    assert as_dict(s) == {2: 1}


@given(series_strategy, series_strategy)
def test_ultrametric(a, b):
    s = a + b
    assert s.valuation >= min(a.valuation, b.valuation)
    if a.valuation != b.valuation:
        if min(a.valuation, b.valuation) < s.prec:
            assert s.valuation == min(a.valuation, b.valuation)


@given(series_strategy, series_strategy)
def test_mul_matches_naive_below_precision(a, b):
    got = a * b
    want = naive_mul(a, b)
    assert as_dict(got) == {n: 1 for n in want if n < got.prec}


@given(series_strategy)
def test_square_agrees_with_mul(a):
    sq = a.square()
    prod = a * a
    assert (sq + prod).is_zero


@given(series_strategy)
def test_inv_roundtrip(a):
    if a.is_zero:
        return
    back = a.inv().inv()
    assert (back + a).is_zero
    one = a * a.inv()
    assert one.val == 0 and one.mask == 1


def test_rational_times_denominator_is_numerator():
    rng = random.Random(1)
    for _ in range(30):
        num = rng.getrandbits(10)
        den = rng.getrandbits(10) | (1 << 10)
        if num == 0:
            continue
        s = LaurentSeries.from_rational(num, den, 64)
        residual = s.mul_poly(den) + LaurentSeries.from_rational(num, 1, 64)
        assert residual.is_zero


def test_precision_soundness_pipeline():
    """Recomputing at double precision never changes a reported coefficient."""
    rng = random.Random(9)
    for _ in range(20):
        n1, d1 = rng.getrandbits(8) | 1, rng.getrandbits(8) | (1 << 8)
        n2, d2 = rng.getrandbits(6) | 1, rng.getrandbits(6) | (1 << 6)

        def pipeline(prec):
            a = LaurentSeries.from_rational(n1, d1, prec)
            b = LaurentSeries.from_rational(n2, d2, prec)
            return (a * b + a.square()).inv() * b

        lo = pipeline(128)
        hi = pipeline(256)
        assert (lo + hi).known_zero_below() >= lo.prec


def test_pow_negative():
    s = LaurentSeries.from_rational(1, parse_poly("z+1"), 64)
    assert (s.pow(-2) * s.pow(2)).agrees(LaurentSeries.one(32))


def naive_pow(s: LaurentSeries, n: int) -> LaurentSeries:
    """s^n by square-and-multiply from one(prec), with no window cut."""
    if n < 0:
        s, n = s.inv(), -n
    out = LaurentSeries.one(s.prec)
    while n:
        if n & 1:
            out = out * s
        n >>= 1
        s = s.square()
    return out


@pytest.mark.parametrize("val", [-7, -1, 0, 3])
def test_pow_matches_a_multiply_loop(val):
    rng = random.Random(val)
    exps = [*range(-5, 41), *(1 << k for k in range(6, 11))]
    # windows from none (the zero sentinel) and one bit up to 300 bits, and
    # absolute precisions on both sides of zero
    for width in (-2, 0, 1, 2, 5, 64, 300):
        mask = rng.getrandbits(max(width, 1)) | 1 if width > 0 else 0
        s = LaurentSeries(val, mask, val + width)
        for n in exps:
            if n < 0 and s.is_zero:
                with pytest.raises(ZeroDivisionError):
                    s.pow(n)
                continue
            got, want = s.pow(n), naive_pow(s, n)
            assert (got.val, got.mask, got.prec) == (want.val, want.mask, want.prec), (width, n)
            if s.is_zero:
                continue
            # n plain products know less (a square doubles the window, a
            # product keeps the smaller one) but agree where they know
            base = s if n >= 0 else s.inv()
            prod = LaurentSeries.one(base.prec)
            for _ in range(abs(n)):
                prod = prod * base
            assert prod.agrees(got) and prod.prec <= got.prec
            assert prod.is_zero or got.val == prod.val


def test_pow_squares_no_more_than_the_window_it_keeps(monkeypatch):
    # a square doubles the window, so pow(x, 2^10) of a 16k-bit window
    # squares at most the bits that the result keeps
    prec = 1 << 14
    x = LaurentSeries(0, random.Random(14).getrandbits(prec) | 1, prec)
    widths = []

    def spy(m):
        widths.append(m.bit_length())
        return clsq(m)

    monkeypatch.setattr(laurent, "clsq", spy)
    y = x.pow(1 << 10)
    assert len(widths) == 10 and max(widths) <= 2 * prec
    assert (y.val, y.prec) == (0, prec)


def test_render_tail_only_and_order():
    s = LaurentSeries(-1, 0b10011, 200)
    assert str(s) == "z + 1 + z^-3 + O(z^-200)"


@given(series_strategy, st.integers(0, (1 << 12) - 1))
def test_mul_poly_matches_naive(a, pbits):
    if pbits == 0:
        return
    got = a.mul_poly(pbits)
    want: dict[int, int] = {}
    for n in as_dict(a):
        for j in range(pbits.bit_length()):
            if (pbits >> j) & 1:
                want[n - j] = want.get(n - j, 0) ^ 1
    assert as_dict(got) == {n: 1 for n, bit in want.items() if bit and n < got.prec}


def old_constructor(val: int, mask: int, prec: int) -> tuple[int, int, int]:
    """Reference: the window mask built at full precision, then stripped."""
    if mask:
        window = prec - val
        mask = 0 if window <= 0 else mask & ((1 << window) - 1)
    if mask:
        strip = (mask & -mask).bit_length() - 1
        val, mask = val + strip, mask >> strip
    else:
        val = 0
    return val, mask, prec


@given(st.integers(-40, 40), st.integers(0, (1 << 64) - 1), st.integers(-40, 120))
def test_constructor_matches_full_window_mask(val, mask, prec):
    s = LaurentSeries(val, mask, prec)
    assert (s.val, s.mask, s.prec) == old_constructor(val, mask, prec)


def peak_bytes(fn):
    """(result, peak traced allocation in bytes) of fn()."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: LaurentSeries.one(10**8), (0, 1, 10**8)),
        (lambda: LaurentSeries(10**8, 0b1011, 10**8 + 64).pow(3), (3 * 10**8, 0b1011100111, 3 * 10**8 + 64)),
        (lambda: LaurentSeries(0, 1, 100) + LaurentSeries(10**8, 1, 10**8 + 5), (0, 1, 100)),
    ],
    ids=["one", "pow", "add"],
)
def test_huge_precision_costs_only_the_kept_bits(build, want):
    # a full-precision window mask here is 10^8 bits, 12.5 MB per int
    s, peak = peak_bytes(build)
    assert (s.val, s.mask, s.prec) == want
    assert peak < 1 << 20


def test_add_drops_an_operand_at_or_past_the_precision():
    a = LaurentSeries(0, 0b101, 10)
    for far in (LaurentSeries(10, 1, 20), LaurentSeries(12, 0b11, 14)):
        for s in (a + far, far + a):
            assert (s.val, s.mask, s.prec) == (0, 0b101, 10)
    s = LaurentSeries.zero(5) + LaurentSeries(7, 1, 9)
    assert s.is_zero and s.prec == 5
