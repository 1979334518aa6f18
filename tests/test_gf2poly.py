"""GF(2)[z] polynomial arithmetic against independent oracles."""

import random

import pytest
from hypothesis import given, strategies as st

from cf2 import gf2poly
from cf2.gf2poly import (
    bit_reverse, cldivmod, clgcd, clmod, clmul, clpow, clsq, is_irreducible, min_irreducible, parse_poly, poly_str,
)
from cf2.towers import SpecMap


def naive_mul(a: int, b: int) -> int:
    """Schoolbook carry-less product over coefficient dicts."""
    out = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            for j in range(b.bit_length()):
                if (b >> j) & 1:
                    out ^= 1 << (i + j)
    return out


def test_frobenius_square():
    p = parse_poly("z+1")
    assert poly_str(clmul(p, p)) == poly_str(clsq(p)) == "z^2+1"


def test_divrem_hand_oracle():
    q, r = cldivmod(parse_poly("z^3+z"), parse_poly("z+1"))
    assert poly_str(q) == "z^2+z"
    assert r == 0


def test_gcd_common_factor():
    assert poly_str(clgcd(parse_poly("z^2+z"), parse_poly("z"))) == "z"


def test_divrem_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        cldivmod(parse_poly("z"), 0)


def shift_xor_mul(a: int, b: int) -> int:
    """The quadratic shift-and-XOR product: the reference for every
    ``clmul`` path (one shifted copy of a per set bit of b)."""
    acc = 0
    while b:
        low = b & -b
        acc ^= a << (low.bit_length() - 1)
        b ^= low
    return acc


def with_bits(rng, length: int, count: int) -> int:
    """A random polynomial of exactly ``length`` bits with ``count`` set."""
    if count == 0:
        return 0
    bits = 1 << (length - 1)
    for e in rng.sample(range(length - 1), count - 1):
        bits |= 1 << e
    return bits


@given(st.integers(0, 1 << 64), st.integers(0, 1 << 64))
def test_mul_matches_naive(a, b):
    assert clmul(a, b) == naive_mul(a, b)


DENSE = gf2poly._DENSE_BITS
CUT = gf2poly._KARATSUBA_BITS


@pytest.mark.parametrize(
    "la, lb, pop_b",
    [
        # set-bit count of the sparser operand around the window threshold
        (1000, 1000, DENSE - 1),
        (1000, 1000, DENSE),
        (1000, 1000, DENSE + 1),
        (3 * CUT + 5, 700, DENSE - 1),
        (3 * CUT + 5, 700, DENSE + 1),
        # lengths around the Karatsuba cutoff
        (CUT - 1, CUT - 1, None),
        (CUT, CUT, None),
        (CUT + 1, CUT + 1, None),
        (CUT + 1, CUT, None),
        (CUT + 1, CUT - 1, None),
        # odd lengths, where the halves differ in length
        (2 * CUT + 3, 2 * CUT + 1, None),
        (5 * CUT + 7, 4 * CUT + 9, None),
        # unbalanced: la > 2 * lb
        (4 * CUT + 11, CUT // 2 + 3, None),
        (8 * CUT, 2 * CUT - 5, None),
        (16 * CUT, 3 * CUT, None),
        (1 << 16, 1 << 16, None),
    ],
)
def test_mul_paths_match_shift_xor(la, lb, pop_b):
    rng = random.Random(la * 100003 + lb)
    for _ in range(2):
        a = rng.getrandbits(la) | (1 << (la - 1))
        b = with_bits(rng, lb, pop_b) if pop_b is not None else rng.getrandbits(lb) | (1 << (lb - 1))
        expect = shift_xor_mul(a, b)
        assert clmul(a, b) == expect
        assert clmul(b, a) == expect


def test_mul_zero_and_one():
    rng = random.Random(11)
    for length in (1, 64, CUT + 1, 5 * CUT):
        a = rng.getrandbits(length) | (1 << (length - 1))
        assert clmul(a, 0) == clmul(0, a) == 0
        assert clmul(a, 1) == clmul(1, a) == a
    assert clmul(0, 0) == 0 and clmul(1, 1) == 1


def test_mul_dense_operand_with_sparse_halves():
    # a dense operand split against one whose set bits all sit in one half
    rng = random.Random(12)
    a = rng.getrandbits(4 * CUT) | (1 << (4 * CUT - 1))
    b = rng.getrandbits(CUT) << (3 * CUT) | (1 << (4 * CUT - 1))
    assert clmul(a, b) == shift_xor_mul(a, b)


# lengths on and beside byte boundaries, with even and odd byte counts
@pytest.mark.parametrize(
    "length", [1, 7, 8, 9, 15, 16, 17, 1016, 1023, 1024, 1025, 1032, 3077, CUT - 1, CUT + 1, 16387, 1 << 16]
)
def test_square_matches_mul(length):
    rng = random.Random(length)
    a = rng.getrandbits(length) | (1 << (length - 1))
    assert clsq(a) == clmul(a, a) == shift_xor_mul(a, a)
    sparse = (1 << (length - 1)) | 1
    assert clsq(sparse) == clmul(sparse, sparse) == (1 << (2 * length - 2)) | 1


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 15, 16, 17, 24, 25, CUT - 1, CUT + 1, 8 * CUT + 3])
def test_unshuffle_round_trip(length):
    # odd byte counts leave the even-position bytes one longer
    rng = random.Random(length + 1)
    for a in (rng.getrandbits(length) | (1 << length >> 1), (1 << length) - 1, 1 << length >> 1):
        even, odd = gf2poly._unshuffle(a)
        assert clsq(even) ^ clsq(odd) << 1 == a
        assert 2 * even.bit_length() - 1 <= a.bit_length() and 2 * odd.bit_length() <= a.bit_length()


def operand(rng, length: int, kind) -> int:
    """A ``length``-bit operand: "dense", "square" (of a dense one), or
    with ``kind`` set bits."""
    if kind == "dense":
        return rng.getrandbits(length) | (1 << (length - 1))
    if kind == "square":
        return clsq(operand(rng, (length + 1) // 2, "dense"))
    return with_bits(rng, length, kind)


@pytest.mark.parametrize("lr", [CUT // 2 - 1, CUT // 2 + 1, 2 * CUT + 3, 8 * CUT])
@pytest.mark.parametrize(
    "lb_of, kind",
    [
        (lambda lr: 2 * lr, "dense"),
        (lambda lr: 2 * lr, DENSE - 1),
        (lambda lr: 2 * lr, DENSE),
        (lambda lr: 2 * lr, DENSE + 1),
        (lambda lr: 2 * lr + 1, "square"),
        (lambda lr: lr // 3 + 1, "dense"),
        (lambda lr: 5 * lr + 7, "dense"),
    ],
    ids=["dense", "sparse-1", "sparse", "sparse+1", "square", "short", "long"],
)
def test_square_operand_products_match_shift_xor(lr, lb_of, kind):
    # r^2 b, either side, against the reference: below the cutoff, at the
    # Frobenius split, and with b a square too
    rng = random.Random(lr * 31 + len(str(kind)))
    x = clsq(operand(rng, lr, "dense"))
    b = operand(rng, lb_of(lr), kind)
    expect = shift_xor_mul(x, b)
    assert clmul(x, b) == expect
    assert clmul(b, x) == expect


@pytest.mark.parametrize("lr", [CUT // 2 + 1, 2 * CUT + 3, 8 * CUT])
def test_fourth_power_products_match_shift_xor(lr):
    # the split recurses: r^4 s^4 halves twice, r^4 b splits twice on one side
    rng = random.Random(lr)
    x = clsq(clsq(operand(rng, lr // 2, "dense")))
    y = clsq(clsq(operand(rng, lr // 2 + 5, "dense")))
    b = operand(rng, 2 * lr + 9, "dense")
    assert clmul(x, y) == clmul(y, x) == shift_xor_mul(x, y)
    assert clmul(x, b) == clmul(b, x) == shift_xor_mul(x, b)


def test_square_zero_and_one():
    assert clsq(0) == 0 and clsq(1) == 1


def test_kernels_recurse_through_private_names(monkeypatch):
    # a wrapper on the public names must see one call per outside product
    calls = []
    for name in ("clmul", "clsq"):
        inner = getattr(gf2poly, name)
        monkeypatch.setattr(gf2poly, name, lambda *args, f=inner: calls.append(1) or f(*args))
    rng = random.Random(13)
    a, b = rng.getrandbits(8 * CUT), rng.getrandbits(8 * CUT)
    square = gf2poly._square(rng.getrandbits(8 * CUT))
    gf2poly.clmul(a, b)
    gf2poly.clsq(a)
    gf2poly.clmul(square, b)
    gf2poly.clmul(b, square)
    gf2poly.clmul(square, square)
    gf2poly.bit_reverse(a, 8 * CUT)
    assert len(calls) == 5


@given(st.integers(0, 1 << 96), st.integers(1, 1 << 48))
def test_divmod_reconstructs(a, b):
    q, r = cldivmod(a, b)
    assert clmul(q, b) ^ r == a
    assert r.bit_length() < b.bit_length()


def bit_serial_divmod(a: int, b: int) -> tuple[int, int]:
    """Long division one quotient bit at a time, the reference form."""
    m, n = a.bit_length() - 1, b.bit_length() - 1
    if m < n:
        return 0, a
    q = 0
    b <<= m - n
    for i in range(m - n + 1):
        q <<= 1
        if (a >> (m - i)) & 1:
            a ^= b
            q |= 1
        b >>= 1
    return q, a


def test_cldivmod_matches_bit_serial_division():
    # dividend and divisor lengths from 0 to 2048 bits, with dense, sparse
    # and single-term operands, so quotients run from empty to every bit set
    rng = random.Random(600)
    pairs = 0
    for _ in range(600):
        la, lb = rng.randrange(0, 2049), rng.randrange(1, 1025)
        a = rng.getrandbits(la) if rng.random() < 0.7 else 1 << la
        b = rng.getrandbits(lb) | 1 << (lb - 1)
        if rng.random() < 0.3:
            b = (1 << (lb - 1)) | rng.getrandbits(3)
        assert gf2poly.cldivmod(a, b) == bit_serial_divmod(a, b), (a, b)
        pairs += 1
    assert pairs == 600
    assert gf2poly.cldivmod(0, 5) == (0, 0) and gf2poly.cldivmod(3, 1) == (3, 0)
    with pytest.raises(ZeroDivisionError):
        gf2poly.cldivmod(7, 0)


@given(st.integers(0, 1 << 32), st.integers(0, 1 << 32), st.integers(0, 1 << 32))
def test_gcd_divides(a, b, c):
    g = clgcd(a, b)
    if g:
        assert clmod(a, g) == 0 and clmod(b, g) == 0


def test_pow_matches_repeated_mul():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.getrandbits(12)
        n = rng.randrange(0, 9)
        expect = 1
        for _ in range(n):
            expect = clmul(expect, p)
        assert clpow(p, n) == expect


def test_parse_render_roundtrip():
    for text in ["z^2+z+1", "z^5+1", "z", "1", "0", "z^10+z^3"]:
        assert poly_str(parse_poly(text)) == text
    assert parse_poly(" z^10 + z^03 ") == (1 << 10) | (1 << 3)
    rng = random.Random(30)
    for p in [0, 1, 2, 3] + [rng.getrandbits(rng.randrange(1, 300)) for _ in range(50)]:
        assert parse_poly(poly_str(p)) == p
        if p > 1:
            assert str(SpecMap.parse(f"b=z+1, a = {poly_str(p)}")) == f"a={poly_str(p)},b=z+1"


def test_parse_rejects_duplicates_and_junk():
    with pytest.raises(ValueError):
        parse_poly("z+z")
    with pytest.raises(ValueError):
        parse_poly("z^2+q")
    with pytest.raises(ValueError):
        parse_poly("")


@pytest.mark.parametrize(
    "text, message",
    [
        ("z^1_0", "bad monomial 'z^1_0'"),
        ("z^ 3", "bad monomial 'z^ 3'"),
        ("z^\u0663", "bad monomial 'z^\u0663'"),
        ("z^", "bad monomial 'z^'"),
        ("z^3.0", "bad monomial 'z^3.0'"),
        ("z^-", "bad monomial 'z^-'"),
        ("z^-1", "negative exponent in 'z^-1'"),
        ("z^-0", "negative exponent in 'z^-0'"),
    ],
)
def test_exponents_are_ascii_digits(text, message):
    with pytest.raises(ValueError) as err:
        parse_poly(f"z+{text}")
    assert str(err.value) == message


def test_reverse():
    p = parse_poly("z^3+z")
    assert poly_str(bit_reverse(p, p.bit_length())) == "z^2+1"


def reverse_by_definition(bits: int) -> int:
    """z^d * p(1/z), one coefficient at a time."""
    d = bits.bit_length() - 1
    return sum(1 << (d - i) for i in range(d + 1) if (bits >> i) & 1)


def test_reverse_matches_definition():
    rng = random.Random(20)
    cases = [0, 1, 1 << 9, 0b101000, (1 << 40) | (1 << 7)]
    cases += [rng.getrandbits(rng.randrange(1, 20_000)) for _ in range(30)]
    cases += [rng.getrandbits(n) << rng.randrange(1, 50) for n in (1, 17, 4096)]
    for bits in cases:
        want = reverse_by_definition(bits)
        assert bit_reverse(bits, bits.bit_length()) == want
        # leading zeros inside the width become trailing zeros
        assert bit_reverse(bits, bits.bit_length() + 5) == want << 5
        if bits:
            assert bit_reverse(want, want.bit_length()) == bits >> ((bits & -bits).bit_length() - 1)


def test_irreducibility_small():
    # z^2+z+1 is the only irreducible quadratic
    assert is_irreducible(0b111)
    assert not is_irreducible(0b101)  # (z+1)^2
    assert not is_irreducible(0b110)  # z(z+1)
    assert min_irreducible(2) == 0b111
    assert min_irreducible(3) == 0b1011
    # constants are not irreducible; both linear polynomials are
    assert not is_irreducible(0) and not is_irreducible(1)
    assert is_irreducible(0b10) and is_irreducible(0b11)
    assert min_irreducible(1) == 0b10


def test_min_irreducible_is_minimal():
    for m in [4, 5, 8]:
        best = min_irreducible(m)
        for cand in range(1 << m, best):
            assert not is_irreducible(cand)
