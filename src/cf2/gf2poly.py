"""Bit-packed polynomials over GF(2).

A polynomial is a nonnegative Python integer: bit i is the coefficient
of z^i.  Addition is XOR, multiplication is carry-less, and the zero
polynomial is the integer 0 (degree ``bit_length() - 1`` = -1).
Squaring, the Frobenius map, spreads bytes by table; above the Karatsuba
cutoff a product with a square operand r^2 splits in two half-size ones.
``parse_poly`` and ``poly_str`` carry the text syntax used by the CLI,
and ``monomial_str``, one term of it, is the one home of the monomial
text that ``LaurentSeries`` prints too.
"""

from __future__ import annotations

from functools import lru_cache

# 8-bit -> 16-bit zero-interleave table, the Frobenius map on one byte.
_SPREAD = tuple(
    sum(((byte >> k) & 1) << (2 * k) for k in range(8)) for byte in range(256)
)
# bytes.translate tables: a byte's spread as low and high output byte, its
# even and odd bits gathered into a nibble, and its bits in reverse order.
_SPREAD_LO = bytes(s & 0xFF for s in _SPREAD)
_SPREAD_HI = bytes(s >> 8 for s in _SPREAD)
_EVEN = bytes(_SPREAD.index(byte & 0x55) for byte in range(256))
_ODD = bytes(_SPREAD.index(byte >> 1 & 0x55) for byte in range(256))
_REVERSE = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))

# Kernel dispatch, thresholds measured on CPython 3.11:
# - below _DENSE_BITS set bits in the sparser operand, one shifted XOR
#   per set bit is cheaper than building the 256-entry window table;
# - up to _KARATSUBA_BITS the table of the longer operand is cheap and
#   small; above it a square operand r^2 splits the product into two
#   half-size ones (the Frobenius split), and any other product into
#   Karatsuba's three;
# - squaring spreads bytes through two translate tables, all in C.
_DENSE_BITS = 96
_KARATSUBA_BITS = 4096


def clmul(a: int, b: int) -> int:
    """Carry-less product of two bit-packed GF(2) polynomials."""
    return _mul(a, b)


def clsq(a: int) -> int:
    """Square of a bit-packed GF(2) polynomial (Frobenius: spread bits)."""
    return _square(a)


def bit_reverse(x: int, width: int) -> int:
    """The low ``width`` bits of x (x < 2^width) in reverse order: bit i
    goes to bit width-1-i.  Reversing the little-endian bytes and each
    byte's bits reverses all 8n of them; the shift drops the padding."""
    nbytes = (width + 7) // 8
    return int.from_bytes(x.to_bytes(nbytes, "little").translate(_REVERSE), "big") >> (8 * nbytes - width)


# The kernels recurse through the private names below, never through
# ``clmul``/``clsq``, so a wrapper on the public names sees one call per
# outside product.


def _mul(a: int, b: int) -> int:
    if a.bit_count() < b.bit_count():
        a, b = b, a
    if b.bit_count() < _DENSE_BITS:
        acc = 0
        while b:
            low = b & -b
            acc ^= a << (low.bit_length() - 1)
            b ^= low
        return acc
    la, lb = a.bit_length(), b.bit_length()
    if la < lb:
        a, b, la, lb = b, a, lb, la
    if la <= _KARATSUBA_BITS:
        return _window_mul(a, b)
    # Frobenius split: for x = r^2 and y = y0(z^2) + z y1(z^2),
    # x y = (r y0)^2 + z (r y1)^2, two half-size products (one when y
    # is a square too).  The low 64 bits screen out most non-squares.
    for x, y in ((a, b), (b, a)):
        if not x & 0xAAAAAAAAAAAAAAAA:
            r, odd = _unshuffle(x)
            if not odd:
                y0, y1 = _unshuffle(y)
                return _square(_mul(r, y0)) ^ (_square(_mul(r, y1)) << 1)
    # Karatsuba: three half-size products.  When b is at most half as
    # long as a, b1 = 0 and hi costs nothing, so an unbalanced product
    # halves a until it is less than twice as long as b (or within the
    # cutoff), as a chunked product would.
    h = (la + 1) // 2
    mask = (1 << h) - 1
    a0, a1, b0, b1 = a & mask, a >> h, b & mask, b >> h
    lo = _mul(a0, b0)
    hi = _mul(a1, b1)
    mid = _mul(a0 ^ a1, b0 ^ b1) ^ lo ^ hi
    return (hi << (2 * h)) ^ (mid << h) ^ lo


def _window_mul(a: int, b: int) -> int:
    """a·b from a table of a·k (k < 256) and the bytes of b."""
    table = [0]
    for j in range(8):
        s = a << j
        table += [t ^ s for t in table]
    acc = 0
    for i, byte in enumerate(b.to_bytes((b.bit_length() + 7) // 8, "little")):
        if byte:
            acc ^= table[byte] << (8 * i)
    return acc


def _square(a: int) -> int:
    if a < 256:  # one byte: a table read beats the byte-string round trip
        return _SPREAD[a]
    nbytes = (a.bit_length() + 7) // 8
    raw = a.to_bytes(nbytes, "little")
    out = bytearray(2 * nbytes)
    out[0::2] = raw.translate(_SPREAD_LO)
    out[1::2] = raw.translate(_SPREAD_HI)
    return int.from_bytes(out, "little")


def _unshuffle(a: int) -> tuple[int, int]:
    """(even, odd) with a = even(z^2) + z odd(z^2): byte k of each half
    gathers the nibbles of bytes 2k and 2k + 1 of a."""
    raw = a.to_bytes((a.bit_length() + 7) // 8, "little")
    lo, hi = raw[0::2], raw[1::2]
    even = int.from_bytes(lo.translate(_EVEN), "little") | int.from_bytes(hi.translate(_EVEN), "little") << 4
    odd = int.from_bytes(lo.translate(_ODD), "little") | int.from_bytes(hi.translate(_ODD), "little") << 4
    return even, odd


def cldivmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of bit-packed GF(2) polynomials, b != 0.

    Each pass cancels the remainder's leading term and reads the next one
    off ``bit_length``, so the loop runs once per nonzero quotient term;
    b = 1, the denominator of every polynomial in GF(2)(z), takes none."""
    if b == 0:
        raise ZeroDivisionError("zero divisor")
    if b == 1:
        return a, 0
    n = b.bit_length()
    q = 0
    while (shift := a.bit_length() - n) >= 0:
        a ^= b << shift
        q |= 1 << shift
    return q, a


def clmod(a: int, b: int) -> int:
    return cldivmod(a, b)[1]


def clgcd(a: int, b: int) -> int:
    while b:
        a, b = b, clmod(a, b)
    return a


def _sqmod(a: int, mod: int) -> int:
    return clmod(clsq(a), mod)


def _x_pow_2k(k: int, mod: int) -> int:
    """x^(2^k) reduced modulo ``mod``."""
    a = clmod(2, mod)
    for _ in range(k):
        a = _sqmod(a, mod)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(bits: int) -> bool:
    """Rabin irreducibility test for a bit-packed polynomial over GF(2)."""
    d = bits.bit_length() - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if bits & 1 == 0:  # divisible by z
        return False
    if _x_pow_2k(d, bits) != 2:
        return False
    for q in _prime_factors(d):
        if clgcd(_x_pow_2k(d // q, bits) ^ 2, bits) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def min_irreducible(m: int) -> int:
    """Smallest (as an integer) irreducible GF(2) polynomial of degree m."""
    if m < 1:
        raise ValueError("degree must be positive")
    if m == 1:
        return 2  # z
    for k in range(1, 1 << m, 2):
        cand = (1 << m) | k
        if is_irreducible(cand):
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


def clpow(a: int, n: int) -> int:
    """a^n for n >= 0, square-and-multiply through ``clmul``/``clsq``."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = 1
    while n:
        if n & 1:
            result = clmul(result, a)
        n >>= 1
        if n:
            a = clsq(a)
    return result


def parse_poly(text: str) -> int:
    """Parse the '+'-separated monomial syntax: "z^2+z+1".

    Exponents are ASCII digits.  Duplicate monomials are rejected; "0"
    denotes the zero polynomial.
    """
    s = text.strip()
    if s == "0":
        return 0
    if not s:
        raise ValueError("empty polynomial text")
    bits = 0
    for raw in s.split("+"):
        mono = raw.strip()
        if mono == "1":
            e = 0
        elif mono == "z":
            e = 1
        elif mono.startswith("z^"):
            digits = mono[2:].removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"bad monomial {mono!r}")
            if digits != mono[2:]:
                raise ValueError(f"negative exponent in {mono!r}")
            e = int(digits)
        else:
            raise ValueError(f"bad monomial {mono!r}")
        if (bits >> e) & 1:
            raise ValueError(f"duplicate monomial {mono!r}")
        bits |= 1 << e
    return bits


def monomial_str(e: int) -> str:
    """The text of z^e for any integer e: "1", "z" or "z^e"."""
    return "1" if e == 0 else "z" if e == 1 else f"z^{e}"


def poly_str(bits: int) -> str:
    """The text form ``parse_poly`` reads, from the top term down."""
    if bits == 0:
        return "0"
    return "+".join(monomial_str(e) for e in range(bits.bit_length() - 1, -1, -1) if (bits >> e) & 1)
