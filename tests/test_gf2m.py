"""GF(2^m) field axioms and the least-irreducible moduli."""

import random
from functools import lru_cache

import pytest
from hypothesis import assume, given, strategies as st

from cf2.gf2m import Gf2m, field
from cf2.gf2poly import is_irreducible
from cf2.laurent import LaurentSeries
from cf2.mat2 import Mat2, RationalField, SeriesField


@pytest.mark.parametrize(
    "m,modulus", [(2, 0x7), (3, 0xB), (8, 0x11B), (16, 0x1002B), (20, 0x100009), (32, 0x10000008D)]
)
def test_field_modulus_is_least_irreducible(m, modulus):
    # the published least irreducible polynomials, which seed every draw
    assert field(m).modulus == modulus
    assert is_irreducible(modulus)


def test_inverse_axiom_m2():
    F = field(2)
    rng = random.Random(0)
    for _ in range(20):
        x = F.sample_invertible(rng)
        assert F.mul(x, F.inv(x)) == 1


def test_sampler_never_zero():
    rng = random.Random(3)
    assert all(field(16).sample_invertible(rng) != 0 for _ in range(10_000))


def test_characteristic_two():
    rng = random.Random(4)
    F = field(16)
    x = F.sample_invertible(rng)
    assert F.add(x, x) == 0


@pytest.mark.parametrize("m", [2, 3, 8, 16])
def test_field_axioms_random(m):
    F = field(m)
    rng = random.Random(m)
    for _ in range(200):
        a, b, c = (F.sample(rng) for _ in range(3))
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(a, b) == F.mul(b, a)
        assert F.square(a) == F.mul(a, a)
        if a:
            assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, (1 << m) - 1) == 1  # Lagrange


def test_pow_negative_and_zero():
    F = field(16)
    rng = random.Random(7)
    a = F.sample_invertible(rng)
    assert F.mul(F.pow(a, -3), F.pow(a, 3)) == 1
    assert F.pow(a, 0) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_tableless_path_matches_tables():
    # the generic reduction path must agree with the table path
    tab = Gf2m(8)
    raw = Gf2m(8)
    raw._exp = raw._log = None
    rng = random.Random(11)
    for _ in range(300):
        a, b = rng.randrange(256), rng.randrange(256)
        assert tab.mul(a, b) == raw.mul(a, b)
        if a:
            assert tab.inv(a) == raw.inv(a)


def _series_draw(F, rng):
    # dense, or of few terms like a letter, which divides through the Frobenius product
    nbits = rng.choice([2, 4, 6, F.prec + 8])
    return LaurentSeries(rng.randrange(-4, 5), rng.getrandbits(nbits) | 1, F.prec - rng.randrange(9))


# GF(2^16) divides by its tables, GF(2^17) has none
DIVISION_FIELDS = {
    "GF(2^16)": (lambda: field(16), lambda F, rng: F.sample_invertible(rng)),
    "GF(2^17)": (lambda: field(17), lambda F, rng: F.sample_invertible(rng)),
    "K": (RationalField, lambda F, rng: F.mul((rng.getrandbits(12) | 1, 1), (1, rng.getrandbits(12) | 1))),
    "series": (lambda: SeriesField(64), _series_draw),
}


@pytest.mark.parametrize("name", DIVISION_FIELDS)
def test_div_is_mul_by_inv(name):
    make, draw = DIVISION_FIELDS[name]
    F = make()
    rng = random.Random(name)
    pairs = [(draw(F, rng), draw(F, rng)) for _ in range(300)] + [(F.zero, draw(F, rng))]
    if name == "GF(2^16)":
        # log a at its top and log b = 0 read the last entry of the exp table
        pairs.append((F._exp[F.order - 1], 1))

    def key(x):
        return (x.val, x.mask, x.prec) if name == "series" else x

    for a, b in pairs:
        assert key(F.div(a, b)) == key(F.mul(a, F.inv(b)))
    for a in (F.zero, F.one):
        with pytest.raises(ZeroDivisionError):
            F.div(a, F.zero)


def _entrywise(F, x, y):
    """The raw entrywise 2x2 product by the field's own mul/add."""
    return (
        F.add(F.mul(x.a, y.a), F.mul(x.b, y.c)),
        F.add(F.mul(x.a, y.b), F.mul(x.b, y.d)),
        F.add(F.mul(x.c, y.a), F.mul(x.d, y.c)),
        F.add(F.mul(x.c, y.b), F.mul(x.d, y.d)),
    )


@lru_cache(maxsize=None)
def _tableless(m):
    """GF(2^m) with its tables dropped: every product reduces a clmul."""
    raw = Gf2m(m)
    raw._exp = raw._log = None
    return raw


def _entries(x):
    return x.a, x.b, x.c, x.d


# GF(4), GF(8), GF(2^8) and GF(2^16) have tables; GF(2^17) and GF(2^20) do not
HOOK_FIELDS = [2, 3, 8, 16, 17, 20]


@pytest.mark.parametrize("m", HOOK_FIELDS)
def test_fused_matrix_product_matches_entrywise(m):
    # the hook returns the raw entrywise entries or NotImplemented, and
    # entries for every all-nonzero input over a table field; Mat2.mul
    # equals the raw product either way
    F = field(m)
    raw = _tableless(m)
    rng = random.Random(m)

    def rand(nonzero=True):
        draw = F.sample_invertible if nonzero else F.sample
        return Mat2(F, *(draw(rng) for _ in range(4)))

    x = F.sample_invertible(rng)
    ix = F.inv(x)
    special = [
        Mat2(F, F.one, ix, ix, F.zero), Mat2(F, F.zero, ix, ix, F.one), Mat2.scalar(F, x),
        Mat2.identity(F), Mat2(F, 0, 0, 0, 0),
    ]
    pairs = [(rand(), rand()) for _ in range(200)]
    pairs += [(rand(False), rand(False)) for _ in range(200)]
    pairs += [(s, rand()) for s in special] + [(rand(), s) for s in special]
    pairs += [(s, t) for s in special for t in special]
    if F._exp is not None:
        # every log at its top value: the sums reach 2*order - 2, the last
        # index of the doubled exp table
        top = F._exp[F.order - 1]
        assert F._log[top] == F.order - 1
        assert F.mul(top, top) == raw.mul(top, top)
        y = Mat2(F, top, top, top, top)
        pairs += [(y, y), (y, rand()), (rand(), y)]
    taken = 0
    for a, b in pairs:
        want = _entrywise(raw, a, b)
        got = F.mat_mul(a, b)
        if F._log is not None and all(_entries(a) + _entries(b)):
            assert got == want
        else:
            assert got is NotImplemented
        taken += got is not NotImplemented
        assert _entries(a.mul(b)) == want
    assert (taken > 0) == (F._log is not None)


@pytest.mark.parametrize("m", HOOK_FIELDS)
@given(data=st.data())
def test_fused_square_matches_product_for_every_zero_pattern(m, data):
    # the hook squares through the tables when a, b, c, d and the trace
    # are nonzero and returns NotImplemented otherwise; Mat2.square's own
    # formula and Mat2.mul both equal the raw product for every pattern
    F = field(m)
    raw = _tableless(m)
    assert (F._log is None) == (m > 16)
    a, b, c, e = data.draw(st.lists(st.integers(1, F.order), min_size=4, max_size=4))
    assume(e != a)
    # the diagonals cover a, d and a + d each zero or not
    for a_, d_ in ((0, 0), (a, 0), (0, a), (a, a), (a, e)):
        for b_ in (0, b):
            for c_ in (0, c):
                x = Mat2(F, a_, b_, c_, d_)
                want = _entrywise(raw, x, x)
                got = F.mat_sq(x)
                if F._log is not None and all((a_, b_, c_, d_, a_ ^ d_)):
                    assert got == want
                else:
                    assert got is NotImplemented
                assert _entries(x.square()) == want
                assert _entries(x.mul(x)) == want


def test_series_square_has_no_hook_and_matches_product():
    S = SeriesField(256)
    assert not hasattr(S, "mat_sq")
    rng = random.Random(9)
    x = Mat2(S, *(LaurentSeries(rng.randrange(-3, 4), rng.getrandbits(256) | 1, 256) for _ in range(4)))
    assert x.square().eq(x.mul(x))


@pytest.mark.parametrize("m", range(2, 17))
def test_exp_table_is_doubled(m):
    F = Gf2m(m)
    exp, log, order = F._exp, F._log, F.order
    assert len(exp) == 2 * order
    assert all(exp[i] == exp[i + order] for i in range(order))
    # powers of one generator, each nonzero element once
    assert sorted(exp[:order]) == list(range(1, order + 1))
    assert all(log[exp[i]] == i for i in range(order))
    g = exp[1]
    assert all(F._raw_mul(exp[i], g) == exp[i + 1] for i in range(0, order, max(1, order // 500)))


def test_large_degree_field():
    F = Gf2m(20)
    rng = random.Random(2)
    for _ in range(50):
        a = F.sample_invertible(rng)
        assert F.mul(a, F.inv(a)) == 1
