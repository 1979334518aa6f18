"""Relation search: known algebraic series, mutation controls, precision
gates, and the order basis against a dense-elimination reference."""

import random
from functools import reduce
from itertools import product

import pytest

from cf2.gf2poly import cldivmod, clgcd, clmul, parse_poly
from cf2.laurent import LaurentSeries
from cf2.mat2 import RationalField
from cf2.relations import (
    AlgRelation,
    _clear_denominators,
    _content_normalize,
    _order_basis,
    _powers,
    certifying_precision,
    find_relation,
    max_degz,
    norm_relation,
    required_precision,
)
from cf2.theorems import _exact_round, p_relation, search_relation, spec_series
from cf2.towers import SpecMap, g_cf_series, p_cf_series
from cf2.words import GSpec, PSpec

SPB = SpecMap.binary_default()
SPAB = SpecMap.parse("a=z,b=z+1")


def chain(phi: LaurentSeries, n: int) -> list[LaurentSeries]:
    """Reference powers 1, phi, ..., phi^n by the product chain one(p)*phi*phi*..."""
    powers = [LaurentSeries.one(phi.prec)]
    for _ in range(n):
        powers.append(powers[-1] * phi)
    return powers


def eliminate(phi: LaurentSeries, degx: int, degz: int) -> AlgRelation | None:
    """Reference search: dense GF(2) elimination of the coefficient windows
    of z^j phi^i, one column per (i, j) in ascending order, over every
    exponent where all of them are known; the first kernel vector, content
    normalized, is the minimal-X-degree relation of z-degree <= degz."""
    val = 0 if phi.is_zero else min(0, phi.val)
    assert phi.prec >= certifying_precision(degx, degz, val)
    powers = chain(phi, degx)
    t_hi = min(p.prec for p in powers) - degz
    t_lo = min(p.val if not p.is_zero else p.prec for p in powers) - degz
    row_mask = (1 << (t_hi - t_lo)) - 1
    width = degz + 1
    pivots: dict[int, tuple[int, int]] = {}
    for i, power in enumerate(powers):
        v_i = power.val if not power.is_zero else power.prec
        for j in range(width):
            shift = t_lo + j - v_i
            vec = (power.mask << -shift if shift < 0 else power.mask >> shift) & row_mask
            track = 1 << (i * width + j)
            while vec:
                low = (vec & -vec).bit_length() - 1
                if low not in pivots:
                    pivots[low] = (vec, track)
                    break
                vec ^= pivots[low][0]
                track ^= pivots[low][1]
            if vec or i == 0:
                continue
            polys = [(track >> (k * width)) & ((1 << width) - 1) for k in range(i + 1)]
            content = reduce(clgcd, polys)
            return AlgRelation(tuple(cldivmod(p, content)[0] for p in polys))
    return None


def assert_matches_reference(phi: LaurentSeries, degx: int, degz: int) -> AlgRelation | None:
    """find_relation agrees with the reference wherever the reference
    finds a relation, and finds nothing where it finds none; so does a
    search to the largest z-degree the order certifies."""
    want = eliminate(phi, degx, degz)
    assert find_relation(phi, degx, degz) == want
    if want is not None:
        assert find_relation(phi, degx, max_degz(phi, degx)) == want
    return want


def test_rational_series_degree_one():
    phi = LaurentSeries.from_rational(1, parse_poly("z+1"), 256)
    rel = find_relation(phi, 2, 4)
    assert rel.render() == "X^1*(z+1) + X^0*(1)"
    assert rel.degx == 1


def test_lacunary_frobenius_relation():
    phi = LaurentSeries(1, sum(1 << ((1 << n) - 1) for n in range(9)), 300)
    rel = find_relation(phi, 3, 4)
    assert rel.render() == "X^2*(z) + X^1*(z) + X^0*(1)"


def test_insufficient_precision_raises():
    phi = LaurentSeries.from_rational(1, parse_poly("z+1"), 64)
    need = required_precision(8, 64)
    assert certifying_precision(8, 64, phi.val) == need
    with pytest.raises(ValueError, match=f"degX 8 degZ 64 needs precision {need}, got 64"):
        find_relation(phi, 8, 64)
    # a pole of order 2 costs (degx - 1) * 2 more: the order psi_0 carries
    phi = LaurentSeries.from_rational(parse_poly("z^3"), parse_poly("z+1"), 2214)
    assert phi.val == -2 and certifying_precision(8, 240, -2) == 9 * 241 + 32 + 7 * 2 == 2215
    assert max_degz(phi, 8) == 239
    with pytest.raises(ValueError, match="degX 8 degZ 240 needs precision 2215, got 2214"):
        find_relation(phi, 8, 240)


@pytest.mark.parametrize("degx, val", [(1, 0), (4, -1), (64, -1), (32, -2), (8, 3)])
def test_max_degz_inverts_the_certifying_precision(degx, val):
    # the least precision that admits degZ d is the certifying precision
    for d in (0, 1, 32, 125):
        p = certifying_precision(degx, d, val)
        assert max_degz(LaurentSeries(val, 1, p), degx) == d
        assert max_degz(LaurentSeries(val, 1, p - 1), degx) == d - 1


def test_no_relation_for_generic_truncation():
    # a pseudorandom bit window should admit no tiny relation
    import random

    rng = random.Random(12)
    phi = LaurentSeries(1, rng.getrandbits(400) | 1, 401)
    assert find_relation(phi, 2, 4) is None


def test_thue_morse_degree_four_golden():
    sp = SpecMap.parse("a=z,b=z+1")
    phi = g_cf_series(GSpec("a", "b", "1"), sp, 512)
    rel = find_relation(phi, 4, 12)
    assert rel is not None and rel.degx == 4
    deep = g_cf_series(GSpec("a", "b", "1"), sp, 1024)
    assert rel.evaluate(deep).known_zero_below() >= 1014
    assert rel.evaluate(deep).is_zero


def test_period_doubling_degree_four_golden():
    spb = SpecMap.binary_default()
    phi = p_cf_series(PSpec("", "10"), spb, 512)
    rel = find_relation(phi, 4, 16)
    assert rel is not None and rel.degx == 4
    assert rel.render() == "X^4*(z+1) + X^3*(z^2+z) + X^2*(z^2+z) + X^0*(1)"


def test_mutated_relation_has_finite_residual():
    sp = SpecMap.parse("a=z,b=z+1")
    phi = g_cf_series(GSpec("a", "b", "1"), sp, 512)
    rel = find_relation(phi, 4, 12)
    coeffs = list(rel.coeffs)
    coeffs[1] = coeffs[1] ^ 1  # flip one coefficient bit
    bad = AlgRelation(tuple(coeffs))
    res = bad.evaluate(phi)
    assert not res.is_zero
    assert bad.evaluate(phi).known_zero_below() < 64


def fields(s: LaurentSeries) -> tuple[int, int, int]:
    """Object equality: val, mask and prec, also for a series zero to precision."""
    return s.val, s.mask, s.prec


@pytest.mark.parametrize(
    "phi",
    [
        p_cf_series(PSpec("", "110"), SPB, 300),  # first letter z+1: val -1
        LaurentSeries(0, random.Random(0).getrandbits(300) | 1, 300),
        LaurentSeries(3, random.Random(3).getrandbits(297) | 1, 300),
        LaurentSeries.zero(64),
        LaurentSeries(-3, 0b101, -1),  # one(-1) is zero: so is every power
    ],
    ids=["val<0", "val=0", "val>0", "zero", "prec<=0"],
)
def test_powers_by_squaring_equal_the_chain(phi):
    want = [fields(s) for s in chain(phi, 17)]
    dense = _powers(phi, range(18))
    assert list(dense) == list(range(18))
    assert [fields(s) for s in dense.values()] == want
    sparse = _powers(phi, [17, 0, 16, 12])
    assert {e: fields(s) for e, s in sparse.items()} == {e: want[e] for e in (17, 0, 16, 12)}


@pytest.mark.parametrize(
    "spec, sp, degx, prec",
    [
        (PSpec("", "10"), SPB, 4, 256),  # relation-p golden
        (GSpec("a", "b", "11"), SPAB, 4, 256),  # relation-g golden
        (PSpec("", "10"), SPB, 4, 512),  # theorem1-eps10 golden
    ],
)
def test_sparse_evaluate_equals_the_dense_residual(spec, sp, degx, prec):
    phi_fn, val = spec_series(spec, sp)
    search = search_relation(phi_fn, degx, prec, val, max_degz(phi_fn(prec), degx))
    phi = phi_fn(search.verify_prec)
    coeffs = list(search.relation.coeffs)
    coeffs[1] = coeffs[1] ^ 1  # a mutant whose residual is not zero
    for rel in (search.relation, AlgRelation(tuple(coeffs))):
        dense = chain(phi, len(rel.coeffs) - 1)
        assert fields(rel.evaluate(phi)) == fields(rel.residual(dense))


def test_degree_never_increases_with_precision():
    sp = SpecMap.parse("a=z,b=z+1")
    degs = []
    for prec in (384, 512, 768):
        phi = g_cf_series(GSpec("a", "b", "1"), sp, prec)
        degs.append(find_relation(phi, 4, 12).degx)
    assert degs[0] >= degs[1] >= degs[2]


def test_minimal_degree_preferred():
    # phi rational: the degree-1 relation must win over degree-2 multiples
    phi = LaurentSeries.from_rational(parse_poly("z"), parse_poly("z^2+z+1"), 256)
    rel = find_relation(phi, 3, 6)
    assert rel.degx == 1


def test_content_normalization():
    # relation of z*phi = 1/(z+1) scaled: content must be divided out
    phi = LaurentSeries.from_rational(1, parse_poly("z^2+z"), 256)
    rel = find_relation(phi, 2, 4)
    assert reduce(clgcd, rel.coeffs) == 1


def test_content_normalize_divides_out_the_common_factor():
    z, z1 = parse_poly("z"), parse_poly("z+1")
    assert _content_normalize([clmul(z, z1), clmul(z1, z1), 0]) == (z, z1, 0)
    assert _content_normalize([z, z1]) == (z, z1)


def test_relation_is_held_normalized():
    # built with top zeros, a common factor, or both, a relation holds its
    # normalized polynomial, and degX counts its coefficients
    z, z1 = parse_poly("z"), parse_poly("z+1")
    want = AlgRelation((z, z1))
    assert want.coeffs == (z, z1) and want.degx == 1
    for coeffs in [(z, z1, 0, 0), (clmul(z1, z), clmul(z1, z1)), (clmul(z, z), clmul(z, z1), 0)]:
        rel = AlgRelation(coeffs)
        assert rel == want and rel.coeffs == (z, z1) and rel.degx == 1, coeffs


def test_all_zero_relation_has_no_residual():
    rel = AlgRelation((0, 0, 0))
    assert rel.coeffs == ()
    with pytest.raises(ValueError, match="^empty relation$"):
        rel.evaluate(LaurentSeries.one(64))


def test_render_ordering():
    rel = AlgRelation((1, 0, parse_poly("z")))
    assert rel.render() == "X^2*(z) + X^0*(1)"


def test_random_rational_series_found_exactly():
    import random

    rng = random.Random(31)
    for _ in range(15):
        num = rng.getrandbits(6) | 1
        den = rng.getrandbits(6) | (1 << 6)
        g = clgcd(num, den)
        num, den = cldivmod(num, g)[0], cldivmod(den, g)[0]
        phi = LaurentSeries.from_rational(num, den, 256)
        rel = find_relation(phi, 2, 8)
        assert rel is not None and rel.degx == 1
        # the defining relation den*X + num, up to content
        assert clmul(rel.coeffs[1], num) == clmul(rel.coeffs[0], den)


# -- the order basis against the reference ----------------------------------

def _search_input(spec, sp: SpecMap, degx: int, prec: int, degz: int | None = None):
    """A spec's series at prec, or at the least precision that certifies
    degZ ``degz`` (default degx + 8) if that is more, and that degZ."""
    phi_fn, val = spec_series(spec, sp)
    degz = degz if degz is not None else degx + 8
    return phi_fn(max(prec, certifying_precision(degx, degz, val))), degz


# (spec, map, degX, prec, the degZ where the golden's search found it)
GOLDEN_SEARCHES = [
    (PSpec("", "10"), SPB, 4, 256, None),
    (PSpec("", "0"), SPB, 2, 512, None),
    (PSpec("", "10"), SPB, 4, 512, None),
    (PSpec("10", "110"), SPB, 8, 512, None),
    (GSpec("a", "b", "11"), SPAB, 4, 256, None),
    (GSpec("a", "b", "0"), SPAB, 2, 512, None),
    (GSpec("a", "b", "1"), SPAB, 4, 512, None),
    (GSpec("a", "b", "011"), SPAB, 8, 512, 32),
]


@pytest.mark.parametrize(
    "spec,sp,degx,prec,degz", GOLDEN_SEARCHES, ids=[f"{c[0]!r}-{c[3]}" for c in GOLDEN_SEARCHES]
)
def test_golden_series_match_reference(spec, sp, degx, prec, degz):
    phi, degz = _search_input(spec, sp, degx, prec, degz)
    assert assert_matches_reference(phi, degx, degz) is not None


KNOWN_CASES = [
    ("1/(z+1)", LaurentSeries.from_rational(1, parse_poly("z+1"), 256), 2, 4),
    ("lacunary", LaurentSeries(1, sum(1 << ((1 << n) - 1) for n in range(9)), 300), 3, 4),
    ("thue-morse", g_cf_series(GSpec("a", "b", "1"), SPAB, 512), 4, 12),
    ("period-doubling", p_cf_series(PSpec("", "10"), SPB, 512), 4, 16),
    ("z/(z^2+z+1)", LaurentSeries.from_rational(parse_poly("z"), parse_poly("z^2+z+1"), 256), 3, 6),
    ("1/(z^2+z)", LaurentSeries.from_rational(1, parse_poly("z^2+z"), 256), 2, 4),
    ("random-bits", LaurentSeries(1, random.Random(12).getrandbits(400) | 1, 401), 2, 4),
    ("zero", LaurentSeries.zero(128), 2, 4),
]


@pytest.mark.parametrize("name,phi,degx,degz", KNOWN_CASES, ids=[c[0] for c in KNOWN_CASES])
def test_known_series_match_reference(name, phi, degx, degz):
    assert_matches_reference(phi, degx, degz)


def test_random_rationals_match_reference():
    rng = random.Random(31)
    for _ in range(15):
        num = rng.getrandbits(6) | 1
        den = rng.getrandbits(6) | (1 << 6)
        phi = LaurentSeries.from_rational(num, den, 256)
        for degx in (1, 2, 3):
            assert assert_matches_reference(phi, degx, 8) is not None


@pytest.mark.parametrize("family,hits", [("P", 42), ("G", 14)])
def test_small_period_specs_match_reference(family, hits):
    # every P spec has a relation of degree <= 2^n within degZ 2^n + 8;
    # 14 of the G specs do (the others need a larger degree or degZ)
    found = 0
    for n in (1, 2, 3):
        for bits in product("01", repeat=n):
            word = "".join(bits)
            if family == "P":
                specs, sp = [PSpec(w0, word) for w0 in ("", "1", "01")], SPB
            else:
                specs, sp = [GSpec("a", "b", word), GSpec("b", "a", word)], SPAB
            for spec in specs:
                phi, degz = _search_input(spec, sp, 1 << n, 256)
                found += assert_matches_reference(phi, 1 << n, degz) is not None
    assert found == hits


def _reversed_series(series: list[int], sigma: int) -> list[int]:
    return [int(f"{s:0{sigma}b}"[::-1], 2) for s in series]


def _entries(col: int, n: int) -> list[int]:
    """The polynomial entries of an interleaved basis column."""
    bits = f"{col:b}"[::-1]
    return [int(bits[i::n][::-1] or "0", 2) for i in range(n)]


def test_relation_columns_leave_one_live_column():
    # for rational phi the columns q, Xq and X^2 q of den*X + num are
    # relations, so the fourth column is live at every other order and
    # its degree runs to 250; the relation must still come out whole
    num, den = parse_poly("z"), parse_poly("z^2+z+1")
    phi = LaurentSeries.from_rational(num, den, 256)
    powers = [phi.pow(i) for i in range(4)]
    res = _reversed_series([(p.mask << p.val) & ((1 << 256) - 1) for p in powers], 256)
    cols, degs = _order_basis(res, 256)
    assert sorted(degs) == [2, 2, 2, 250]
    assert max(e.bit_length() for e in _entries(cols[degs.index(250)], 4)) == 251
    rel = assert_matches_reference(phi, 3, max_degz(phi, 3))
    assert rel.coeffs == (num, den)


def test_uncertified_degree_returns_none():
    # 1/(z^5+z^2+1): the relation has degZ 5, and prec 64 lets a degree-8
    # search certify degZ <= 2 (9 * 3 + 32 = 59), so no column counts
    den = parse_poly("z^5+z^2+1")
    phi = LaurentSeries.from_rational(1, den, 64)
    assert max_degz(phi, 8) == 2
    assert find_relation(phi, 8) is None
    deep = LaurentSeries.from_rational(1, den, 128)
    assert find_relation(deep, 8).coeffs == (1, den)
    assert find_relation(deep, 8, 4) is None  # explicit degz below the relation's


def test_pole_counts_the_order_of_the_unshifted_power():
    # phi = z^32 at prec 64: psi_0 = t^96 is 0 to the order 96 the basis
    # works to, so e_0 would pass for a degree-0 relation; the count runs
    # on the order psi_0 carries, prec - (degx - 1) * pole
    phi = LaurentSeries(-32, 1, 64)
    assert max_degz(phi, 3) < 0
    with pytest.raises(ValueError, match="needs precision 100"):
        find_relation(phi, 3)
    assert find_relation(LaurentSeries(-32, 1, 200), 3) is None  # degZ <= 25
    rel = find_relation(LaurentSeries(-32, 1, 300), 3)
    assert rel.render() == "X^1*(1) + X^0*(z^32)"


def test_relation_unchecked_to_its_precision_returns_none():
    # z^9/(z+1) + z^-K at prec 100, degX 3: the basis checks (z+1)X + z^9
    # only down to z^-75 (prec - 2 * pole - 9), its residual (z+1)z^-K is
    # known down to z^-91; for K in 76..90 it is not a relation
    r = LaurentSeries.from_rational(parse_poly("z^9"), parse_poly("z+1"), 100)
    for k, want in ((80, None), (90, None), (98, "X^1*(z+1) + X^0*(z^9)")):
        rel = find_relation(r + LaurentSeries(k, 1, 100), 3)
        assert (rel and rel.render()) == want
    assert find_relation(r, 3).render() == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_order_basis_is_triangular_and_annihilates(seed):
    # random series: every column annihilates to order sigma, its degree is
    # attained in its own entry and by no later entry (ties go to the
    # lowest index), and the degrees add up to the orders spent
    rng = random.Random(seed)
    sigma, n = 240, 5
    series = [rng.getrandbits(sigma) | 1 for _ in range(n)]
    cols, degs = _order_basis(_reversed_series(series, sigma), sigma)
    assert sum(degs) == sigma
    for j, (col, d) in enumerate(zip(cols, degs)):
        q = _entries(col, n)
        assert q[j].bit_length() == d + 1
        assert all(e.bit_length() <= d for e in q[j + 1:])
        acc = 0
        for e, s in zip(q, series):
            acc ^= clmul(e, s)
        assert acc & ((1 << sigma) - 1) == 0


# -- the Frobenius support of family P ---------------------------------------

LADDER = {3: "110", 4: "1101", 5: "11010", 6: "110100"}  # P rung -> period word


def frobenius_support(n: int) -> list[int]:
    """S_n = {0, 2^n - 2^j (j < n), 2^n}: the X-support of a root of an
    affine additive polynomial of degree 2^n, in ascending order."""
    return sorted([0, *((1 << n) - (1 << j) for j in range(n)), 1 << n])


@pytest.mark.parametrize("n", sorted(LADDER))
def test_frobenius_support_finds_the_dense_relation(n):
    # at the precision that certifies degZ 2^n + 8 the dense search over all 2^n + 1
    # powers finds a relation whose nonzero coefficients are exactly those
    # on S_n, and it is the exact relation derived over GF(2)(z)
    spec = PSpec("", LADDER[n])
    phi, _ = _search_input(spec, SPB, 1 << n, 512)
    dense = find_relation(phi, 1 << n)
    assert dense is not None and dense.degx == 1 << n
    assert [e for e, p in enumerate(dense.coeffs) if p] == frobenius_support(n)
    assert dense.coeffs == p_relation(spec, SPB).coeffs


# the precision of the search round that verified each rung's relation
# when the search doubled its precision from 512
LADDER_SEARCH_PREC = {3: 512, 4: 713, 5: 2409, 6: 8873}


@pytest.mark.parametrize("n", sorted(LADDER))
def test_support_missing_a_frobenius_column_falls_back_to_dense(n):
    # mutation control: the dense search's relation with its phi^(2^n - 1)
    # term dropped fails the re-verification the full relation passes
    degx, prec = 1 << n, LADDER_SEARCH_PREC[n]
    phi_fn, val = spec_series(PSpec("", LADDER[n]), SPB)
    dense = search_relation(phi_fn, degx, prec, val, max_degz(phi_fn(prec), degx))
    assert dense.verified and dense.found_degree == degx
    coeffs = list(dense.relation.coeffs)
    assert coeffs[degx - 1]
    coeffs[degx - 1] = 0
    residual = AlgRelation(tuple(coeffs)).evaluate(phi_fn(dense.verify_prec))
    assert not residual.is_zero and residual.known_zero_below() < dense.threshold


def test_dense_artifact_is_discarded_by_its_round():
    # w0=00, eps=0001 under 0=z^2, 1=z+1: a round to degZ 68 runs at its
    # certifying precision 1235, where the least-degree column (degZ 60)
    # gives a candidate that fails the 1.5x re-verification, so the round
    # drops it and keeps its residual bound.  The relation derived from the
    # letters has degZ 61 and verifies at that shape's precision 1116, where
    # the search's round to degZ 61 finds an artifact too; one round at
    # 2048, to the largest degZ 2048 certifies, finds that relation
    sp = SpecMap.parse("0=z^2,1=z+1")
    spec = PSpec("00", "0001")
    phi_fn, val = spec_series(spec, sp)
    artifact = find_relation(phi_fn(1235), 16, 68)
    assert artifact.degz == 60
    dropped = search_relation(phi_fn, 16, 256, val, 68)
    assert dropped.discovery_prec == 1235 and dropped.relation is None
    assert dropped.residual_bound == artifact.evaluate(dropped.oracle).known_zero_below() < dropped.threshold
    exact = _exact_round(p_relation(spec, sp), phi_fn, val, 256, 16)
    assert exact.verified and exact.relation.degz == 61 and exact.discovery_prec == 1116
    assert search_relation(phi_fn, 16, 256, val, 61).relation is None
    dense = search_relation(phi_fn, 16, 2048, val, max_degz(phi_fn(2048), 16))
    assert dense.verified and dense.relation == exact.relation


def _linear_norm(rho, c, a0, a, b0, b):
    """N(X) for Y = (X b + a) u + (X b0 + a0), u a root of rho T^2 + T + c,
    every coefficient a ``RationalField`` pair: the roots are u and
    u + 1/rho, so with alpha = X b + a and beta = X b0 + a0,
    N = alpha^2 c/rho + beta^2 + alpha beta/rho."""
    F = RationalField()
    add, mul, sq = F.add, F.mul, F.square
    inv = F.inv(rho)
    coeffs = [
        add(mul(mul(sq(a), c), inv), add(sq(a0), mul(mul(a, a0), inv))),
        mul(add(mul(a, b0), mul(b, a0)), inv),
        add(mul(mul(sq(b), c), inv), add(sq(b0), mul(mul(b, b0), inv))),
    ]
    return AlgRelation(tuple(_clear_denominators(coeffs)))


@pytest.mark.parametrize("a, b", [(1, 0b10), (1, 1), (0b11, 0b11)])
@pytest.mark.parametrize("rho, c", [(1, 0b10), (0b101, 0b11)])
@pytest.mark.parametrize("a0, b0", [(1, 0b11), (0b110, 1)])
def test_norm_relation_of_a_quadratic_root_is_its_norm(rho, c, a0, a, b0, b):
    # k = 1 against the norm written out by hand; with a = b, det V(X) =
    # a (1 + X) vanishes at the node 1, and the nodes move to U + z^2
    rho, c, a0, a, b0, b = ((x, 1) for x in (rho, c, a0, a, b0, b))
    assert norm_relation(rho, c, a0, [a], b0, [b]).coeffs == _linear_norm(rho, c, a0, a, b0, b).coeffs


def test_norm_relation_clears_its_denominators():
    # rho, c and the coefficients of A and B as fractions: one common
    # denominator and the step's factor rho_num c_den scale N by a constant
    F = RationalField()
    rho, c, a0, a, b0, b = (0b101, 0b11), (0b11, 0b111), (0b110, 0b11), (1, 0b111), F.one, (0b10, 0b11)
    assert norm_relation(rho, c, a0, [a], b0, [b]).coeffs == _linear_norm(rho, c, a0, a, b0, b).coeffs


def test_norm_relation_of_zero_is_none():
    # Y = 0: no column has a non-constant entry, and nothing reduces
    zero = (0, 1)
    assert norm_relation((1, 1), (0b10, 1), zero, [zero, zero], zero, [zero, zero]) is None
