"""Letter matrices, convergents, and both towers against independent oracles."""

import hashlib
import random
from itertools import accumulate, count, islice

import pytest

from cf2 import towers
from cf2.gf2m import field
from cf2.gf2poly import clgcd, clmul
from cf2.identities import all_driver_words, check_closed_form, check_generation_relations
from cf2.laurent import LaurentSeries
from cf2.mat2 import Mat2, RationalField, SeriesField
from cf2.theorems import check_theorem_g
from cf2.towers import (
    CF_BLOCK,
    CF_MARGIN,
    ClaimFailed,
    CoScaled,
    DegenerateDraw,
    GQuantities,
    HypothesisViolation,
    SpecMap,
    cf_series,
    convergent_pair,
    convergent_series,
    exact_g_quantities,
    exact_p_tower,
    g_cf_series,
    g_limits,
    g_start_pair,
    p_cf_series,
    p_limits,
    p_tower,
    pair_tower,
    predicted_det_val,
    word_matrix,
)
from cf2.words import GSpec, PSpec, g_normalize, g_prefix, g_sigma, p_prefix, p_to_g


def recursive_convergent(word, sp):
    """Independent oracle: [u0,...,un] = u0 + 1/[u1,...,un] over exact
    rational pairs (num, den)."""
    u = sp.poly(word[0])
    if len(word) == 1:
        return u, 1
    n, d = recursive_convergent(word[1:], sp)
    return clmul(u, n) ^ d, n


SP = SpecMap.parse("a=z,b=z+1,c=z^2+z+1")
# _limits_digest(512) as computed with every intermediate series at full width,
# the G start pair cut at the working precision and the G tail walked by the
# one-letter c step, whose series hold the working precision;
# test_g_limits_grid_agrees_with_the_closed_formulas holds the G half to the
# closed formulas
LIMITS_DIGEST_512 = "c339cb9100294fb0e8d5202a2fdb4f7d707c630342bfc9405045d92fee059cda"
# the P half of _limits_digest(4096) as computed with the tower multiplying
# by its letters' inverses, before it divided by the letters; a letter's
# division there runs up to 12 Frobenius factors
LIMITS_DIGEST_4096 = "588a6ba03dbbc262f4a66fd0a1b9edff8ad04b2ab3d8e259e96885ded1305216"


def test_specmap_validation():
    with pytest.raises(ValueError):
        SpecMap.parse("a=1")
    with pytest.raises(ValueError):
        SpecMap.parse("a=z,a=z+1")
    with pytest.raises(ValueError):
        SP.poly("q")


def test_letter_matrix_det():
    F = SeriesField(32)
    x = LaurentSeries(-1, 1, 32)  # z
    ix = F.inv(x)
    m = Mat2(F, F.one, ix, ix, F.zero)
    assert m.det().valuation == 2  # 1/z^2


def test_single_letter_convergent():
    p, q = convergent_pair("a", SP)
    assert p == 0b10 and q == 1


def test_one_fold():
    p, q = convergent_pair("aa", SP)  # z + 1/z
    assert p == 0b101 and q == 0b10


def test_convergent_matches_recursive_oracle():
    rng = random.Random(3)
    for _ in range(40):
        word = "".join(rng.choice("abc") for _ in range(rng.randrange(1, 9)))
        p, q = convergent_pair(word, SP)
        n, d = recursive_convergent(word, SP)
        # pairs agree up to the gcd (continuant pairs are coprime)
        assert clmul(p, d) == clmul(q, n)
        assert clgcd(p, q) == 1


def test_convergent_pair_matches_the_polynomial_recurrence_on_every_prefix():
    # letters of up to three terms, so the raw-int loop shifts several taps;
    # every prefix of up to 40 letters, each block boundary +-1, and a word
    # that spans three blocks of CF_BLOCK, an odd count for the tree
    sp = SpecMap.parse("a=z^5+z^2+1,b=z^3+z")
    rng = random.Random(5)
    lengths = [*range(1, 41), *(k * CF_BLOCK + e for k in (1, 2) for e in (-1, 0, 1)), 2 * CF_BLOCK + 88]
    word = "".join(rng.choice("ab") for _ in range(lengths[-1]))
    p_prev, q_prev = 1, 0
    p, q = sp.poly(word[0]), 1
    want = [(p, q)]
    for letter in word[1:]:
        u = sp.poly(letter)
        p, p_prev = clmul(u, p) ^ p_prev, p
        q, q_prev = clmul(u, q) ^ q_prev, q
        want.append((p, q))
    assert [convergent_pair(word[:i], sp) for i in lengths] == [want[i - 1] for i in lengths]


def test_convergent_pair_names_an_unmapped_letter():
    sp = SpecMap.parse("a=z")
    assert convergent_pair("aa", sp) == (0b101, 0b10)
    with pytest.raises(ValueError, match="unmapped letter 'b'"):
        convergent_pair("aab", sp)
    with pytest.raises(ValueError, match="empty word has no convergent"):
        convergent_pair("", sp)


def test_cf_series_stops_at_the_first_degree_sum_past_the_margin(monkeypatch):
    # under a=z, deg q_i = i, so the stop index i is the first with
    # (i - 1) + i >= prec + CF_MARGIN, and cf_series reads letters 1 .. i
    sp = SpecMap.parse("a=z")
    built = []

    def spy(word, sp):
        built.append(word)
        return convergent_pair(word, sp)

    monkeypatch.setattr(towers, "convergent_pair", spy)
    for prec in (1, 2, 17, 64):
        stop = next(i for i in count(1) if 2 * i - 1 >= prec + CF_MARGIN)
        word = "a" * (stop + 1)
        want = LaurentSeries.from_rational(*convergent_pair(word[:stop], sp), prec)
        assert cf_series(word, sp, prec) == want
        # a letter past the stop index is never read
        assert cf_series(word + "b", sp, prec) == want
        with pytest.raises(ValueError, match="unmapped letter 'b'"):
            cf_series(word[:stop] + "b", sp, prec)
        short = word[:stop]
        built.clear()
        with pytest.raises(ValueError) as err:
            cf_series(short, sp, prec)
        assert str(err.value) == (
            f"prefix of length {stop} too short for precision {prec}"
            f" (denominator degree reached {stop - 1})"
        )
        # the shortfall is the degree the loop summed; no convergent is built
        assert built == []
    with pytest.raises(ValueError, match="^empty word has no convergent$"):
        cf_series("", sp, 8)


def test_convergent_series_expansion():
    s = convergent_series("aaa", SpecMap.parse("a=z"), 8)
    assert str(s) == "z + z^-1 + z^-3 + z^-5 + z^-7 + O(z^-8)"


def letter_by_letter(word, sp, F):
    """Reference word matrix: F(w_last) ... F(w_first), one letter matrix
    ((1, 1/x), (1/x, 0)) at a time, with 1/x from the field's own inverse:
    over series, of x = z^d + ... as a series known to F.prec - 2d, so 1/x
    is known to F.prec."""
    m = Mat2.identity(F)
    for letter in word:
        x = sp.poly(letter)
        if isinstance(F, RationalField):
            ix = F.inv((x, 1))
        else:
            d = x.bit_length() - 1
            ix = F.inv(LaurentSeries(-d, int(f"{x:b}"[::-1], 2), F.prec - 2 * d))
        m = Mat2(F, F.one, ix, ix, F.zero).mul(m)
    return m


@pytest.mark.parametrize("spec", ["a=z,b=z+1", "a=z,b=z^3+z+1", "a=z^2+z,b=z^5+z"])
def test_word_matrix_is_the_letter_by_letter_product(spec):
    # one word product divided once by the letters' product agrees with the
    # letter-by-letter product to the working precision, entry for entry and
    # with the same valuation; over K the two are equal
    sp = SpecMap.parse(spec)
    rng = random.Random(spec)
    for prec in (64, 512):
        F = SeriesField(prec)
        for _ in range(12):
            word = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 129)))
            got, want = word_matrix(word, sp, F), letter_by_letter(word, sp, F)
            for x, y in zip((got.a, got.b, got.c, got.d), (want.a, want.b, want.c, want.d)):
                assert x.prec == prec and x.agrees(y) and x.valuation == y.valuation
    K = RationalField()
    for _ in range(12):
        word = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 129)))
        assert word_matrix(word, sp, K).eq(letter_by_letter(word, sp, K))


def test_empty_word_product_is_the_identity():
    assert towers._word_product("", SP) == (1, 0, 0, 1)
    for F in (SeriesField(64), RationalField()):
        assert word_matrix("", SP, F).eq(Mat2.identity(F))


def test_word_matrix_ratio_is_convergent():
    F = SeriesField(128)
    rng = random.Random(8)
    for _ in range(10):
        word = "".join(rng.choice("abc") for _ in range(rng.randrange(1, 7)))
        m = word_matrix(word, SP, F)
        p, q = convergent_pair(word, SP)
        ratio = m.a * m.b.inv()
        direct = LaurentSeries.from_rational(p, q, ratio.prec)
        assert ratio.agrees(direct)


def test_cf_series_needs_long_enough_word():
    with pytest.raises(ValueError):
        cf_series("ab", SP, 64)


def test_ptower_ratio_consistency():
    spec = PSpec("a", "b")
    t = p_tower(spec, SP, 256)
    for n, m in enumerate(islice(t.matrices(), 4), start=1):
        # tower matrix is the descending product over the current word
        word = p_prefix(spec, (1 << n) * 2 - 1)
        p, q = convergent_pair(word, SP)
        ratio = m.a * m.b.inv()
        assert ratio.agrees(LaurentSeries.from_rational(p, q, ratio.prec))


def test_ptower_det_multiplicative():
    t = p_tower(PSpec("ab", "c"), SP, 200)
    for m in islice(t.matrices(), 3):
        t.advance()
        assert (t.ds[-1] + m.det()).is_zero


@pytest.mark.parametrize("w0", ["10", "011", "ab"])
def test_ptower_step_scalar_is_read_off_the_matrices(w0):
    # a non-palindromic w0 has b_0 != c_0, so l_j = L_j s_j carries the
    # 1/e_j of s_j; it must be the (b_j + c_j)/e_j + a_j of the doubled matrix
    sp = SP if w0 == "ab" else SpecMap.parse("0=z,1=z^3+z+1")
    t = p_tower(PSpec(w0, "ba" if w0 == "ab" else "110"), sp, 256)
    for j, m in enumerate([t.m0, *islice(t.matrices(), 5)]):
        t.advance()
        e = t.eps[j % t.period]
        assert t.l(j).agrees((m.b + m.c).div(e) + m.a)


def test_ptower_step_scalar_char2():
    # seed word "a": (1/a + 1/a)/e + 1 = 1
    t = p_tower(PSpec("a", "b"), SP, 64)
    assert t.l(0).mask == 1 and t.l(0).val == 0


LEVEL_MAPS = ("0=z,1=z+1", "0=z^3+z+1,1=z", "0=z^2,1=z+1")
LEVEL_EPS = ("1", "10", "110", "1101", "11010", "110100", "1101000")  # periods 1-7


@pytest.mark.parametrize("w0", ["", "0", "10", "010", "0010", "011"])
def test_level_pair_is_the_prefix_convergent_pair(w0):
    # every length below |w0|, and |W_j| - 1, |W_j|, |W_j| + 1 for each level
    # up to three blocks: palindromic and non-palindromic w0, periods 1-7
    lengths = set(range(1, len(w0) + 1))
    n = len(w0)
    while n <= 3 * CF_BLOCK:
        lengths |= {n - 1, n, n + 1} - {-1, 0}
        n = 2 * n + 1
    for text in LEVEL_MAPS:
        sp = SpecMap.parse(text)
        for eps in LEVEL_EPS:
            spec = PSpec(w0, eps)
            for L in sorted(lengths):
                assert towers._p_level_pair(spec, sp, L) == convergent_pair(p_prefix(spec, L), sp), (eps, text, L)


def test_p_cf_series_is_the_prefix_oracle():
    # the level pair at cf_series' own stop index: the same series, bit for bit
    def same(spec, sp, prec):
        got, want = p_cf_series(spec, sp, prec), towers.cf_series_of(lambda L: p_prefix(spec, L), sp, prec)
        assert (got.val, got.mask, got.prec) == (want.val, want.mask, want.prec), (spec, str(sp), prec)

    for text in LEVEL_MAPS:
        sp = SpecMap.parse(text)
        for w0 in ("", "0", "10", "010", "0010", "011"):
            for eps in ("1", "10", "110", "11010", "1101000"):
                for prec in (64, 512, 3000):
                    same(PSpec(w0, eps), sp, prec)
    same(PSpec("10", "110"), SpecMap.binary_default(), 16384)


def test_p_limits_match_direct():
    spb = SpecMap.binary_default()
    for w0, eps in [("", "10"), ("1", "10"), ("01", "110"), ("", "0")]:
        if not w0 and len(eps) == 1:
            continue
        spec = PSpec(w0, eps)
        lim = p_limits(spec, spb, 256)
        direct = p_cf_series(spec, spb, 256)
        assert (lim.cf + direct).is_zero
        assert lim.residual_f().is_zero
        assert lim.residual_h0().is_zero
        for j in range(1, len(eps)):
            assert lim.residual_hj(j).is_zero


def _expand(x, prec):
    """A RationalField pair as its series in 1/z."""
    return LaurentSeries.from_rational(*x, prec)


def test_rational_field_matches_series_arithmetic():
    # operands share factors, so every cancellation branch of add and mul runs
    F = RationalField()
    rng = random.Random(21)
    poly = lambda bits: rng.getrandbits(bits) | 1 << (bits - 1)  # noqa: E731
    frac = lambda num, den: F.mul((num, 1), F.inv((den, 1)))  # noqa: E731
    for _ in range(200):
        g, h = poly(rng.randrange(1, 6)), poly(rng.randrange(1, 6))
        x = frac(clmul(poly(rng.randrange(1, 30)), g), clmul(poly(rng.randrange(1, 30)), h))
        y = frac(clmul(poly(rng.randrange(1, 30)), h), clmul(poly(rng.randrange(1, 30)), g))
        for z in (F.add(x, y), F.mul(x, y), F.square(x), F.inv(y), F.pow(x, 5), F.pow(y, -3), F.add(x, x)):
            assert z[1] != 0 and clgcd(*z) == 1, z
        prec = 256
        sx, sy = _expand(x, prec), _expand(y, prec)
        assert _expand(F.add(x, y), prec).agrees(sx + sy)
        assert _expand(F.mul(x, y), prec).agrees(sx * sy)
        assert F.square(x) == F.mul(x, x) and F.pow(x, 5) == F.mul(F.pow(x, 4), x)
        assert F.mul(x, F.inv(x)) == F.one and F.pow(y, -3) == F.inv(F.pow(y, 3))
        assert F.add(x, x) == F.zero and F.is_zero(F.add(x, x)) and F.eq(F.add(x, F.zero), x)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


@pytest.mark.parametrize("w0, eps", [("", "10"), ("10", "110"), ("1", "1010"), ("", "11010")])
def test_exact_ptower_expands_to_the_series_tower(w0, eps):
    # the tower over GF(2)(z) holds every scalar the series tower holds, and
    # its tail step T_1 = rho T_0^(2^n) holds exactly
    spec, prec = PSpec(w0, eps), 256
    sp = SpecMap.binary_default()
    exact, series = exact_p_tower(spec, sp), p_tower(spec, sp, prec)
    n = spec.period
    for _ in range(n + 1):
        exact.advance()
        series.advance()
    F = exact.F
    pairs = [(exact.term(0), series.term(0))]
    pairs += [(exact.residue_factor(j), series.residue_factor(j)) for j in range(n + 1)]
    pairs += list(zip(exact.Ls, series.Ls))
    for x, y in pairs:
        assert not y.is_zero and _expand(x, prec).agrees(y)
    rho, t0 = exact.residue_factor(n), exact.term(0)
    assert exact.term(n) == F.mul(rho, F.pow(t0, 1 << n))


@pytest.mark.parametrize("w0, eps", [("10", "110"), ("011", "1101"), ("0", "01")])
def test_exact_det_ratio_is_the_determinant_drift(w0, eps):
    # over K with w0 != "", d_0 is not 1, so d_j / d_0^(2^j) is not d_j itself
    t = exact_p_tower(PSpec(w0, eps), SpecMap.parse("0=z,1=z^3+z+1"))
    F = t.F
    assert t.ds[0] != F.one
    for j in range(2 * t.period + 1):
        assert t.det_ratio(j) == F.div(t.ds[j], F.pow(t.ds[0], 1 << j))
        t.advance()


def _drawn_p_tower(n: int, seed: int) -> towers.PTower:
    """A period-n P tower over GF(2^16) from a drawn start matrix and letters."""
    F = field(16)
    rng = random.Random(seed)
    while True:
        m0 = Mat2(F, *(F.sample(rng) for _ in range(4)))
        try:
            return towers.PTower(F, m0, [F.sample_invertible(rng) for _ in range(n)])
        except DegenerateDraw:
            continue


def _residue_factor_reference(t: towers.PTower, j: int):
    """det_ratio(j) L_1^(2^j) / L_(j+1) from the walked running products for
    j < n, and at j = n the tail shift's own formula,
    rho = det_ratio(n) L_1^(2^n - 1) / L_n^2."""
    F, n = t.F, t.period
    if j < n:
        return F.mul(F.mul(t.det_ratio(j), F.pow(t.Ls[1], 1 << j)), F.inv(t.Ls[j + 1]))
    shifted = F.mul(t.det_ratio(n), F.pow(t.Ls[1], (1 << n) - 1))
    return F.mul(shifted, F.pow(F.inv(t.Ls[n]), 2))


@pytest.mark.parametrize("eps", ["1", "10", "110", "1101"])
def test_residue_factor_at_one_period_is_the_tail_shift(eps):
    # after n steps, L_(n+1) is not walked: residue_factor(n) takes it as a
    # step would, L_n^2 s_0 = L_n^2 L_1, and so equals rho, over K (start word
    # and letters of distinct degrees) and on drawn GF(2^16) towers
    n = len(eps)
    exact = exact_p_tower(PSpec("10", eps), SpecMap.parse("0=z,1=z^3+z+1"))
    for t in [exact, *(_drawn_p_tower(n, seed) for seed in range(20))]:
        for _ in range(n):
            t.advance()
        assert len(t.Ls) == n + 1
        for j in range(n + 1):
            assert t.F.eq(t.residue_factor(j), _residue_factor_reference(t, j)), (t.F, j)


@pytest.mark.parametrize("u0, v0, ups", [("a", "b", "011"), ("ab", "ca", "0110"), ("abcab", "cbbac", "11")])
def test_exact_g_pair_is_the_word_matrices_times_their_letters(u0, v0, ups):
    # m1 = w0 m0 is the word matrix of u0 v0 over K, walked letter by letter
    # with exact letter inverses, and w1 that of v0 u0, both times the
    # product of the letters of u0 v0; the driver word is the normalized spec's
    F = RationalField()
    norm = g_normalize(GSpec(u0, v0, ups))
    q = exact_g_quantities(norm, SP)
    u, v = norm.spec.u0, norm.spec.v0
    scale = F.one
    for letter in u + v:
        scale = F.mul(scale, (SP.poly(letter), 1))
    assert isinstance(q.F, RationalField)
    assert q.m1.eq(letter_by_letter(u + v, SP, F).scale(scale))
    assert q.w1.eq(letter_by_letter(v + u, SP, F).scale(scale))
    assert q.s == norm.s

    # and exactly the products of the start matrices, the transposed word products
    def start(word):
        a, b, c, d = towers._word_product(word, SP)
        return Mat2(F, (a, 1), (c, 1), (b, 1), (d, 1))

    assert q.m1.eq(start(v).mul(start(u))) and q.w1.eq(start(u).mul(start(v)))


@pytest.mark.parametrize("spec", ["a=z,b=z+1", "a=z,b=z^3+z+1", "a=z^2+z+1,b=z^3"])
def test_g_start_pair_is_the_product_of_the_start_matrices(spec):
    # m1 and w1, each one word product of u0 v0 or v0 u0 cut at the working
    # precision, agree below it with w0 m0 and m0 w0 of the word matrices
    sp = SpecMap.parse(spec)
    rng = random.Random(spec)
    prec = 512
    for length in (1, 2, 3, 17, 64, 128):
        u0, v0 = ("".join(rng.choice("ab") for _ in range(length)) for _ in range(2))
        F, m1, w1 = g_start_pair(GSpec(u0, v0, "11"), sp, prec)
        m0, w0 = word_matrix(u0, sp, F), word_matrix(v0, sp, F)
        for got, want in ((m1, w0.mul(m0)), (w1, m0.mul(w0))):
            for x, y in zip((got.a, got.b, got.c, got.d), (want.a, want.b, want.c, want.d)):
                assert x.prec == prec and x.agrees(y) and x.valuation == y.valuation, (length, u0, v0)


def test_series_ptower_determinants_keep_only_the_working_precision():
    # d_(j+1) = (d_j / e_j)^2 is squared at the working precision, or to one
    # coefficient past its exact valuation once that lies beyond it
    spb = SpecMap.binary_default()
    for spec, prec in [(PSpec("10", "110"), 512), (PSpec("", "10"), 300), (PSpec("011", "1101"), 1024)]:
        t = p_tower(spec, spb, prec)
        for _ in range(4 * prec.bit_length()):
            t.advance()
        for j, d in enumerate(t.ds):
            assert d.val == predicted_det_val(spec, spb, j)
            if j:
                assert d.prec == max(prec, d.val + 1)
                assert d.mask.bit_length() <= d.prec - d.val


def _limits_digest(prec: int, with_g: bool = True) -> str:
    """sha256 over (val, mask, prec) of f, cf, H and the residuals of a
    small P and G grid, or of its P half."""
    def key(x):
        return x.val, x.mask, x.prec

    out = []
    for one in ("z+1", "z^3+z+1"):
        sp = SpecMap.parse(f"0=z,1={one}")
        for w0, eps in [("", "10"), ("10", "110"), ("011", "1101"), ("1", "0110")]:
            lim = p_limits(PSpec(w0, eps), sp, prec)
            series = [lim.f, lim.cf, *lim.H, lim.residual_f(), lim.residual_h0()]
            out.append([key(x) for x in series + [lim.residual_hj(j) for j in range(1, len(eps))]])
        if not with_g:
            continue
        sp = SpecMap.parse(f"a=z,b={one}")
        for u0, v0, ups in [("a", "b", "11"), ("ab", "ba", "101"), ("ab", "bb", "0011")]:
            lim = g_limits(GSpec(u0, v0, ups), sp, prec)
            series = [lim.f, lim.cf, lim.H1.u, *(h.u for h in lim.Hs), lim.residual_f(), lim.residual_h()]
            out.append([key(x) for x in series])
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_limits_hash_grid_is_frozen():
    # every series the limits return keeps its val, mask and prec exactly
    assert _limits_digest(512) == LIMITS_DIGEST_512
    assert _limits_digest(4096, with_g=False) == LIMITS_DIGEST_4096


@pytest.mark.parametrize("e", ["z", "z+1", "z^3+z+1", "z^4+z^3+z^2+z+1"])
def test_tower_letters_invert_to_the_letter_matrix_entry(e):
    # the tower divides by its letters; their inverses are the off-diagonal
    # entry of the one-letter word matrix ((1, 1/e), (1/e, 0)), bit for bit
    sp = SpecMap.parse(f"a=z,b={e}")
    spec = PSpec("a", "b")
    for prec in (64, 512, 16384):
        t = p_tower(spec, sp, prec)
        got, want = t.F.inv(t.eps[0]), word_matrix("b", sp, t.F).b
        assert (got.val, got.mask, got.prec) == (want.val, want.mask, want.prec)
    t = exact_p_tower(spec, sp)
    assert t.eps[0] == (sp.poly("b"), 1)
    assert t.F.inv(t.eps[0]) == word_matrix("b", sp, t.F).b


@pytest.mark.parametrize("prec", [64, 4096])
def test_expansion_is_the_sum_of_scaled_insertion_matrices(prec):
    # entry for entry, in val, mask and prec: m_0 + sum of H_j ((0, 1/e_j), (1/e_j, 1))
    for spec in (PSpec("10", "110"), PSpec("011", "1101")):
        lim = p_limits(spec, SpecMap.parse("0=z,1=z^3+z+1"), prec)
        t, F = lim.tower, lim.tower.F
        want = t.m0
        for e, w in zip(t.eps, lim.H):
            ix = F.inv(e)
            want = want.add(Mat2(F, F.zero, ix, ix, F.one).scale(w))
        got = t.expansion(lim.H)
        for x, y in zip((got.a, got.b, got.c, got.d), (want.a, want.b, want.c, want.d)):
            assert (x.val, x.mask, x.prec) == (y.val, y.mask, y.prec)


def test_g_limits_grid_agrees_with_the_closed_formulas():
    # the G half of the frozen grid against H_1 summed along the closed
    # shift rho t^(2^k), the closed H_j, their limit sum and equation H,
    # below the common precision; no series falls below the working one
    prec = 512
    for one in ("z+1", "z^3+z+1"):
        sp = SpecMap.parse(f"a=z,b={one}")
        for u0, v0, ups in [("a", "b", "11"), ("ab", "ba", "101"), ("ab", "bb", "0011")]:
            lim = g_limits(GSpec(u0, v0, ups), sp, prec)
            q = lim.quants
            t = H1 = q.c[0]
            for _ in lim.Ls[1:]:
                t = _closed_shift(q, t)
                H1 = q.cs_add(H1, t)
            Hs = _closed_limit_terms(q, H1)
            acc = q.m1
            for h in Hs:
                acc = acc.add(q.cs_to_mat(h))
            residual_h = q.cs_add(_closed_shift(q, H1), q.cs_add(q.c[0], H1)).u
            assert _cs_agrees(lim.H1, H1, prec), (one, ups)
            assert all(_cs_agrees(x, y, prec) for x, y in zip(lim.Hs, Hs, strict=True)), (one, ups)
            cf = towers.cf_ratio(acc)
            assert lim.cf.agrees(cf) and lim.residual_h().agrees(residual_h), (one, ups)
            # the ratio of the limit sum's entries loses bits to its division either way
            series = [lim.f, lim.H1.u, *(h.u for h in lim.Hs), lim.residual_f(), lim.residual_h()]
            assert min(x.prec for x in series) >= prec and lim.cf.prec >= cf.prec, (one, ups)


def test_pair_tower_base_case():
    F = field(16)
    rng = random.Random(1)
    m0 = Mat2(F, *(F.sample(rng) for _ in range(4)))
    w0 = Mat2(F, *(F.sample(rng) for _ in range(4)))
    m1, w1 = pair_tower(m0, w0, "")
    assert m1.eq(w0.mul(m0)) and w1.eq(m0.mul(w0))
    m10, _ = pair_tower(m0, w0, "0")
    assert m10.eq(m1.mul(m1))
    m11, _ = pair_tower(m0, w0, "1")
    assert m11.eq(w1.mul(m1))


def _random_quants(s, seed=0):
    F = field(16)
    rng = random.Random(seed)
    while True:
        m0 = Mat2(F, *(F.sample(rng) for _ in range(4)))
        w0 = Mat2(F, *(F.sample(rng) for _ in range(4)))
        try:
            return F, GQuantities(F, w0.mul(m0), m0.mul(w0), s)
        except DegenerateDraw:
            continue


def test_quantities_spot_values_s11():
    F, q = _random_quants("11")
    inv_cross = q.cross.scale(q.inv_gamma)
    # c1 = d/cross, c2 = d^2/(r cross^2), l = r cross^2
    assert q.cs_to_mat(q.c[0]).eq(inv_cross.scale(q.d))
    c2 = F.mul(F.square(q.d), F.mul(q.inv_r, q.inv_gamma))
    assert q.cs_to_mat(q.c[1]).eq(Mat2.scalar(F, c2))
    assert F.eq(q.l_scalar, F.mul(q.r, q.gamma))


def test_quantities_spot_values_s101():
    F, q = _random_quants("101")
    inv_cross = q.cross.scale(q.inv_gamma)
    assert q.cs_to_mat(q.c[0]).eq(inv_cross.scale(q.d))
    # c2 = d^2/cross^3 = (d^2/gamma) * cross^-1
    c2 = q.cs_to_mat(q.c[1])
    assert c2.eq(inv_cross.scale(F.mul(F.square(q.d), q.inv_gamma)))
    # c3 = d^4/(r cross^6), l = r cross^6
    c3 = F.mul(F.pow(q.d, 4), F.mul(q.inv_r, F.pow(q.inv_gamma, 3)))
    assert q.cs_to_mat(q.c[2]).eq(Mat2.scalar(F, c3))
    assert F.eq(q.l_scalar, F.mul(q.r, F.pow(q.gamma, 3)))


@pytest.mark.parametrize("s, odd", [("11", 0), ("0", 0), ("1", 1), ("10", 1)])
def test_closed_pair_equals_product_by_period_matrix(s, odd):
    # the matrix formula (first + even + odd cross) * l is the oracle of
    # closed_pair's scalar-coordinate entries, for both digit parities and
    # zero sums included
    F, q = _random_quants(s, seed=3)
    assert q.l_cs.odd == odd
    rng = random.Random(5)
    scale = q.cs_to_mat(q.l_cs)
    sums = [(F.sample(rng), F.sample(rng)) for _ in range(20)]
    sums += [(0, 0), (F.sample_invertible(rng), 0), (0, F.sample_invertible(rng))]
    for even, odd_sum in sums:
        acc = Mat2.scalar(F, even).add(q.cross.scale(odd_sum))
        for t in (0, 1):
            first, second = (q.w1, q.m1) if t else (q.m1, q.w1)
            cm, cw = q.closed_pair(t, even, odd_sum, q.l_cs)
            for got, base in ((cm, first), (cw, second)):
                want = base.add(acc).mul(scale)
                assert got == (want.a, want.b, want.c, want.d)


def test_quantities_spot_values_s0():
    F, q = _random_quants("0")
    # c1 = d/r, l = r
    assert q.cs_to_mat(q.c[0]).eq(Mat2.scalar(F, F.mul(q.d, q.inv_r)))
    assert F.eq(q.l_scalar, q.r)


def _mat_pow(m, n):
    """m^n for any integer n; a negative n goes through the adjugate over det."""
    F = m.F
    if n < 0:
        m, n = Mat2(F, m.d, m.b, m.c, m.a).scale(F.inv(m.det())), -n
    out = Mat2.identity(F)
    for _ in range(n):
        out = out.mul(m)
    return out


def test_coscaled_algebra_matches_matrices():
    # each CoScaled op and the test-side monomial against the matrices they
    # stand for, negative exponents of both parities included
    F, q = _random_quants("", seed=7)
    rng = random.Random(11)
    r = Mat2.scalar(F, q.r)
    for i in (-3, -2, 0, 1, 2):
        for a in (-3, -2, -1, 0, 1, 2, 3):
            assert q.cs_to_mat(_monomial(q, i, a)).eq(_mat_pow(r, i).mul(_mat_pow(q.cross, a)))
    for x_odd in (0, 1):
        x = CoScaled(F.sample_invertible(rng), x_odd)
        xm = q.cs_to_mat(x)
        for y_odd in (0, 1):
            y = CoScaled(F.sample_invertible(rng), y_odd)
            assert q.cs_to_mat(q.cs_mul(x, y)).eq(xm.mul(q.cs_to_mat(y)))
            if x_odd == y_odd:
                assert q.cs_to_mat(q.cs_add(x, y)).eq(xm.add(q.cs_to_mat(y)))
            else:
                with pytest.raises(ValueError, match="parity"):
                    q.cs_add(x, y)
        assert q.cs_to_mat(q.cs_inv(x)).eq(_mat_pow(xm, -1))
        for n in (-3, -2, -1, 0, 1, 2, 3):
            assert q.cs_to_mat(q.cs_pow(x, n)).eq(_mat_pow(xm, n))


def _exact(x):
    """A field element as a comparable value: a series by (val, mask, prec)."""
    return (x.val, x.mask, x.prec) if isinstance(x, LaurentSeries) else x


def _cs_exact(x):
    return _exact(x.u), x.odd


def _monomial(q, i, a):
    """r^i cross^a for any integers i, a: u = r^i gamma^(a // 2), odd = a & 1."""
    F, g = q.F, a // 2
    return CoScaled(
        F.mul(
            F.pow(q.r, i) if i >= 0 else F.pow(q.inv_r, -i),
            F.pow(q.gamma, g) if g >= 0 else F.pow(q.inv_gamma, -g),
        ),
        a & 1,
    )


def _prefix_e(q):
    """e_j = e(s(j)) of every prefix of the driver word, j = 1..k."""
    return list(accumulate(q.stats.delta, lambda e, t: 2 * e + t))


def _closed_c_and_l(q):
    """Oracle of the step: c_j = d^(2^(j-1)) r^-(2^j - 1 - e_j) cross^-e_j
    and l = r^(2^k - 1 - e_k) cross^e_k, with the powers of r and cross
    from ``_monomial`` and d^(2^(j-1)) as j - 1 squares in the field."""
    F, d, cs, es = q.F, q.d, [], _prefix_e(q)
    for j, e in enumerate(es, start=1):
        x = _monomial(q, e + 1 - (1 << j), -e)
        cs.append(CoScaled(F.mul(d, x.u), x.odd))
        d = F.square(d)
    return cs, _monomial(q, (1 << q.k) - 1 - es[-1], es[-1])


def _closed_rho(q):
    """rho = c_1'/l / c_1^(2^k) once its powers of d cancel:
    r^((1 - e_1) n - 2(n - e_k)) cross^(e_1 n - 2 e_k) with n = 2^k - 1."""
    es = _prefix_e(q)
    e1, ek, n = es[0], es[-1], (1 << q.k) - 1
    return _monomial(q, (1 - e1) * n - 2 * (n - ek), e1 * n - 2 * ek)


def _closed_shift(q, t):
    return q.cs_mul(q.cs_pow(t, 1 << q.k), _closed_rho(q))


def _closed_limit_terms(q, H1):
    """H_j = H_1^(2^(j-1)) c_j / c_1^(2^(j-1)), the ratio being
    r^(1 + e_j - (1 + e_1) 2^(j-1)) cross^(e_1 2^(j-1) - e_j)."""
    es, Hs = _prefix_e(q), [H1]
    for j in range(2, q.k + 1):
        h = 1 << (j - 1)
        Hs.append(q.cs_mul(q.cs_pow(H1, h), _monomial(q, 1 + es[j - 1] - (1 + es[0]) * h, es[0] * h - es[j - 1])))
    return Hs


def _cs_agrees(x, y, prec):
    """Equal cross parity, and u equal below the common precision, which
    is at least prec for both."""
    return x.odd == y.odd and x.u.agrees(y.u) and min(x.u.prec, y.u.prec) >= prec


def _pair_over(F, seed=0):
    """A nondegenerate cross pair (m1, w1) drawn over GF(2^m)."""
    rng = random.Random(seed)
    while True:
        m0 = Mat2(F, *(F.sample(rng) for _ in range(4)))
        w0 = Mat2(F, *(F.sample(rng) for _ in range(4)))
        try:
            q = GQuantities(F, w0.mul(m0), m0.mul(w0))
        except DegenerateDraw:
            continue
        return q.m1, q.w1


def _series_pair(prec=512):
    return g_start_pair(GSpec("ab", "ba", "11"), SpecMap.parse("a=z,b=z^3+z+1"), prec)


@pytest.mark.parametrize("m", [2, 16, 17, "series"])
def test_step_matches_the_closed_formula_on_every_prefix(m):
    # GF(4), the tabled GF(2^16), the tableless GF(2^17), and series at
    # prec 512 to the last (val, mask, prec): every c_j and l the one-letter
    # step walks to equals its closed formula
    if m == "series":
        F, m1, w1 = _series_pair()
    else:
        F = field(m)
        m1, w1 = _pair_over(F, seed=m)
    assert m != 17 or F._exp is None
    for s in all_driver_words(8):
        q = GQuantities(F, m1, w1, s)
        cs, l = _closed_c_and_l(q)
        assert [_cs_exact(c) for c in q.c] == [_cs_exact(c) for c in cs], s
        assert _cs_exact(q.l_cs) == _cs_exact(l), s


@pytest.mark.parametrize("m", [16, 17, "series"])
def test_factor_tables_give_kappa_and_lambda_times_the_square(m):
    # u^2 times entry [b][t] of each table, of cross parity t, is kappa_t x^2
    # and lambda_t x^2 for x = u cross^b as matrices: x^2 through cs_mul,
    # kappa = (1/r, cross/gamma) and lambda = (r, cross) from r and cross
    if m == "series":
        F, m1, w1 = _series_pair()
    else:
        F = field(m)
        m1, w1 = _pair_over(F, seed=m)
    assert m != 17 or F._exp is None
    q = GQuantities(F, m1, w1)
    kappa = [Mat2.scalar(F, q.inv_r), q.cross.scale(q.inv_gamma)]
    lam = [Mat2.scalar(F, q.r), q.cross]
    assert all(kappa[t].mul(lam[t]).eq(Mat2.identity(F)) for t in (0, 1))
    for u in (q.d, m1.b, w1.c):
        for b in (0, 1):
            x = CoScaled(u, b)
            x2 = q.cs_to_mat(q.cs_mul(x, x))
            for t in (0, 1):
                for table, factor in ((q._kappa_x2, kappa), (q._lambda_x2, lam)):
                    got = q._times_square(x, t, table)
                    assert got.odd == t and q.cs_to_mat(got).eq(factor[t].mul(x2)), (b, t)


@pytest.mark.parametrize("m", [16, 17, "series"])
def test_c_is_walked_on_first_read_as_the_step_loop_built_it(m):
    # c_1 and l are built with the quantities and c_2..c_k only when c is
    # read: equal to the last (val, mask, prec) to the c_j and l of the
    # one-letter step walked from the empty prefix
    if m == "series":
        F, m1, w1 = _series_pair()
    else:
        F = field(m)
        m1, w1 = _pair_over(F, seed=m)
    for s in all_driver_words(6):
        q = GQuantities(F, m1, w1, s)
        assert "c" not in q.__dict__
        c, l, cs = None, CoScaled(F.one, 0), []
        for t in q.stats.delta:
            c, l = q.step(c, l, t)
            cs.append(c)
        assert _cs_exact(q.c1) == _cs_exact(cs[0]) and _cs_exact(q.l_cs) == _cs_exact(l), s
        assert [_cs_exact(x) for x in q.c] == [_cs_exact(x) for x in cs], s


def test_g_limits_never_walks_c_past_c1():
    lim = g_limits(GSpec("ab", "bb", "0011"), SpecMap.parse("a=z,b=z+1"), 512)
    assert lim.residual_h().is_zero and lim.quants.k == 4
    assert "c" not in lim.quants.__dict__


@pytest.mark.parametrize("table", ["_kappa_x2", "_lambda_x2"])
@pytest.mark.parametrize("b, t", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_wrong_table_entry_fails_the_closed_form(monkeypatch, table, b, t):
    # mutation control: entry [b][t] of one table times d (d where it
    # stores no product) fails the closed form on the words up to length 4
    init = GQuantities.__init__

    def wrong(q, *args):
        init(q, *args)
        rows = [list(row) for row in getattr(q, table)]
        rows[b][t] = q.d if rows[b][t] is None else q.F.mul(rows[b][t], q.d)
        setattr(q, table, rows)

    words = list(all_driver_words(4))
    assert check_closed_form(words, 8, 16, 1).passed
    monkeypatch.setattr(GQuantities, "__init__", wrong)
    assert not check_closed_form(words, 8, 16, 1).passed


def test_step_with_a_swapped_kappa_fails_the_closed_form_sweep(monkeypatch):
    # mutation control: c_(j+1) = c_j^2 kappa_(1-t) fails the induction step
    # on every draw; c_1 = d kappa_(1-t) alone passes every drawn step (c is
    # never None there) and fails the walked word at its first letter
    step = GQuantities.step

    def swapped(q, c, l, t):
        return step(q, c, l, t if c is None else 1 - t)[0], step(q, c, l, t)[1]

    def swapped_base(q, c, l, t):
        return step(q, c, l, 1 - t if c is None else t)[0], step(q, c, l, t)[1]

    words = list(all_driver_words(8))
    monkeypatch.setattr(GQuantities, "step", swapped)
    rep = check_closed_form(words, 4, 16, 1)
    assert [trial for trial, _ in rep.failures] == list(range(4))
    assert all(detail.startswith("step ") for _, detail in rep.failures)
    monkeypatch.setattr(GQuantities, "step", swapped_base)
    for s in ("1", "0110"):
        rep = check_closed_form(s, 4, 16, 1)
        assert rep.failures == [(trial, f"{s[0]}: m branch") for trial in range(4)]


def test_shift_is_rho_times_the_2k_power():
    # the walked shift equals the closed rho t^(2^k) for t of either cross
    # parity, along three generations: exactly over GF(2^16), below the
    # common precision over series; and it is Frobenius-semilinear,
    # shift(x t) = x^(2^k) shift(t) for a scalar x
    F, m1, w1 = _series_pair()
    G = field(16)
    gm1, gw1 = _pair_over(G, seed=3)
    rng = random.Random(4)
    for s in ("1", "0", "11", "0011", "101", "10110100"):
        q, g = GQuantities(F, m1, w1, s), GQuantities(G, gm1, gw1, s)
        for o in (0, 1):
            t = CoScaled(q.c[0].u, o)
            for _ in range(3):
                want = _closed_shift(q, t)
                assert _cs_agrees(q.shift(t), want, 512), (s, o)
                t = want
            t = CoScaled(G.sample_invertible(rng), o)
            for _ in range(3):
                want = _closed_shift(g, t)
                assert _cs_exact(g.shift(t)) == _cs_exact(want), (s, o)
                x = G.sample_invertible(rng)
                xt = g.shift(CoScaled(G.mul(x, t.u), t.odd))
                assert _cs_exact(xt) == _cs_exact(g.cs_mul(CoScaled(G.pow(x, 1 << g.k), 0), want)), (s, o)
                t = want
    # and on the H_1 that residual_h shifts
    lim = g_limits(GSpec("ab", "ba", "11"), SpecMap.parse("a=z,b=z^3+z+1"), 512)
    assert _cs_agrees(lim.quants.shift(lim.H1), _closed_shift(lim.quants, lim.H1), 512)


@pytest.mark.parametrize("m", [2, 16, 17])
def test_limit_terms_walk_the_closed_ratios(m):
    # H_j = H_1^(2^(j-1)) c_j / c_1^(2^(j-1)) exactly, for H_1 = c_1 and a
    # drawn H_1 of either cross parity, over every driver word up to length 6
    F = field(m)
    m1, w1 = _pair_over(F, seed=m)
    rng = random.Random(m)
    for s in all_driver_words(6):
        q = GQuantities(F, m1, w1, s)
        for H1 in (q.c[0], CoScaled(F.sample_invertible(rng), 0), CoScaled(F.sample_invertible(rng), 1)):
            Hs = q.limit_terms(H1)
            assert [_cs_exact(h) for h in Hs] == [_cs_exact(h) for h in _closed_limit_terms(q, H1)], s


def test_rho_has_the_cross_parity_of_c1():
    # rho t^(2^k) has rho's cross parity, that of c_1 and of s's first
    # letter, for t of either parity: the walk's last kappa is that letter's
    F = field(16)
    m1, w1 = _pair_over(F, seed=5)
    for s in all_driver_words(8):
        q = GQuantities(F, m1, w1, s)
        for o in (0, 1):
            assert q.shift(CoScaled(F.one, o)).odd == q.c[0].odd == int(s[0]), s


def test_walk_with_a_swapped_kappa_fails_generation_relations_and_theorem2(monkeypatch):
    # mutation control: kappa of the walk's first step swapped (t -> 1 - t),
    # in the walk only, not in ``step``; the walk's last parity stays, so
    # every sum it feeds still adds.  H_1 is summed from the same shift that
    # equation H applies to it, so that line still passes; theorem 2 fails
    # on the oracle agreement of the limit sum and on the exact generation
    # relations, which take c_1' from the next generation's pair, not from
    # the shift
    walk = GQuantities._walk

    def swapped(q, h, parities):
        return walk(q, h, [1 - t for t in parities[:1]] + list(parities[1:]))

    monkeypatch.setattr(GQuantities, "_walk", swapped)
    for s in ("11", "101"):
        rep = check_generation_relations(s, 2, 4, 16, 1)
        assert [trial for trial, _ in rep.failures] == list(range(4)), s
    for ups in ("1", "011", "0011"):
        rep = check_theorem_g(GSpec("a", "b", ups), SpecMap.parse("a=z,b=z+1"), 512)
        assert not rep.passed
        failed = [line for line in rep.lines if line.endswith(" fail")]
        assert [line.split()[0] for line in failed] == ["oracle-agreement", "tail-step"], ups
        assert "tail-step c_1/L gen 1 fail" in rep.lines
        assert "equation H residual>=512 pass" in rep.lines


def test_tower_scalars_keep_full_precision():
    # in the 4th spec of the k = 4 corollary chain of eps=10, d vanishes to
    # the working precision 512: l and rho built by dividing out powers of d
    # kept 2 and -511 bits here; the walked shift of 1 is rho gamma^(o 2^(k-1))
    g = p_to_g(PSpec("", "10"))
    for _ in range(3):
        g = g_sigma(g)
    q = g_limits(g, SpecMap.binary_default(), 512).quants
    assert q.d.known_zero_below() == 512
    assert q.l_cs.u.prec == 512 and q.shift(CoScaled(q.F.one, q.c[0].odd)).u.prec >= 512


def test_a_pair_that_is_not_a_cross_pair_is_refused():
    # m1 and w1 of unequal trace: their cross matrix has a nonzero trace,
    # so its square is not scalar
    F = field(16)
    rng = random.Random(2)
    m1, w1 = (Mat2(F, *(F.sample_invertible(rng) for _ in range(4))) for _ in range(2))
    assert not F.eq(m1.trace(), w1.trace())
    with pytest.raises(DegenerateDraw, match="^cross square is not scalar"):
        GQuantities(F, m1, w1, "11")


def test_period_scalar_of_an_odd_digit_sum_is_refused():
    _, q = _random_quants("1")
    assert q.l_cs.odd == 1
    with pytest.raises(HypothesisViolation, match="^period scalar carries an odd cross power$"):
        q.l_scalar


def test_limits_raise_at_their_step_caps(monkeypatch):
    # known_zero_below reads -1 for its first 200 calls, so no limit
    # converges before its cap, reached in far fewer; without the cap each
    # would run on and return once it reads true
    real, calls = LaurentSeries.known_zero_below, count()
    monkeypatch.setattr(LaurentSeries, "known_zero_below", lambda x: -1 if next(calls) < 200 else real(x))
    with pytest.raises(ClaimFailed, match="^no convergence within 23 steps at prec 64$"):
        p_limits(PSpec("", "10"), SpecMap.binary_default(), 64)
    with pytest.raises(ClaimFailed, match="^no convergence within 9 generations at prec 64$"):
        g_limits(GSpec("a", "b", "11"), SpecMap.parse("a=z,b=z+1"), 64)
    assert next(calls) < 200


def test_cross_square_is_trace_of_m11():
    F, q = _random_quants("11", seed=5)
    m11 = q.w1.mul(q.m1)
    assert F.eq(q.gamma, m11.trace())


def test_g_limits_match_direct():
    sp = SpecMap.parse("a=z,b=z+1")
    for ups in ["1", "11", "011", "1001"]:
        spec = GSpec("a", "b", ups)
        lim = g_limits(spec, sp, 256)
        assert (lim.cf + g_cf_series(spec, sp, 256)).is_zero
        assert lim.residual_f().is_zero
        assert lim.residual_h().is_zero


def test_g_limits_rejects_unequal_words():
    sp = SpecMap.parse("a=z,b=z+1")
    with pytest.raises(HypothesisViolation):
        g_limits(GSpec("ab", "b", "11"), sp, 128)


def test_g_limits_longer_start_words():
    sp = SpecMap.parse("a=z,b=z+1")
    spec = GSpec("ab", "ba", "11")
    lim = g_limits(spec, sp, 256)
    assert (lim.cf + g_cf_series(spec, sp, 256)).is_zero


def test_g_start_word_prefix_alignment():
    # the tower matrix after q periods is the product over a limit-word prefix
    sp = SpecMap.parse("a=z,b=z+1")
    spec = GSpec("a", "b", "11")
    lim = g_limits(spec, sp, 128)
    word = g_prefix(spec, 64)
    p, q = convergent_pair(word, sp)
    assert lim.cf.agrees(LaurentSeries.from_rational(p, q, 64))
