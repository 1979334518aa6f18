"""Letter matrices, convergents, and both towers against independent oracles."""

import hashlib
import random
from itertools import count, islice

import pytest

from cf2 import towers
from cf2.gf2m import field
from cf2.gf2poly import Gf2Poly, clgcd, clmul
from cf2.identities import all_driver_words, check_closed_form
from cf2.laurent import LaurentSeries
from cf2.mat2 import Mat2, RationalField, SeriesField
from cf2.towers import (
    CF_BLOCK,
    CF_MARGIN,
    CoScaled,
    DegenerateDraw,
    GQuantities,
    HypothesisViolation,
    SpecMap,
    cf_series,
    convergent_pair,
    convergent_series,
    exact_p_tower,
    g_cf_series,
    g_limits,
    g_start_matrices,
    p_cf_series,
    p_limits,
    p_tower,
    pair_tower,
    predicted_det_val,
    word_matrix,
)
from cf2.words import GSpec, PSpec, g_prefix, g_sigma, p_prefix, p_to_g


def recursive_convergent(word, sp):
    """Independent oracle: [u0,...,un] = u0 + 1/[u1,...,un] over exact
    rational pairs (num, den)."""
    u = sp.poly(word[0])
    if len(word) == 1:
        return u, Gf2Poly.one()
    n, d = recursive_convergent(word[1:], sp)
    return u * n + d, n


SP = SpecMap.parse("a=z,b=z+1,c=z^2+z+1")
# _limits_digest(512) as computed with every intermediate series at full width
LIMITS_DIGEST_512 = "4cf9d05f25d4ec6d2c74bb27c5a90ae366844f8bc4a4c8a304412302eaaf8c43"


def test_specmap_validation():
    with pytest.raises(ValueError):
        SpecMap.parse("a=1")
    with pytest.raises(ValueError):
        SpecMap.parse("a=z,a=z+1")
    with pytest.raises(ValueError):
        SP.poly("q")


def test_letter_matrix_det():
    F = SeriesField(32)
    x = LaurentSeries.from_poly(Gf2Poly.parse("z"), 32)
    m = Mat2.letter(F, x)
    assert m.det().valuation == 2  # 1/z^2
    with pytest.raises(ZeroDivisionError):
        Mat2.letter(F, F.zero)


def test_single_letter_convergent():
    p, q = convergent_pair("a", SP)
    assert p == Gf2Poly.parse("z") and q == Gf2Poly.one()


def test_one_fold():
    p, q = convergent_pair("aa", SP)  # z + 1/z
    assert p == Gf2Poly.parse("z^2+1") and q == Gf2Poly.parse("z")


def test_convergent_matches_recursive_oracle():
    rng = random.Random(3)
    for _ in range(40):
        word = "".join(rng.choice("abc") for _ in range(rng.randrange(1, 9)))
        p, q = convergent_pair(word, SP)
        n, d = recursive_convergent(word, SP)
        # pairs agree up to the gcd (continuant pairs are coprime)
        assert p * d == q * n
        assert p.gcd(q).degree == 0


def test_convergent_pair_matches_the_polynomial_recurrence_on_every_prefix():
    # letters of up to three terms, so the raw-int loop shifts several taps;
    # 600 letters span three blocks of CF_BLOCK, an odd count for the tree
    sp = SpecMap.parse("a=z^5+z^2+1,b=z^3+z")
    rng = random.Random(5)
    for length in (1, 2, 3, 40, CF_BLOCK, CF_BLOCK + 1, 600):
        word = "".join(rng.choice("ab") for _ in range(length))
        p_prev, q_prev = Gf2Poly.one(), Gf2Poly.zero()
        p, q = sp.poly(word[0]), Gf2Poly.one()
        want = [(p, q)]
        for letter in word[1:]:
            u = sp.poly(letter)
            p, p_prev = u * p + p_prev, p
            q, q_prev = u * q + q_prev, q
            want.append((p, q))
        assert [convergent_pair(word[:i], sp) for i in range(1, length + 1)] == want


def test_convergent_pair_names_an_unmapped_letter():
    sp = SpecMap.parse("a=z")
    assert convergent_pair("aa", sp) == (Gf2Poly.parse("z^2+1"), Gf2Poly.parse("z"))
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


def test_word_matrix_ratio_is_convergent():
    F = SeriesField(128)
    inv = {c: LaurentSeries.from_rational(Gf2Poly.one(), SP.poly(c), 128) for c in "abc"}
    rng = random.Random(8)
    for _ in range(10):
        word = "".join(rng.choice("abc") for _ in range(rng.randrange(1, 7)))
        m = word_matrix(word, F, inv)
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
        ie = t.inv_eps[j % t.period]
        assert t.ls[j].agrees((m.b + m.c) * ie + m.a)


def test_ptower_step_scalar_char2():
    # seed word "a": (1/a + 1/a)/e + 1 = 1
    t = p_tower(PSpec("a", "b"), SP, 64)
    t.advance()
    assert t.ls[0].mask == 1 and t.ls[0].val == 0


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
    return LaurentSeries.from_rational(Gf2Poly(x[0]), Gf2Poly(x[1]), prec)


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
    pairs = [(exact.tail_shift(), series.tail_shift()), (exact.term(0), series.term(0))]
    pairs += [(exact.residue_factor(j), series.residue_factor(j)) for j in range(n)]
    pairs += list(zip(exact.Ls, series.Ls))
    for x, y in pairs:
        assert not y.is_zero and _expand(x, prec).agrees(y)
    rho, t0 = exact.tail_shift(), exact.term(0)
    assert exact.term(n) == F.mul(rho, F.pow(t0, 1 << n))


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


def _limits_digest(prec: int) -> str:
    """sha256 over (val, mask, prec) of f, cf, H and the residuals of a
    small P and G grid."""
    def key(x):
        return x.val, x.mask, x.prec

    out = []
    for one in ("z+1", "z^3+z+1"):
        sp = SpecMap.parse(f"0=z,1={one}")
        for w0, eps in [("", "10"), ("10", "110"), ("011", "1101"), ("1", "0110")]:
            lim = p_limits(PSpec(w0, eps), sp, prec)
            series = [lim.f, lim.cf, *lim.H, lim.residual_f(), lim.residual_h0()]
            out.append([key(x) for x in series + [lim.residual_hj(j) for j in range(1, len(eps))]])
        sp = SpecMap.parse(f"a=z,b={one}")
        for u0, v0, ups in [("a", "b", "11"), ("ab", "ba", "101"), ("ab", "bb", "0011")]:
            lim = g_limits(GSpec(u0, v0, ups), sp, prec)
            series = [lim.f, lim.cf, lim.H1.u, *(h.u for h in lim.Hs), lim.residual_f(), lim.residual_h()]
            out.append([key(x) for x in series])
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_limits_hash_grid_is_frozen():
    # every series the limits return keeps its val, mask and prec exactly
    assert _limits_digest(512) == LIMITS_DIGEST_512


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
    # each CoScaled op and monomial against the matrices it stands for,
    # negative exponents of both parities included
    F, q = _random_quants("", seed=7)
    rng = random.Random(11)
    r = Mat2.scalar(F, q.r)
    for i in (-3, -2, 0, 1, 2):
        for a in (-3, -2, -1, 0, 1, 2, 3):
            assert q.cs_to_mat(q.monomial(i, a)).eq(_mat_pow(r, i).mul(_mat_pow(q.cross, a)))
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


def _closed_c_and_l(q):
    """Oracle of the step: c_j = d^(2^(j-1)) r^-(2^j - 1 - e_j) cross^-e_j
    and l = r^(2^k - 1 - e_k) cross^e_k, with the powers of r and cross
    from ``monomial`` and d^(2^(j-1)) as j - 1 squares in the field."""
    F, d, cs = q.F, q.d, []
    for j, e in enumerate(q.e, start=1):
        x = q.monomial(e + 1 - (1 << j), -e)
        cs.append(CoScaled(F.mul(d, x.u), x.odd))
        d = F.square(d)
    return cs, q.monomial((1 << q.k) - 1 - q.e[-1], q.e[-1])


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
    sp = SpecMap.parse("a=z,b=z^3+z+1")
    F, m0, w0 = g_start_matrices(GSpec("ab", "ba", "11"), sp, prec)
    return F, w0.mul(m0), m0.mul(w0)


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
    # over series to the last (val, mask, prec) and over GF(2^16), for both
    # cross parities o = e_1 mod 2, along three generations of c_1/L
    F, m1, w1 = _series_pair()
    G = field(16)
    gm1, gw1 = _pair_over(G, seed=3)
    rng = random.Random(4)
    for s in ("1", "0", "11", "0011", "101", "10110100"):
        q, g = GQuantities(F, m1, w1, s), GQuantities(G, gm1, gw1, s)
        for quants, t in ((q, q.c[0]), (g, g.c[0]), (g, CoScaled(G.sample_invertible(rng), g.c[0].odd))):
            for _ in range(3):
                want = quants.cs_mul(quants.cs_pow(t, 1 << quants.k), quants.rho())
                assert _cs_exact(quants.shift(t)) == _cs_exact(want), s
                t = want
    # and on the H_1 that residual_h shifts
    lim = g_limits(GSpec("ab", "ba", "11"), SpecMap.parse("a=z,b=z^3+z+1"), 512)
    q = lim.quants
    want = q.cs_mul(q.cs_pow(lim.H1, 1 << q.k), q.rho())
    assert _cs_exact(q.shift(lim.H1)) == _cs_exact(want)


def test_rho_has_the_cross_parity_of_c1():
    # the shift folds gamma^(o 2^(k-1)) into rho for o = c_1's parity
    F = field(16)
    m1, w1 = _pair_over(F, seed=5)
    for s in all_driver_words(8):
        q = GQuantities(F, m1, w1, s)
        assert q.rho().odd == q.c[0].odd == int(s[0]), s


def test_shift_rejects_a_cross_parity_mismatch():
    F = field(16)
    m1, w1 = _pair_over(F, seed=6)
    for s in ("1", "01"):
        q = GQuantities(F, m1, w1, s)
        with pytest.raises(ValueError, match="parity"):
            q.shift(CoScaled(F.one, 1 - q.c[0].odd))


def test_tower_scalars_keep_full_precision():
    # in the 4th spec of the k = 4 corollary chain of eps=10, d vanishes to
    # the working precision 512: l and rho built by dividing out powers of d
    # kept 2 and -511 bits here
    g = p_to_g(PSpec("", "10"))
    for _ in range(3):
        g = g_sigma(g)
    q = g_limits(g, SpecMap.binary_default(), 512).quants
    assert q.d.known_zero_below() == 512
    assert q.l_cs.u.prec == 512 and q.rho().u.prec >= 512


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
