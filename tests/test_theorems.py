"""Theorem-level drivers: bounds, degenerate routes, hypothesis guards."""

import io
import tracemalloc
from contextlib import redirect_stdout
from itertools import product

import pytest

from cf2 import relations, theorems, towers
from cf2.cli import main as cli_main
from cf2.gf2poly import clmul, parse_poly
from cf2.identities import generation_mismatch, tail_mismatch
from cf2.laurent import LaurentSeries
from cf2.mat2 import RationalField
from cf2.theorems import (
    check_corollary_chain,
    check_theorem_g,
    check_theorem_p,
    explore_inverse_sigma,
    spec_series,
)
from cf2.relations import AlgRelation, max_degz
from cf2.towers import HypothesisViolation, SpecMap, exact_g_quantities, exact_p_tower
from cf2.words import GSpec, PSpec, g_normalize, g_sigma, p_prefix, p_to_g

SPB = SpecMap.binary_default()
SPAB = SpecMap.parse("a=z,b=z+1")


def test_theorem_p_period_two():
    rep = check_theorem_p(PSpec("", "10"), SPB, 256)
    assert rep.passed
    assert rep.search.found_degree == 4 and rep.bound == 4
    assert rep.agreement >= 254


def test_theorem_p_whose_tower_stops_at_one_period():
    # at prec 64 the period-8 tower converges after its first period, so the
    # tail shift rho = residue_factor(8) must take L_9 without a step past 8
    spec = PSpec("", "11010000")
    assert towers.p_limits(spec, SPB, 64).tower.step == spec.period
    rep = check_theorem_p(spec, SPB, 64)
    assert rep.passed and rep.search.found_degree == 256


def test_theorem_p_nonempty_seed():
    rep = check_theorem_p(PSpec("10", "10"), SPB, 256)
    assert rep.passed and rep.search.found_degree <= 4


def test_theorem_p_degenerate_single_letter():
    # a one-letter period is a period like any other: its limit meets the
    # oracle and the tail equations, and the exact relation is quadratic
    rep = check_theorem_p(PSpec("", "0"), SPB, 256)
    assert rep.passed
    assert rep.search.found_degree == 2
    assert rep.lines == [
        "oracle-agreement val>=254 pass",
        "equation f residual>=256 pass",
        "equation H0 residual>=256 pass",
        "degree=2 degZ=1 residual_val=510 prec=512",
    ]


P_SPECS = [("", e, SPB) for e in ("0", "1", "00", "10", "110", "1101", "11010", "110100")]
P_SPECS += [("10", "110", SPB), ("010", "110", SPB), ("1", "1010", SPB)]
P_SPECS += [("00", "00001", SpecMap.parse("0=z^2,1=z+1"))]


@pytest.mark.parametrize("w0, eps, sp", P_SPECS)
def test_exact_relation_is_the_searched_relation(w0, eps, sp):
    # the relation derived over GF(2)(z) is, coefficient for coefficient,
    # the one the dense order-basis search finds (at prec 2048, where every
    # search here ends)
    spec = PSpec(w0, eps)
    phi_fn, first_val = spec_series(spec, sp)
    search = theorems.search_relation(phi_fn, 1 << spec.period, 2048, sp.max_degree, first_val)
    assert search.verified
    assert theorems.p_relation(spec, sp).coeffs == search.relation.coeffs


def tower_relation(spec, sp):
    """phi's relation read off the P tower over K, with its tail step checked:
    every insertion matrix has a = 0, so phi = a_0/(b_0 + sum_j H_j/e_j) with
    H_j = residue_factor(j) H_0^(2^j), and H_0 solves rho X^(2^n) + X + T_0 = 0."""
    t = exact_p_tower(spec, sp)
    assert tail_mismatch(t, 1) is None
    F, a0 = t.F, t.m0.a
    lams = [F.div(F.div(t.residue_factor(j), t.eps[j]), a0) for j in range(t.period)]
    return relations.frobenius_relation(F.div(t.m0.b, a0), lams, t.residue_factor(t.period), t.term(0))


RELATION_WORDS = ["", "0", "1", "10", "01", "010", "001", "011", "0010", "110", "1011"]
RELATION_PERIODS = ["1", "0", "10", "01", "110", "1101", "11010", "110100"]


@pytest.mark.parametrize("sp", ["0=z,1=z+1", "0=z^3+z+1,1=z", "0=z^2,1=z+1", "0=z^2+z+1,1=z^3"])
def test_relation_from_the_letters_is_the_towers_relation(sp):
    # the letters' closed form and the paper's tower derive phi's relation
    # independently; they agree coefficient for coefficient, over start
    # words that are not palindromes too
    sp = SpecMap.parse(sp)
    for w0, eps in product(RELATION_WORDS, RELATION_PERIODS):
        spec = PSpec(w0, eps)
        assert theorems.p_relation(spec, sp).coeffs == tower_relation(spec, sp).coeffs, (w0, eps)


SP_Z2 = SpecMap.parse("0=z^2,1=z+1")
# P specs whose relation needs more than prec 512: (w0, eps, map, degZ, p1)
CERTIFYING = [("", "110100", SPB, 32, 2240), ("00", "00001", SP_Z2, 125, 4252)]


@pytest.mark.parametrize("w0, eps, sp, degz, p1", CERTIFYING)
def test_exact_verdict_verifies_at_the_certifying_precision(w0, eps, sp, degz, p1):
    # p1 is the least precision whose order certifies the relation's shape
    # (degX 2^n, degZ d): max_degz reaches d at p1 and not at p1 - 1
    spec = PSpec(w0, eps)
    search = check_theorem_p(spec, sp, 512).search
    degx = 1 << spec.period
    assert search.verified and search.relation.degz == search.degz_used == degz
    assert search.discovery_prec == p1 > 512 and search.verify_prec == 2 * p1
    phi_fn, _ = spec_series(spec, sp)
    assert max_degz(phi_fn(p1), degx) >= degz > max_degz(phi_fn(p1 - 1), degx)


@pytest.mark.parametrize("w0, eps, sp, degz, p1", CERTIFYING)
def test_search_and_exact_verdict_share_the_reverify_rule(monkeypatch, w0, eps, sp, degz, p1):
    # both verdicts run one round of the same rule at the same p1: the same
    # verifying precision 2 p1 and threshold 1.5 p1; under 0=z^2, 1=z+1 the
    # search's candidate at exactly p1 is an artifact the rule rejects
    rounds = []
    one_round = theorems._reverify_round
    monkeypatch.setattr(theorems, "_reverify_round", lambda *args: rounds.append(args[1]) or one_round(*args))
    spec = PSpec(w0, eps)
    exact = check_theorem_p(spec, sp, 512).search
    phi_fn, _ = spec_series(spec, sp)
    found = theorems.search_relation(phi_fn, exact.degx_limit, p1, sp.max_degree, 0, degz=degz)
    assert rounds == [p1, p1]
    for search in (exact, found):
        assert (search.discovery_prec, search.verify_prec, search.threshold) == (p1, 2 * p1, (3 * p1) // 2)
    assert exact.verified and found.verified == (sp is SPB)
    if found.verified:
        assert found == exact


def test_theorem_p_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the P verdict searched")

    monkeypatch.setattr(theorems, "search_relation", refuse)
    monkeypatch.setattr(theorems, "find_relation", refuse)
    monkeypatch.setattr(relations, "find_relation", refuse)
    for w0, eps, sp in P_SPECS:
        assert check_theorem_p(PSpec(w0, eps), sp, 256).passed, (w0, eps)


def _flip(x, bit):
    """A RationalField value with one numerator bit flipped, in lowest terms."""
    F = RationalField()
    return F.mul((x[0] ^ (1 << bit), 1), F.inv((x[1], 1)))


@pytest.mark.parametrize("which", ["rho", "t0"])
@pytest.mark.parametrize("bit", [1, 3])
def test_relation_from_a_flipped_bit_fails_on_the_oracle(monkeypatch, which, bit):
    # mutation control: a relation built from a rho or T_0 off by one bit
    # must not vanish on the convergent series
    derive = theorems.frobenius_relation

    def mutated(y0, lams, rho, t0):
        if which == "rho":
            return derive(y0, lams, _flip(rho, bit), t0)
        return derive(y0, lams, rho, _flip(t0, bit))

    monkeypatch.setattr(theorems, "frobenius_relation", mutated)
    for eps, prec in (("110", 256), ("110100", 512)):
        rep = check_theorem_p(PSpec("", eps), SPB, prec)
        assert not rep.passed and not rep.search.verified
        assert rep.lines[-1].endswith(f"below {rep.search.threshold}")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["theorem1", "--w0", "10", "--eps", "110"])
    assert code == 1 and buf.getvalue().splitlines()[-1] == "theorem-p fail"


@pytest.mark.parametrize("rho", ["zero", "flipped"])
def test_failed_tail_step_fails_the_check(monkeypatch, rho):
    # rho = 0 or T_1 != rho T_0^(2^n) over GF(2)(z): the relation from the
    # letters still verifies, and the failed tail step alone fails the check
    build = theorems.exact_p_tower

    def broken(spec, sp):
        t = build(spec, sp)
        factor = t.residue_factor
        broken_rho = (lambda: t.F.zero) if rho == "zero" else (lambda: _flip(factor(t.period), 1))
        t.residue_factor = lambda j: broken_rho() if j == t.period else factor(j)
        return t

    monkeypatch.setattr(theorems, "exact_p_tower", broken)
    rep = check_theorem_p(PSpec("", "10"), SPB, 256)
    assert not rep.passed and rep.search.verified
    assert rep.lines[-2:] == ["tail-step tail shift k=0 fail", rep.search.report_line()]
    assert rep.all_lines()[-1] == "theorem-p fail"


def test_a_verified_relation_above_the_bound_fails_the_verdict():
    # every relation a driver derives or searches has degree <= its bound,
    # so only a direct call reaches this clause of the verdict
    search = check_theorem_p(PSpec("", "10"), SPB, 256).search
    assert search.verified and search.found_degree == 4
    assert theorems._verdict("theorem-p", 4, [], search).passed
    rep = theorems._verdict("theorem-p", 2, [], search)
    assert not rep.passed and rep.lines == [search.report_line()]


def test_theorem_g_thue_morse():
    rep = check_theorem_g(GSpec("a", "b", "1"), SPAB, 256)
    assert rep.passed
    assert rep.search.found_degree == 4 and rep.bound == 4


def test_theorem_g_rejects_odd_swap_count():
    with pytest.raises(HypothesisViolation):
        check_theorem_g(GSpec("a", "b", "10"), SPAB, 128)
    with pytest.raises(HypothesisViolation):
        check_theorem_g(GSpec("a", "b", "01011"), SPAB, 128)


def test_theorem_g_all_zero_swaps_quadratic():
    rep = check_theorem_g(GSpec("ab", "ba", "0"), SPAB, 256)
    assert rep.passed
    assert rep.bound == 2 and rep.search.found_degree <= 2
    assert any("degenerate" in line for line in rep.lines)


# all-zero swap periods: the word is u0 repeated, phi purely periodic
PERIODIC_MAPS = [SPAB, SpecMap.parse("a=z,b=z^3+z+1"), SpecMap.parse("a=z^2+z+1,b=z^3")]
PERIODIC_SPECS = [
    (GSpec(u0, "b", "0"), sp)
    for sp in PERIODIC_MAPS
    for u0 in ("a", "b", "ab", "ba", "aab", "abb", "abab", "aaaaaaab")
]


@pytest.mark.parametrize("spec, sp", PERIODIC_SPECS)
def test_periodic_relation_is_the_searched_relation(spec, sp):
    # the quadratic derived from u0's product matrix is, coefficient for
    # coefficient, the one the order-basis search finds
    phi_fn, first_val = spec_series(spec, sp)
    search = theorems.search_relation(phi_fn, 2, 256, sp.max_degree, first_val)
    assert search.verified
    assert theorems.periodic_relation(spec.u0, sp).coeffs == search.relation.coeffs


def test_theorem_g_all_zero_swaps_run_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the degenerate G verdict searched")

    monkeypatch.setattr(theorems, "search_relation", refuse)
    monkeypatch.setattr(theorems, "find_relation", refuse)
    monkeypatch.setattr(relations, "find_relation", refuse)
    for spec, sp in PERIODIC_SPECS:
        rep = check_theorem_g(spec, sp, 256)
        assert rep.passed and rep.search.found_degree == 2, (spec, sp)


@pytest.mark.parametrize(
    "bit, line",
    [(0, "degree=2 degZ=2 residual_val=-1"), (2, "degree=2 degZ=1 residual_val=-3")],
)
def test_periodic_relation_with_a_flipped_bit_fails(monkeypatch, bit, line):
    # mutation control: a quadratic whose linear coefficient is off by one
    # bit must not vanish on the convergent series; the quadratic
    # c X^2 + (a + d) X + b of the word's product ((a, b), (c, d)) of
    # ((u, 1), (1, 0)) is built here, letter by letter (content 1 for "ab")
    def mutated(word, sp):
        a, b, c, d = 1, 0, 0, 1
        for letter in word:
            u = sp.poly(letter)
            a, b, c, d = clmul(a, u) ^ b, a, clmul(c, u) ^ d, c
        return AlgRelation((b, a ^ d ^ (1 << bit), c))

    monkeypatch.setattr(theorems, "periodic_relation", mutated)
    rep = check_theorem_g(GSpec("ab", "ba", "0"), SPAB, 512)
    assert not rep.passed and not rep.search.verified
    assert rep.lines[-1] == f"{line} prec=1024 below 768"


def test_long_periodic_start_word_passes():
    # a 700-letter start word gives degZ 698; the search's budget
    # max(4*prec, 2048) stopped it short of certifying that, a false fail,
    # while the exact quadratic verifies at its own certifying precision
    u0 = p_prefix(PSpec("", "10"), 700)
    rep = check_theorem_g(GSpec(u0, "1", "0"), SPB, 512)
    assert rep.passed
    assert rep.lines[-1] == "degree=2 degZ=698 residual_val=3561 prec=4260"


def test_theorem_g_normalized_rotation():
    rep = check_theorem_g(GSpec("a", "b", "011"), SPAB, 256)
    assert rep.passed and rep.bound == 8
    assert any("s=101" in line for line in rep.lines)


def test_corollary_chain_short():
    rep = check_corollary_chain(PSpec("", "10"), SPB, 2, 256)
    assert rep.passed
    assert all(sub.search.found_degree <= 4 for sub in rep.sub_reports)


def test_corollary_chain_k4_stays_small():
    # the chain's powers reach precisions of ~1.4e9 bits; a series must
    # not cost its precision in memory (a full-width mask is ~180 MB)
    tracemalloc.start()
    try:
        rep = check_corollary_chain(PSpec("", "10"), SPB, 4, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and len(rep.sub_reports) == 4
    assert peak < 40 << 20


@pytest.mark.parametrize("prec", [128, 256, 512])
@pytest.mark.parametrize("eps", ["10", "01", "110", "011"])
def test_corollary_chain_k4_passes(eps, prec):
    # the chain's later determinants vanish to the working precision; the
    # G tower divides only by r and gamma, so no power of d is inverted
    assert check_corollary_chain(PSpec("", eps), SPB, 4, prec).passed


def test_corollary_requires_binary():
    with pytest.raises(ValueError):
        check_corollary_chain(PSpec("a", "b"), SPAB, 1, 128)


@pytest.mark.parametrize("k", [0, -2])
def test_corollary_chain_needs_a_step(k):
    # a chain of no step has no sub-report, and all() of none would pass
    with pytest.raises(ValueError, match=f"corollary chain needs k >= 1, got {k}"):
        check_corollary_chain(PSpec("", "10"), SPB, k, 128)


def test_explore_reports_without_judgment():
    rep = explore_inverse_sigma(2, 8, 128)
    assert rep.passed  # exploratory: completing is the success condition
    text = " ".join(rep.lines)
    assert "no relation found" in text or "relation found" in text
    assert "observation only" in text or "relation found" in text


def _rational_oracle(term=None):
    """A cf_series_of stand-in returning 1/(z+1), plus, given ``term``, the
    term z^-term."""

    def oracle(prefix_fn, sp, prec):
        phi = LaurentSeries.from_rational(1, parse_poly("z+1"), prec)
        if term is None:
            return phi
        return phi + LaurentSeries(term, 1, prec)

    return oracle


def test_explore_reports_a_found_relation(monkeypatch):
    monkeypatch.setattr(theorems, "cf_series_of", _rational_oracle())
    rep = explore_inverse_sigma(2, 8, 128)
    assert rep.passed and rep.search.verified
    assert rep.lines[1] == f"relation found: {rep.search.relation.render()}"
    assert rep.lines[2].startswith("degree=1 degZ=1 ")


def test_explore_reports_a_discarded_candidate(monkeypatch):
    # the term at z^-130, just past the discovery precision 128, hides from
    # the search and breaks the candidate (z+1)X + 1 in the verifying series
    monkeypatch.setattr(theorems, "cf_series_of", _rational_oracle(term=130))
    rep = explore_inverse_sigma(2, 8, 128)
    assert rep.search.discovery_prec == 128
    assert rep.passed and rep.search.relation is None
    bound = rep.search.residual_bound
    assert bound == rep.search.discovery_prec + 1
    assert rep.lines[1] == f"candidate discarded by re-verification (residual {bound})"
    assert rep.lines[2].startswith("no relation found up to degX 2, degZ 8, ")


def test_theorem_g_normalizes_once(monkeypatch):
    calls = []

    def counting(spec):
        calls.append(spec)
        return g_normalize(spec)

    # count a call from the driver too, should it normalize on its own again
    monkeypatch.setattr(towers, "g_normalize", counting)
    monkeypatch.setattr(theorems, "g_normalize", counting, raising=False)
    rep = check_theorem_g(GSpec("a", "b", "11"), SPAB, 256)
    assert rep.passed and rep.lines[0].startswith("normalized ups=11 s=11 k=2 ")
    assert len(calls) == 1


def test_generation_relations_hold_exactly():
    # generations 0 and 1 over K, as theorem 2 checks them (shift(c_1) =
    # c_1'/l among them), on specs of both first-letter parities, k from 2
    # to 6, and the corollary chain's specs, whose start words have 2, 8,
    # 32 and 128 letters
    specs = [(GSpec("a", "b", ups), SPAB) for ups in ("1", "011", "0011", "10001", "100001")]
    specs += [(GSpec("aa", "bb", "0101"), SPAB), (GSpec("ab", "ba", "11"), SpecMap.parse("a=z,b=z^3+z+1"))]
    g = p_to_g(PSpec("", "10"))
    for _ in range(4):
        specs.append((g, SPB))
        g = g_sigma(g)
    assert len(specs[-1][0].u0) == 128
    for spec, sp in specs:
        assert generation_mismatch(exact_g_quantities(g_normalize(spec), sp), 1) is None, spec


def test_theorem_g_fuzz_small():
    import random

    rng = random.Random(123)
    passed = rejected = 0
    for _ in range(12):
        u0 = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        v0 = "".join(rng.choice("01") for _ in range(len(u0)))
        ups = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        try:
            rep = check_theorem_g(GSpec(u0, v0, ups), SPB, 256)
            assert rep.passed
            passed += 1
        except HypothesisViolation:
            rejected += 1
    assert passed > 0 and passed + rejected == 12


def test_theorem_p_fuzz_small():
    import random

    rng = random.Random(77)
    for _ in range(8):
        w0 = "".join(rng.choice("01") for _ in range(rng.randrange(0, 4)))
        eps = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        assert check_theorem_p(PSpec(w0, eps), SPB, 256).passed


def test_small_p_spec_sweep_stays_within_the_bound():
    # ROADMAP item 3's small-spec sweep, P half: every seed word of length
    # <= 2 with every period word of length <= 4, 210 specs at prec 256
    seeds = [w for m in range(3) for w in product("01", repeat=m)]
    periods = [e for k in range(1, 5) for e in product("01", repeat=k)]
    cases = [(PSpec("".join(w0), "".join(eps)), SPB, 256) for w0 in seeds for eps in periods]
    # and the one-letter periods with an empty seed word under four maps,
    # 40 specs at prec 64 to 1024
    maps = ("0=z,1=z+1", "0=z^2,1=z+1", "0=z^3+z+1,1=z", "0=z^5+z^2+1,1=z^4")
    cases += [
        (PSpec("", eps), SpecMap.parse(text), prec)
        for eps in "01" for text in maps for prec in (64, 128, 256, 512, 1024)
    ]
    assert len(cases) == 250
    for spec, sp, prec in cases:
        rep = check_theorem_p(spec, sp, prec)
        assert rep.passed and rep.search.found_degree <= 1 << spec.period, (spec, sp, prec)


def test_collapsed_map_goes_quadratic():
    # both letters sent to the same polynomial: the word becomes constant
    sp = SpecMap.parse("a=z,b=z")
    rep = check_theorem_g(GSpec("a", "b", "11"), sp, 256)
    assert rep.passed and rep.search.found_degree == 2


def test_precision_artifact_is_discarded():
    # 1/(z+1) plus a term at z^-80: the relation (z+1)X + 1 found at the
    # discovery precision 64 breaks at z^-79, below the 1.5x threshold 96
    from cf2.theorems import search_relation

    def phi_fn(prec):
        base = LaurentSeries.from_rational(1, parse_poly("z+1"), prec)
        return base + LaurentSeries(80, 1, prec)

    search = search_relation(phi_fn, 1, 64, 1, 1, degz=2)
    assert search.discovery_prec == 64 and search.threshold == 96
    assert search.verified is False and search.relation is None
    assert search.residual_bound == 79


# ROADMAP item 3: G specs with the map a=z, b=z+1 whose theorem-2 check
# failed falsely at prec 256 while it searched for its relation.  Seven
# need degZ 104-256, past what the search certified by the time its
# precision reached its budget max(4*prec, 2048); the derived relation
# needs no budget.
ITEM3_SPECS = [
    ("a", "b", "0011"),
    ("b", "a", "0011"),
    ("aa", "bb", "0011"),
    ("ab", "bb", "0011"),
    ("aa", "bb", "0101"),
    ("ab", "bb", "0101"),
    ("aa", "bb", "0110"),
    ("ab", "bb", "0110"),
]


@pytest.mark.parametrize("u0,v0,ups", ITEM3_SPECS)
def test_item3_spec_passes_at_prec_256(u0, v0, ups):
    assert check_theorem_g(GSpec(u0, v0, ups), SPAB, 256).passed


# the family-P instance of item 3: under 0=z^2, 1=z+1 the first search
# round's p1 = 4489 already exceeded the budget max(4*512, 2048), so an
# artifact ended the search; the exact relation (degree 32, degZ 125) needs
# no budget and vanishes to the 1.5 p1 its first round asks
def test_item3_p_spec_passes_at_prec_512():
    assert check_theorem_p(PSpec("00", "00001"), SpecMap.parse("0=z^2,1=z+1"), 512).passed


# the w0 = 00 specs of the P grid |eps| = 5 under 0=z^2, 1=z+1 that the
# relation search failed at prec 256 and 512 (budget spent, or an artifact)
@pytest.mark.parametrize("prec", [256, 512])
def test_p_grid_w0_00_slice_passes(prec):
    sp = SpecMap.parse("0=z^2,1=z+1")
    for eps in ("00001", "00101", "01011", "01111", "10001", "10111", "11011", "11101"):
        rep = check_theorem_p(PSpec("00", eps), sp, prec)
        assert rep.passed and rep.search.found_degree == 32, (eps, rep.lines[-1])


# under a=z, b=z^3+z+1 these 8-letter start words give val(d) = 64, so d
# vanishes to the working precision 64; the tower limits converge anyway, and
# the last three spent the search's budget (degZ 222 at prec 2048)
SPAB3 = SpecMap.parse("a=z,b=z^3+z+1")


def test_theorem_g_long_start_words_at_prec_64():
    rep = check_theorem_g(GSpec("abababab", "babababa", "101"), SPAB3, 64)
    assert rep.passed and rep.search.found_degree == 8


@pytest.mark.parametrize("ups", ["011", "101", "110"])
def test_long_start_word_spec_passes_at_prec_64(ups):
    assert check_theorem_g(GSpec("aaaaaaaa", "bbbbbbbb", ups), SPAB3, 64).passed


def test_theorem_g_runs_no_search(monkeypatch):
    # theorem 2 derives its relation: the G ladder, the specs whose search
    # spent its budget, a span that reduces (s = 1111), a collapsed map and
    # the corollary at k = 4 all pass with nothing searched
    def refuse(*args, **kwargs):
        raise AssertionError("the G verdict searched")

    monkeypatch.setattr(theorems, "search_relation", refuse)
    monkeypatch.setattr(theorems, "find_relation", refuse)
    monkeypatch.setattr(relations, "find_relation", refuse)
    cases = [(GSpec("a", "b", ups), SPAB, 512) for ups in ("1", "11", "101", "1001", "10001", "1111")]
    cases += [(GSpec(*spec), SPAB, 256) for spec in ITEM3_SPECS]
    cases += [(GSpec("aaaaaaaa", "bbbbbbbb", ups), SPAB3, 64) for ups in ("011", "101", "110")]
    cases += [(GSpec("a", "b", "11"), SpecMap.parse("a=z,b=z"), 256)]
    for spec, sp, prec in cases:
        assert check_theorem_g(spec, sp, prec).passed, (spec, sp)
    assert check_corollary_chain(PSpec("", "10"), SPB, 4, 512).passed


GRID_STARTS = [("a", "b"), ("b", "a"), ("ab", "ba")]


def test_norm_relation_is_the_searched_relation():
    # the relation derived over GF(2)(z) is, coefficient for coefficient,
    # the one the order-basis search finds wherever the search verifies one
    # at prec 256: a/b, b/a and ab/ba with every swap period of length 1-4
    # whose normalized s has an even count, under two maps (72 specs, 64
    # searched relations); s = 1111, of primitive period 11, gives degree 4
    compared = total = 0
    for sp, (u0, v0), n in product((SPAB, SPAB3), GRID_STARTS, range(1, 5)):
        for ups in map("".join, product("01", repeat=n)):
            spec = GSpec(u0, v0, ups)
            if "1" not in ups or g_normalize(spec).s.count("1") % 2:
                continue
            norm = g_normalize(spec)
            rel = relations.norm_relation(*exact_g_quantities(norm, sp).affine_form())
            assert rel.degx == (4 if norm.s == "1111" else 1 << len(norm.s)), (spec, sp)
            phi_fn, first_val = spec_series(spec, sp)
            search = theorems.search_relation(phi_fn, 1 << len(norm.s), 256, sp.max_degree, first_val)
            total += 1
            if search.verified:
                compared += 1
                assert rel.coeffs == search.relation.coeffs, (spec, sp)
    assert (total, compared) == (72, 64)


def test_theorem_g_reduces_a_short_frobenius_span():
    # s = 1111 and the collapsed map a=z, b=z leave u's Frobenius span short
    # of k, so det V = 0; the relation of the first dependent column has
    # degree 4 (the search certified it only at prec 1426) and 2
    rep = check_theorem_g(GSpec("a", "b", "1111"), SPAB, 512)
    assert rep.passed and rep.bound == 16
    assert rep.lines[-1] == "degree=4 degZ=8 residual_val=1014 prec=1024"
    rep = check_theorem_g(GSpec("a", "b", "11"), SpecMap.parse("a=z,b=z"), 256)
    assert rep.passed and rep.bound == 4 and rep.search.found_degree == 2


@pytest.mark.parametrize(
    "spec, sp, line",
    [
        # the search ended "relation none degX<=16 degZ=114 prec=2048"
        (GSpec("b", "a", "0101"), SPAB3, "degree=16 degZ=128 residual_val=4376 prec=4540"),
        # G6, which the search verified at degZ 128 too
        (GSpec("a", "b", "100001"), SPAB, "degree=64 degZ=128 residual_val=16800 prec=16960"),
        # G7: the search ended "relation none degX<=128 degZ=262 prec=34089"
        (GSpec("a", "b", "1000001"), SPAB, "degree=128 degZ=256 residual_val=66304 prec=66624"),
    ],
    ids=["b-a-0101", "G6", "G7"],
)
def test_theorem_g_passes_past_the_search_budget_at_prec_512(spec, sp, line):
    rep = check_theorem_g(spec, sp, 512)
    assert rep.passed and rep.lines[-1] == line


@pytest.mark.parametrize("which", ["rho", "c", "a1"])
def test_norm_relation_from_a_flipped_bit_fails_on_the_oracle(monkeypatch, which):
    # mutation control: a relation derived from rho, c or a_1 (the
    # coefficient of u in A) off by one bit must not vanish on the
    # convergent series
    derive = theorems.norm_relation

    def mutated(rho, c, a0, a, b0, b):
        if which == "rho":
            rho = _flip(rho, 1)
        elif which == "c":
            c = _flip(c, 1)
        else:
            a = [_flip(a[0], 1), *a[1:]]
        return derive(rho, c, a0, a, b0, b)

    monkeypatch.setattr(theorems, "norm_relation", mutated)
    for ups in ("1", "011", "0011", "1001"):
        rep = check_theorem_g(GSpec("a", "b", ups), SPAB, 256)
        assert not rep.passed and not rep.search.verified, ups
        assert rep.lines[-1].endswith(f"below {rep.search.threshold}"), ups


def test_no_derived_relation_fails_the_verdict_on_its_line(monkeypatch):
    # if nothing reduces, norm_relation returns None: the verdict fails on
    # the relation line, with no traceback
    monkeypatch.setattr(theorems, "norm_relation", lambda *args: None)
    rep = check_theorem_g(GSpec("a", "b", "11"), SPAB, 256)
    assert not rep.passed and rep.search.relation is None
    assert rep.lines[-1] == "relation none degX<=4 degZ=-1 prec=256"
    assert rep.all_lines()[-1] == "theorem-g fail"


def test_artifact_moves_the_search_to_the_next_rung():
    # the doubling search that ``cf2 relation --spec`` runs without --degz:
    # on a/b/0011 at discovery precisions 1024 and 2048 the least-degree
    # columns (degZ 55, then 100) annihilate phi but are not relations;
    # re-verification discards each and the search goes on, until the
    # degree-16 relation with degZ 128 holds at 4096
    phi_fn, first_val = spec_series(GSpec("a", "b", "0011"), SPAB)
    asked = []
    search = theorems.search_relation(lambda p: asked.append(p) or phi_fn(p), 16, 1024, SPAB.max_degree, first_val)
    assert search.verified and asked == [2048, 4096, 8192]
    assert search.report_line() == "degree=16 degZ=128 residual_val=8056 prec=8192"


def _search_oracle_calls(monkeypatch, spec, sp, prec):
    """The driver's report on ``spec`` and every precision it asks of the
    oracle series, in order."""
    asked = []
    for name in ("p_cf_series", "g_cf_series"):
        oracle = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda *args, f=oracle: asked.append(args[-1]) or f(*args))
    check = check_theorem_p if isinstance(spec, PSpec) else check_theorem_g
    rep = check(spec, sp, prec)
    return rep, asked[:]


@pytest.mark.parametrize(
    "spec, sp, prec, asked",
    [
        # the exact P relation is verified on one series, at p2 = 2 p1,
        # which also gives the agreement line
        (PSpec("", "110"), SPB, 512, [1024]),
        # so is the exact G relation (degX 16, degZ 128): p1 = 2240, its
        # certifying precision at pole 1
        (GSpec("a", "b", "0011"), SPAB, 1024, [4480]),
        # p1 = 2240, the certifying precision of degX 64, degZ 32 at pole 1
        (PSpec("", "110100"), SPB, 512, [4480]),
    ],
)
def test_search_builds_one_oracle_series_per_round(monkeypatch, spec, sp, prec, asked):
    rep, calls = _search_oracle_calls(monkeypatch, spec, sp, prec)
    assert rep.passed and calls == asked
    assert rep.search.verify_prec == asked[-1] == 2 * rep.search.discovery_prec


@pytest.mark.parametrize(
    "spec, sp",
    [(PSpec("", "110100"), SPB), (PSpec("010", "110"), SPB), (GSpec("a", "b", "0101"), SPAB)],
)
def test_discovery_series_is_the_verifying_series_cut(monkeypatch, spec, sp):
    # cf_series is exact below its precision, so each round's discovery
    # series, cut from the verifying one, is the oracle series at p1; an
    # exact verdict builds only the verifying series, at its own p1
    rep, asked = _search_oracle_calls(monkeypatch, spec, sp, 512)
    assert rep.passed and asked == [rep.search.verify_prec] == [2 * rep.search.discovery_prec]
    phi_fn, _ = spec_series(spec, sp)
    for p2 in asked:
        p1 = p2 // 2
        phi2, phi = phi_fn(p2), phi_fn(p1)
        cut = LaurentSeries(phi2.val, phi2.mask, p1)
        assert (cut.val, cut.mask, cut.prec) == (phi.val, phi.mask, phi.prec)
