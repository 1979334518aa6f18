"""Word families, the prefix-sum operator, and the structural conversions."""

import random

import pytest
from hypothesis import given, strategies as st

from cf2.words import (
    DegeneratePeriodic,
    GSpec,
    PSpec,
    complement,
    g_normalize,
    g_prefix,
    g_sigma,
    p_prefix,
    p_to_g,
    sigma_inv_word,
    sigma_word,
    word_stats,
)

bits = st.text(alphabet="01", min_size=0, max_size=64)


def test_center_doubling_goldens():
    assert p_prefix(PSpec("", "10"), 8) == "10111010"
    assert p_prefix(PSpec("a", "b"), 3) == "aba"
    assert p_prefix(PSpec("", "c"), 3) == "ccc"


def test_pair_doubling_goldens():
    assert g_prefix(GSpec("a", "b", "1"), 8) == "abbabaab"
    assert g_prefix(GSpec("a", "b", "0"), 4) == "aaaa"
    assert g_prefix(GSpec("a", "b", "011"), 8) == "aabbbbaa"


def test_sigma_goldens():
    p8 = p_prefix(PSpec("", "10"), 8)
    assert sigma_word(p8)[:8] == "01101001"
    assert sigma_word("0000") == "00000"
    assert sigma_word("1") == "01"
    assert sigma_inv_word(p_prefix(PSpec("", "10"), 17)) == "1100111111001100"
    assert sigma_inv_word("000") == "00"


def test_sigma_inverse_of_prefix_sum_is_period_doubling():
    t9 = sigma_word(p_prefix(PSpec("", "10"), 8))
    assert sigma_inv_word(t9) == p_prefix(PSpec("", "10"), 8)


def test_sigma_errors():
    with pytest.raises(ValueError, match=r"^word must be binary, got '012'$"):
        sigma_word("012")
    for bad in ("0_1", " 01", "01 "):  # int() would read these as binary
        for fn in (sigma_word, sigma_inv_word, complement):
            with pytest.raises(ValueError, match="^word must be binary"):
                fn(bad)
    for short in ("", "1"):
        with pytest.raises(ValueError, match="^need at least two letters$"):
            sigma_inv_word(short)


@given(st.text(alphabet="01", max_size=1100))
def test_sigma_and_complement_match_their_letter_definitions(s):
    # the big-int forms against the letter-by-letter definitions, leading
    # zeros, the empty word and words past ten doubling shifts included
    parity = [0]
    for c in s:
        parity.append(parity[-1] ^ int(c))
    assert sigma_word(s) == "".join(map(str, parity))
    if len(s) >= 2:
        assert sigma_inv_word(s) == "".join(str(int(a) ^ int(b)) for a, b in zip(s, s[1:]))
    assert complement(s) == "".join("1" if c == "0" else "0" for c in s)


def test_empty_spec_errors():
    with pytest.raises(ValueError):
        PSpec("", "")
    with pytest.raises(ValueError):
        GSpec("", "b", "1")
    with pytest.raises(ValueError):
        GSpec("a", "b", "012")


def test_word_stats_recurrence():
    assert word_stats("1").t == 1
    assert word_stats("101").t == 0
    assert word_stats("101").delta == (1, 1, 0)


@given(bits.filter(lambda s: len(s) >= 2))
def test_sigma_roundtrips(s):
    assert sigma_inv_word(sigma_word(s)) == s
    back = sigma_word(sigma_inv_word(s))
    if s[0] == "0":
        assert back == s


@given(bits, st.integers(0, 200), st.integers(0, 200))
def test_prefix_stability(eps, a, b):
    if not eps:
        return
    spec = PSpec("", eps)
    lo, hi = sorted((a, b))
    assert p_prefix(spec, hi)[:lo] == p_prefix(spec, lo)


def test_prefix_sum_conversion_golden():
    g = p_to_g(PSpec("", "10"))
    assert g == GSpec("01", "10", "11")
    assert p_to_g(PSpec("", "110")).ups == "011"
    assert p_to_g(PSpec("", "1")).ups == "0"


def test_prefix_sum_conversion_matches_sigma():
    rng = random.Random(42)
    for _ in range(10):
        w0 = "".join(rng.choice("01") for _ in range(rng.randrange(0, 4)))
        eps = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        spec = PSpec(w0, eps)
        L = 2048
        assert g_prefix(p_to_g(spec), L) == sigma_word(p_prefix(spec, L))[:L]


def test_pair_sigma_golden():
    gs = g_sigma(GSpec("0", "1", "1"))
    assert gs == GSpec("0010", "0111", "1")
    L = 512
    assert g_prefix(gs, L) == sigma_word(g_prefix(GSpec("0", "1", "1"), L))[:L]


def test_pair_sigma_zero_words():
    gs = g_sigma(GSpec("0", "0", "10"))
    assert set(gs.u0) == {"0"} and set(gs.v0) == {"0"}


def test_pair_sigma_iterated():
    spec = GSpec("0", "1", "1")
    twice = g_sigma(g_sigma(spec))
    L = 512
    expect = sigma_word(sigma_word(g_prefix(spec, L + 1)))[:L]
    assert g_prefix(twice, L) == expect


def test_normalize_examples():
    n = g_normalize(GSpec("a", "b", "011"))
    assert n.spec == GSpec("aa", "bb", "110") and n.s == "101"
    n = g_normalize(GSpec("a", "b", "1"))
    assert n.spec == GSpec("a", "b", "1") and n.s == "11"
    n = g_normalize(GSpec("a", "b", "10"))
    assert n.spec == GSpec("a", "b", "10") and n.s == "01"


def test_normalize_preserves_limit():
    rng = random.Random(5)
    for _ in range(10):
        u0 = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 4)))
        v0 = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 4)))
        ups = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        if "1" not in ups:
            continue
        spec = GSpec(u0, v0, ups)
        n = g_normalize(spec)
        assert g_prefix(spec, 4096) == g_prefix(n.spec, 4096)
        assert n.s.endswith("1")


def test_normalize_degenerate():
    with pytest.raises(DegeneratePeriodic):
        g_normalize(GSpec("a", "b", "000"))


def test_complement():
    assert complement("0110") == "1001"


@given(bits, st.integers(0, 300), st.integers(0, 300))
def test_g_prefix_stability(ups, a, b):
    if "0" not in ups and "1" not in ups:
        return
    spec = GSpec("x", "y", ups)
    lo, hi = sorted((a, b))
    assert g_prefix(spec, hi)[:lo] == g_prefix(spec, lo)
