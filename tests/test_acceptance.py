"""Acceptance suite: one test per criterion, stated tolerances, timed.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass lines and the logged valuation measurements.
"""

import random
import time

from cf2.gf2m import field
from cf2.identities import (
    PAIR_IDENTITY_NAMES,
    check_closed_form,
    check_generation_relations,
    check_pair_products,
    check_period_power_shift,
    check_tail_equations,
    check_tower_expansion,
    check_valuation_bounds,
    run_identity_suite,
)
from cf2.mat2 import Mat2
from cf2.theorems import check_corollary_chain, check_theorem_g, check_theorem_p, explore_inverse_sigma
from cf2.towers import GQuantities, SpecMap, g_limits, p_tower, pair_tower, predicted_det_val
from cf2.words import GSpec, PSpec, g_prefix, g_sigma, p_prefix, p_to_g, sigma_word

SPB = SpecMap.binary_default()
SPAB = SpecMap.parse("a=z,b=z+1")
L14 = 1 << 14


def _report(num, desc, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} {desc} ({elapsed:.2f}s < {limit}s)")
    assert ok, f"criterion {num}: {desc}"
    assert elapsed < limit, f"criterion {num} overran {limit}s ({elapsed:.2f}s)"


def test_criterion_1_sequence_goldens():
    t0 = time.monotonic()
    p = p_prefix(PSpec("", "10"), L14)
    t = g_prefix(GSpec("0", "1", "1"), L14)
    ok = (
        p[:8] == "10111010"
        and t[:8] == "01101001"
        and sigma_word(p)[:L14] == t
        and len(p) == len(t) == L14
    )
    _report(1, "prefix-sum of the doubling word is the swap word, 2^14 exact", ok, time.monotonic() - t0, 1.0)


def test_criterion_2_structural_conversions():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        w0 = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
        eps = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        spec = PSpec(w0, eps)
        ok = ok and g_prefix(p_to_g(spec), L14) == sigma_word(p_prefix(spec, L14))[:L14]
    for _ in range(20):
        u0 = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        v0 = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        ups = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        spec = GSpec(u0, v0, ups)
        ok = ok and g_prefix(g_sigma(spec), L14) == sigma_word(g_prefix(spec, L14))[:L14]
    _report(2, "20+20 randomized conversion equivalences to 2^14", ok, time.monotonic() - t0, 10.0)


def test_criterion_3_identity_suite():
    t0 = time.monotonic()
    reports = run_identity_suite(trials=100, m=16, seed=1, max_word_len=8, generations=3)
    ok = all(r.passed for r in reports) and all(not r.failures for r in reports)
    # one mutation negative-control per identity family must fail
    controls = [
        not check_tower_expansion(4, 10, 16, 1, mutate=True).passed,
        not check_period_power_shift(2, 3, 10, 16, 1, mutate=True).passed,
        not check_tail_equations(2, 3, 10, 16, 1, mutate=True).passed,
        not check_closed_form("11", 10, 16, 1, mutate=True).passed,
        not check_generation_relations("11", 2, 10, 16, 1, mutate=True).passed,
        not check_valuation_bounds(pspec=PSpec("", "10"), depth=4, prec=256, mutate=True).passed,
    ]
    controls += [
        not check_pair_products(10, 16, 1, mutate_id=name).passed
        for name in PAIR_IDENTITY_NAMES
    ]
    ok = ok and all(controls)
    _report(3, "identity suite, 100 trials each over GF(2^16), plus mutation controls", ok, time.monotonic() - t0, 60.0)


def test_criterion_4_worked_example_regressions():
    t0 = time.monotonic()
    # symbolic-by-instance closed products over random GF(2^16) draws
    ok = check_closed_form("11", 100, 16, 7).passed
    ok = ok and check_closed_form("101", 100, 16, 7).passed
    # the displayed correction terms, on one random nondegenerate draw
    F = field(16)
    rng = random.Random(41)
    while True:
        m0 = Mat2(F, *(F.sample(rng) for _ in range(4)))
        w0 = Mat2(F, *(F.sample(rng) for _ in range(4)))
        try:
            q = GQuantities(F, w0.mul(m0), m0.mul(w0), "11")
            break
        except Exception:
            continue
    inv_cross = q.cross.scale(q.inv_gamma)
    ok = ok and q.cs_to_mat(q.c[0]).eq(inv_cross.scale(q.d))
    ok = ok and F.eq(q.l_scalar, F.mul(q.r, q.gamma))
    m3, _ = pair_tower(m0, w0, "11")
    closed_m, _ = q.closed_products()
    ok = ok and m3.eq(closed_m)
    # series equations at prec 256 with residual valuation >= 224
    for ups, power in (("1", 4), ("011", 8)):
        lim = g_limits(GSpec("a", "b", ups), SPAB, 256)
        qq = lim.quants
        h = qq.F.mul(lim.H1.u, qq.gamma) if lim.H1.odd else lim.H1.u
        l = qq.l_scalar
        res_h = h.pow(power) * l.inv().pow(2) + h + qq.d
        res_f = lim.f.pow(power) * l + lim.f  # f^(2^k) = f/l
        ok = ok and res_h.is_zero and res_h.known_zero_below() >= 224
        ok = ok and res_f.is_zero and res_f.known_zero_below() >= 224
    _report(4, "worked-example relations and H/f equations at prec 256, residual >= 224", ok, time.monotonic() - t0, 30.0)


FROZEN_P_DEGREES = {"1": 2, "10": 4, "110": 8}


def test_criterion_5_family_p_degrees():
    t0 = time.monotonic()
    ok = True
    for eps, expect in FROZEN_P_DEGREES.items():
        rep = check_theorem_p(PSpec("", eps), SPB, 512)
        s = rep.search
        ok = ok and rep.passed and s.verified
        ok = ok and s.found_degree == expect and s.found_degree <= rep.bound
        ok = ok and s.verify_prec >= 1024 and s.residual_bound >= 768
    _report(5, "family-P degree bounds at prec 512, re-verified at >=1024, residual >= 768", ok, time.monotonic() - t0, 120.0)


FROZEN_G_DEGREES = {"11": 4, "101": 8, "1001": 16}


def test_criterion_6_family_g_degrees():
    t0 = time.monotonic()
    ok = True
    for ups, expect in FROZEN_G_DEGREES.items():
        rep = check_theorem_g(GSpec("a", "b", ups), SPAB, 512)
        s = rep.search
        ok = ok and rep.passed and s.verified
        ok = ok and s.found_degree == expect and s.found_degree <= rep.bound
        ok = ok and s.verify_prec >= 1024 and s.residual_bound >= 768
    # the swap word itself: degree at most 4
    tm = check_theorem_g(GSpec("a", "b", "1"), SPAB, 512)
    ok = ok and tm.passed and tm.search.found_degree <= 4
    _report(6, "family-G degree bounds incl. the swap word at degree <= 4", ok, time.monotonic() - t0, 120.0)


def test_criterion_7_iterated_prefix_sums():
    t0 = time.monotonic()
    rep = check_corollary_chain(PSpec("", "10"), SPB, 3, 512)
    ok = rep.passed and len(rep.sub_reports) == 3
    for sub in rep.sub_reports:
        ok = ok and sub.search.found_degree <= 4
        ok = ok and sub.agreement is not None and sub.agreement >= 256
    _report(7, "prefix-sum chain k=1..3: degree <= 4, oracle agreement >= 256", ok, time.monotonic() - t0, 120.0)


def test_criterion_8_valuation_bounds():
    t0 = time.monotonic()
    # 2^(2j) determinant growth needs a seed word with determinant
    # valuation >= 64; measured at full precision so j=6 is visible
    heavy = PSpec("1" * 32, "10")
    tower = p_tower(heavy, SPB, 4400)
    ok = True
    for j in range(1, 7):
        tower.advance()
        v = tower.ds[j].valuation
        expect = predicted_det_val(heavy, SPB, j)
        ok = ok and v == expect and v >= (1 << (2 * j))
        print(f"  heavy-seed val(d_{j}) = {v} (>= {1 << (2 * j)})")
    # the same inequality fails on the weightless flagship fixture: the
    # degree bookkeeping gives 2^(j+1) - 2 there (logged, not asserted)
    light = p_tower(PSpec("", "10"), SPB, 512)
    for j in range(1, 3):
        light.advance()
    print(f"  light-seed val(d_2) = {light.ds[2].valuation} < 16 (growth is 2^(j+1)-2)")
    # running-product gaps on fixtures with nontrivial products
    from cf2.towers import p_limits

    lim = p_limits(PSpec("10", "10"), SPB, 512)
    for j, dv in lim.diff_vals:
        ok = ok and dv >= (1 << (j - 2))
        print(f"  P gap L_{j - 2}->L_{j}: val >= {dv} (bound {1 << (j - 2)})")
    glim = g_limits(GSpec("ab", "ba", "11"), SPAB, 512)
    for i, dv in glim.diff_vals:
        ok = ok and dv >= (1 << (i * glim.quants.k))
        print(f"  G gap L_{i}->L_{i + 1}: val >= {dv} (bound {1 << (i * glim.quants.k)})")
    rep = check_valuation_bounds(
        pspec=PSpec("10", "10"), gspec=GSpec("0", "1", "11"), depth=6, prec=512
    )
    ok = ok and rep.passed
    _report(8, "valuation suite: determinant growth and running-product gaps", ok, time.monotonic() - t0, 60.0)


def test_criterion_9_exploratory_no_claim():
    t0 = time.monotonic()
    rep = explore_inverse_sigma(8, 64, 512)
    text = " ".join(rep.lines)
    ok = rep.passed and "no relation found up to degX 8, degZ 64" in text
    ok = ok and "observation only" in text
    _report(9, "inverse prefix-sum search completes with no relation (no claim)", ok, time.monotonic() - t0, 120.0)
