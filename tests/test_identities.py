"""Randomized identity checkers: clean passes, failing mutations, determinism."""

import random
from itertools import count

import pytest

import cf2.identities
from cf2.cli import main
from cf2.gf2m import Gf2m, field
from cf2.identities import (
    PAIR_IDENTITY_NAMES,
    TOWER_WORDS,
    _closed_step,
    _rand_mat,
    all_driver_words,
    check_closed_form,
    check_generation_relations,
    check_pair_products,
    check_period_power_shift,
    check_tail_equations,
    check_tower_expansion,
    check_valuation_bounds,
)
from cf2.laurent import LaurentSeries
from cf2.mat2 import Mat2
from cf2.theorems import check_theorem_g
from cf2.towers import CoScaled, DegenerateDraw, GQuantities, PTower, SpecMap, pair_step, pair_tower
from cf2.words import GSpec, PSpec

TRIALS = 25  # acceptance runs the full 100; keep unit runs quick


def test_tower_expansion_passes():
    rep = check_tower_expansion(5, TRIALS, 16, 1)
    assert rep.passed and rep.trials == TRIALS


def test_tower_expansion_single_step_form():
    # n = 1 is the base identity m_1 = L_1 m_0 + d_0 b_0
    assert check_tower_expansion(1, TRIALS, 16, 2).passed


def test_tower_expansion_mutation_fails():
    assert not check_tower_expansion(4, 10, 16, 1, mutate=True).passed


def test_wrong_step_scalar_fails_tower_expansion_and_theorem1(monkeypatch, capsys):
    # s_i = (b_0 + c_0)/e_i^2 + a_0 in place of (b_0 + c_0)/e_i + a_0: the
    # scalar walk leaves the matrices, which the expansion check and the
    # theorem's limits see (w0 = 10 is no palindrome, so b_0 != c_0)
    init = PTower.__init__

    def squared(self, F, m0, eps):
        init(self, F, m0, eps)
        bc = F.add(m0.b, m0.c)
        self.s = [F.add(F.div(bc, F.square(e)), m0.a) for e in eps]

    monkeypatch.setattr(PTower, "__init__", squared)
    assert not check_tower_expansion(5, 10, 16, 1).passed
    assert main(["theorem1", "--w0", "10", "--eps", "110"]) == 1
    assert "oracle-agreement val>=6 fail" in capsys.readouterr().out.splitlines()


def test_reversed_matrix_walk_fails_tower_expansion(monkeypatch):
    # matrices() with its product in the wrong order, F(e) m m instead of
    # m F(e) m, no longer matches the scalar walk
    def reversed_walk(self):
        F, m = self.F, self.m0
        for j in count():
            ix = F.inv(self.eps[j % self.period])
            m = Mat2(F, F.one, ix, ix, F.zero).mul(m).mul(m)
            yield m

    monkeypatch.setattr(PTower, "matrices", reversed_walk)
    assert not check_tower_expansion(5, 10, 16, 1).passed


def test_period_power_shift_passes():
    assert check_period_power_shift(2, 3, TRIALS, 16, 1).passed
    assert check_period_power_shift(3, 2, TRIALS, 16, 1).passed


def test_period_power_shift_aperiodic_fails():
    assert not check_period_power_shift(2, 3, 10, 16, 1, mutate=True).passed


def test_tail_equations_pass():
    assert check_tail_equations(2, 3, TRIALS, 16, 1).passed
    assert check_tail_equations(3, 2, TRIALS, 16, 1).passed
    assert check_tail_equations(1, 3, TRIALS, 16, 1).passed


def test_tail_equations_collapsed_form_fails():
    # the collapsed-product factor only works for trivial running products
    assert not check_tail_equations(2, 3, 10, 16, 1, mutate=True).passed


def test_pair_products_pass():
    rep = check_pair_products(TRIALS, 16, 1)
    assert rep.passed


@pytest.mark.parametrize("name", PAIR_IDENTITY_NAMES)
def test_pair_product_mutations_fail(name):
    assert not check_pair_products(10, 16, 1, mutate_id=name).passed


@pytest.mark.parametrize("name", ["det_eq", "", "closed-form"])
def test_pair_products_reject_unknown_mutation(name):
    # a misspelt control must not run the unmutated check and pass
    with pytest.raises(ValueError, match="unknown pair identity"):
        check_pair_products(5, 16, 1, mutate_id=name)


def test_closed_form_small_words():
    for s in ["0", "1", "11", "10", "101", "0101"]:
        rep = check_closed_form(s, TRIALS, 16, 1)
        assert rep.passed, s


def test_closed_form_longest_words():
    assert check_closed_form("10110100", TRIALS, 16, 1).passed
    assert check_closed_form("11111111", TRIALS, 16, 1).passed


def test_closed_form_mutation_fails():
    assert not check_closed_form("11", 10, 16, 1, mutate=True).passed


def test_generation_relations_pass():
    for s in ["11", "101", "0011"]:
        assert check_generation_relations(s, 3, TRIALS, 16, 1).passed, s


@pytest.mark.parametrize("m", [2, 16])
def test_generation_walk_matches_the_pair_tower(m):
    # each driver word ends with the cross bit, so walking it i times from
    # (w0*m0, m0*w0) is the pair tower of its i-th power: the chain that
    # check_generation_relations walks once per generation
    F = field(m)
    rng = random.Random(m)
    for s in TOWER_WORDS:
        m0, w0 = (Mat2(F, *(F.sample(rng) for _ in range(4))) for _ in range(2))
        pair = (w0.mul(m0), m0.mul(w0))
        for i in range(1, 5):
            for bit in s:
                pair = pair_step(*pair, bit)
            tower = pair_tower(m0, w0, s * i)
            assert pair[0].eq(tower[0]) and pair[1].eq(tower[1]), (s, i)


def test_generation_relations_mutation_fails():
    assert not check_generation_relations("11", 2, 10, 16, 1, mutate=True).passed


def test_generation_relations_hypothesis_guard():
    with pytest.raises(ValueError):
        check_generation_relations("10", 2, 5, 16, 1)  # does not end in 1
    with pytest.raises(ValueError):
        check_generation_relations("111", 2, 5, 16, 1)  # odd digit sum


def test_valuation_bounds_pass():
    rep = check_valuation_bounds(
        pspec=PSpec("", "10"), gspec=GSpec("0", "1", "11"), depth=6, prec=256
    )
    assert rep.passed
    assert any("expected" in line for line in rep.measurements)


def test_valuation_bounds_nonempty_seed():
    rep = check_valuation_bounds(pspec=PSpec("10", "10"), depth=6, prec=256)
    assert rep.passed


def test_valuation_bounds_mutation_fails():
    assert not check_valuation_bounds(pspec=PSpec("", "10"), depth=4, prec=256, mutate=True).passed


@pytest.mark.parametrize(
    "kwargs, line",
    [
        (dict(pspec=PSpec("", "10"), depth=10, prec=128), "P gap 8->10: val=128 bound=256"),
        (dict(pspec=PSpec("", "1"), depth=8, prec=64), "P gap 7->8: val=64 bound=128"),
        (dict(gspec=GSpec("0", "1", "1001"), prec=128), "G gap 2->3: val=128 bound=256"),
    ],
)
def test_valuation_bounds_gap_zero_to_precision_passes(kwargs, line):
    # the gap is zero to its precision, short of a bound past it: its
    # valuation is unknown there, so it is not below the bound
    rep = check_valuation_bounds(**kwargs)
    assert line in rep.measurements
    assert rep.passed and rep.failures == []


def test_valuation_bounds_real_gap_violation_fails(monkeypatch):
    # corrupt L_4 of the n=2 tower by 1/z, so L_4 - L_2 has valuation 1
    # where the tower proves at least 2^(4-2)
    advance = PTower.advance

    def corrupted(self):
        advance(self)
        if self.step == 2 * self.period:
            self.Ls[-1] = self.Ls[-1] + LaurentSeries(1, 1, self.F.prec)

    monkeypatch.setattr(PTower, "advance", corrupted)
    rep = check_valuation_bounds(pspec=PSpec("", "10"), depth=6, prec=128)
    assert "P gap 2->4: val=1 bound=4" in rep.measurements
    assert not rep.passed and ("P", "running-product gap at 4") in rep.failures


def test_valuation_bounds_real_g_gap_violation_fails(monkeypatch):
    # g_limits judges the G gaps: a period scalar l + 1 makes L_1 - L_0 a
    # unit where the tower proves valuation at least 2^0; its ClaimFailed
    # is a failing report, so the rest of the battery still runs
    l_scalar = GQuantities.l_scalar.fget
    monkeypatch.setattr(GQuantities, "l_scalar", property(lambda q: l_scalar(q) + q.F.one))
    rep = check_valuation_bounds(pspec=PSpec("", "10"), gspec=GSpec("0", "1", "11"), prec=128)
    assert not rep.passed
    assert rep.failures == [("G", "running-product gap val 0 below bound 2^0")]
    assert "P step 1: val(d)=2 expected=2 quadratic-exponent 2^(2j)=4" in rep.measurements


def test_determinism():
    a = check_pair_products(TRIALS, 16, 99)
    b = check_pair_products(TRIALS, 16, 99)
    assert a.line() == b.line() and a.failures == b.failures


def test_driver_word_enumeration():
    words = list(all_driver_words(3))
    assert len(words) == 2 + 4 + 8
    assert len(set(words)) == len(words)


def test_period_power_shift_constant_insertions():
    # period 1 = constant insertion letters
    assert check_period_power_shift(1, 3, TRIALS, 16, 4).passed


def test_degenerate_draws_are_resampled():
    # over GF(4) many draws hit a vanishing step scalar; they are redrawn,
    # counted, and never reported as failures
    rep = check_tower_expansion(3, 20, 2, 1)
    assert rep.passed and rep.trials == 20
    assert rep.resamples == 14


def _step_sweep(F, q, max_len):
    """Every node of the word trie up to max_len, depth first, walked from
    the empty word by GQuantities.step alone: (word, c, l, even, odd),
    with the correction sum even + odd cross added up here."""
    stack = [("", None, CoScaled(F.one, 0), F.zero, F.zero)]
    while stack:
        word, c, l, even, odd = stack.pop()
        if word:
            yield word, c, l, even, odd
        for bit in "01" if len(word) < max_len else "":
            cc, cl = q.step(c, l, l.odd ^ int(bit))
            sums = (even, F.add(odd, cc.u)) if cc.odd else (F.add(even, cc.u), odd)
            stack.append((word + bit, cc, cl, *sums))


def _invariant_rhs(F, q, even, odd):
    """d + r even + even^2 + gamma (odd + odd^2), written out here."""
    rhs = F.add(F.add(q.d, F.mul(q.r, even)), F.square(even))
    return F.add(rhs, F.mul(q.gamma, F.add(odd, F.square(odd))))


def _on_invariant(F, q, c, even, odd):
    c2 = F.square(c.u)
    return F.eq(F.mul(c2, q.gamma) if c.odd else c2, _invariant_rhs(F, q, even, odd))


@pytest.mark.parametrize(
    "max_len, trials, m, seed",
    # GF(2^16) and the tableless GF(2^17) at depth 8 are the exhaustive
    # sweep the battery ran on every draw; on GF(2^17) mat_sq declines every
    # squaring and Mat2.square's own formula takes it
    [(4, 100, 2, 5), (4, 100, 3, 5), (5, 20, 16, 1), (8, 2, 16, 1), (3, 10, 17, 1), (8, 2, 17, 1)],
)
def test_closed_form_sweep_matches_per_word(max_len, trials, m, seed, monkeypatch):
    # every node up to max_len, walked by GQuantities.step alone, satisfies
    # the closed form's invariant, and its closed form is the pair tower's
    # product and that of the word's own GQuantities; the randomized check
    # over the same words passes and counts one redraw per degenerate draw
    paths = set()  # whether mat_sq answered each squaring or declined it
    fused = Gf2m.mat_sq

    def spy(F, x):
        entries = fused(F, x)
        paths.add("fallback" if entries is NotImplemented else "table")
        return entries

    monkeypatch.setattr(Gf2m, "mat_sq", spy)
    F, rng = field(m), random.Random(seed)
    assert (F._exp is None) == (m > 16)
    degenerate, nodes = 0, 0
    for _ in range(trials):
        m0, w0 = _rand_mat(F, rng), _rand_mat(F, rng)
        m1, w1 = w0.mul(m0), m0.mul(w0)
        try:
            q = GQuantities(F, m1, w1)
        except DegenerateDraw:
            degenerate += 1
            continue
        for word, c, l, even, odd in _step_sweep(F, q, max_len):
            nodes += 1
            assert _on_invariant(F, q, c, even, odd), word
            closed = [Mat2(F, *e) for e in q.closed_pair(l.odd, even, odd, l)]
            per_word = GQuantities(F, m1, w1, word).closed_products()
            tower = pair_tower(m0, w0, word)
            assert all(x.eq(y) and x.eq(z) for x, y, z in zip(closed, per_word, tower)), word
    assert nodes == (trials - degenerate) * ((2 << max_len) - 2)
    assert paths == ({"fallback"} if m > 16 else {"table", "fallback"})
    rep = check_closed_form(all_driver_words(max_len), trials, m, seed)
    assert rep.passed and rep.ident == "closed-form"
    if m < 16:
        assert degenerate > 0 and rep.resamples > 0  # the redraw path is exercised


def test_closed_form_sweep_exhausted_budget_matches_per_word(monkeypatch):
    # one draw per trial over GF(4): a degenerate trial gives up, and is
    # reported once, as one redraw, however many driver words are listed
    monkeypatch.setattr(cf2.identities, "RESAMPLE_CAP", 1)
    for words in (list(all_driver_words(3)), "101"):
        rep = check_closed_form(words, 40, 2, 5)
        assert 0 < len(rep.failures) == rep.resamples < 40
        assert all(detail == "resample budget exhausted" for _, detail in rep.failures)
        assert [trial for trial, _ in rep.failures] == sorted({trial for trial, _ in rep.failures})


def test_closed_form_sweep_mutation_fails_every_word():
    # the mutated control, a walk from l_0 = d, fails every draw of the
    # check at the first letter of the word it walks, for every word
    words = list(all_driver_words(4))
    rep = check_closed_form(words, 10, 16, 1, mutate=True)
    assert [trial for trial, _ in rep.failures] == list(range(10))
    assert all(detail in ("0: m branch", "1: m branch") for _, detail in rep.failures)
    for s in words:
        want = [(trial, f"{s[0]}: m branch") for trial in range(3)]
        assert check_closed_form(s, 3, 16, 1, mutate=True).failures == want


def test_closed_form_step_fails_off_the_invariant(monkeypatch):
    # negative control: the induction step holds at drawn points of the
    # invariant and fails, for both bits, at nodes whose c is drawn freely
    F, rng = field(16), random.Random(7)
    for _ in range(50):
        m0, w0 = _rand_mat(F, rng), _rand_mat(F, rng)
        q = GQuantities(F, w0.mul(m0), m0.mul(w0))
        t, even, odd = rng.getrandbits(1), F.sample(rng), F.sample(rng)
        l = CoScaled(F.sample_invertible(rng), t)
        pair = [Mat2(F, *e) for e in q.closed_pair(t, even, odd, l)]
        c = CoScaled(F.sample(rng), t)
        assert not _on_invariant(F, q, c, even, odd)
        for bit in "01":
            assert _closed_step(q, pair, (c, l, (even, odd)), bit)[0] in ("m branch", "w branch")
        # with c the square root of the invariant's right-hand side, both pass
        rhs = _invariant_rhs(F, q, even, odd)
        c = CoScaled(F.pow(F.mul(rhs, q.inv_gamma) if t else rhs, 1 << 15), t)
        assert _on_invariant(F, q, c, even, odd)
        for bit in "01":
            assert _closed_step(q, pair, (c, l, (even, odd)), bit)[0] is None
    # the step also holds the next node to the invariant: a claimed one off
    # by 1 fails there though the closed forms agree
    off_by_one = lambda q, *sums: F.add(_invariant_rhs(F, q, *sums), F.one)  # noqa: E731
    monkeypatch.setattr(cf2.identities, "_invariant", off_by_one)
    assert _closed_step(q, pair, (c, l, (even, odd)), "1")[0] == "invariant"


def test_closed_form_rejects_bad_words():
    for bad in ("", "012"):
        with pytest.raises(ValueError):
            check_closed_form(bad, 5, 16, 1)


@pytest.mark.parametrize("trials", [0, -1])
def test_zero_trials_are_rejected(trials):
    # a randomized check over no draw would report a pass having checked nothing
    with pytest.raises(ValueError, match=f"need at least one trial, got {trials}"):
        check_tower_expansion(5, trials)
    with pytest.raises(ValueError, match="need at least one trial"):
        check_closed_form(list(all_driver_words(2)), trials)


def test_closed_form_rejects_an_empty_word_list():
    for words in ([], all_driver_words(0)):
        with pytest.raises(ValueError, match="at least one driver word"):
            check_closed_form(words, 5, 16, 1)


# -- failure details: each checker names the quantity that disagreed ---------


def _bumped(F, x):
    """x + 1: a field scalar, or a CoScaled value, that differs from x."""
    return CoScaled(F.add(x.u, F.one), x.odd) if isinstance(x, CoScaled) else F.add(x, F.one)


def _bump_primed(key):
    primed = GQuantities.primed_check_values

    def patched(q):
        want = primed(q)
        want[key] = [_bumped(q.F, want[key][0]), *want[key][1:]] if key == "c" else _bumped(q.F, want[key])
        return want

    return "primed_check_values", patched


def _bump_walk_L():
    walk = GQuantities.generations

    def patched(q):
        for i, (L, t) in enumerate(walk(q)):
            yield (_bumped(q.F, L) if i else L), t

    return "generations", patched


def _bump_limit_terms(part):
    # "H" bumps H_1 of the walk ``limit_terms``, "sum" the ``limit_sum``
    name = "limit_terms" if part == "H" else "limit_sum"
    original = getattr(GQuantities, name)

    def patched(q, x):
        out = original(q, x)
        return [_bumped(q.F, out[0]), *out[1:]] if part == "H" else out.add_scalar(q.F.one)

    return name, patched


@pytest.mark.parametrize(
    "patch, detail",
    [
        (_bump_walk_L, "L chain at 0"),
        (lambda: _bump_primed("d"), "gen 0: d'"),
        (lambda: _bump_primed("r"), "gen 0: r'"),
        (lambda: _bump_primed("l"), "gen 0: l'"),
        (lambda: _bump_primed("c"), "gen 0: c_1'"),
        (lambda: _bump_limit_terms("H"), "c_1/L gen 0"),
        (lambda: _bump_limit_terms("sum"), "expansion i=1"),
    ],
)
def test_generation_relations_failure_details(patch, detail, monkeypatch):
    monkeypatch.setattr(GQuantities, *patch())
    rep = check_generation_relations("11", 2, 3, 16, 1)
    assert rep.failures == [(trial, detail) for trial in range(3)]


@pytest.mark.parametrize("key, detail", [("d", "d'"), ("r", "r'"), ("l", "l'"), ("c", "c_1'")])
def test_bumped_primed_values_fail_theorem2(key, detail, monkeypatch):
    # mutation control: theorem 2 checks its next generation over K against
    # the primed closed forms, so one bumped value fails it by that value
    monkeypatch.setattr(GQuantities, *_bump_primed(key))
    for ups in ("1", "011"):
        rep = check_theorem_g(GSpec("a", "b", ups), SpecMap.parse("a=z,b=z+1"), 256)
        failed = [line for line in rep.all_lines() if line.endswith(" fail")]
        assert failed == [f"tail-step gen 0: {detail} fail", "theorem-g fail"], ups


def test_period_power_shift_L_shift_detail(monkeypatch):
    # a running product bumped at the last of the n + j_max = 5 steps, with
    # the step scalars kept those of the clean tower (l_5 = L_5 s_1, so the
    # clean one is the bumped one plus s_1), breaks only the L shift of j = 3
    advance, step_scalar = PTower.advance, PTower.l

    def patched(t):
        advance(t)
        if t.step == 5:
            t.Ls[-1] = t.F.add(t.Ls[-1], t.F.one)

    def clean(t, j):
        l = step_scalar(t, j)
        return t.F.add(l, t.s[j % t.period]) if j == 5 else l

    monkeypatch.setattr(PTower, "advance", patched)
    monkeypatch.setattr(PTower, "l", clean)
    rep = check_period_power_shift(2, 3, 3, 16, 1)
    assert rep.failures == [(trial, "L shift j=3") for trial in range(3)]


@pytest.mark.parametrize("n", [2, 3])
def test_period_power_shift_checks_the_last_l_shift(monkeypatch, n):
    # only the step scalar l_(n + j_max) is bumped; the check reads it from
    # L_(n + j_max), the last running product walked
    step_scalar = PTower.l

    def bumped(t, j):
        l = step_scalar(t, j)
        return t.F.add(l, t.F.one) if j == n + 3 else l

    monkeypatch.setattr(PTower, "l", bumped)
    rep = check_period_power_shift(n, 3, 3, 16, 1)
    assert rep.failures == [(trial, "l shift j=3") for trial in range(3)]


def test_tail_equations_residue_term_detail(monkeypatch):
    monkeypatch.setattr(PTower, "residue_factor", lambda t, j: t.F.one)
    rep = check_tail_equations(2, 3, 3, 16, 1)
    assert rep.failures == [(trial, "residue term j=1 k=0") for trial in range(3)]


def test_closed_form_w_branch_detail(monkeypatch):
    # a bumped w closed form fails the drawn step for bit 0 in its w branch
    # (squaring leaves the m branch alone), for one word or several
    closed_pair = GQuantities.closed_pair

    def patched(q, *args):
        cm, cw = closed_pair(q, *args)
        return cm, tuple(_bumped(q.F, v) for v in cw)

    monkeypatch.setattr(GQuantities, "closed_pair", patched)
    assert check_closed_form("101", 3, 16, 1).failures == [(trial, "step 0: w branch") for trial in range(3)]
    rep = check_closed_form(["1", "10"], 2, 16, 1)
    assert rep.failures == [(trial, "step 0: w branch") for trial in range(2)]


def test_valuation_bounds_p_entry_and_step_scalar_details(monkeypatch):
    # m_j with its top row swapped has a[0,0] of positive valuation, and a
    # step scalar times 1/z has valuation 1, where both must be units
    matrices, step_scalar = PTower.matrices, PTower.l
    z_inv = LaurentSeries(1, 1, 128)

    def swapped(t):
        for m in matrices(t):
            yield Mat2(t.F, m.b, m.a, m.c, m.d)

    def scaled(t, j):
        return step_scalar(t, j) * z_inv

    monkeypatch.setattr(PTower, "matrices", swapped)
    monkeypatch.setattr(PTower, "l", scaled)
    rep = check_valuation_bounds(pspec=PSpec("", "10"), depth=3, prec=128)
    assert rep.failures == [
        failure
        for j in (1, 2, 3)
        for failure in (("P", f"entry valuations at step {j}"), ("P", f"step scalar valuation at {j}"))
    ]


def test_valuation_bounds_g_fact_detail(monkeypatch):
    # a determinant plus 1 is a unit, where val(d) > 0 must hold
    g_limits = cf2.identities.g_limits

    def patched(*args):
        lim = g_limits(*args)
        lim.quants.d = lim.quants.d + LaurentSeries.one(lim.quants.d.prec)
        return lim

    monkeypatch.setattr(cf2.identities, "g_limits", patched)
    rep = check_valuation_bounds(gspec=GSpec("0", "1", "11"), prec=128)
    assert rep.failures == [("G", "val(d)>0")]
