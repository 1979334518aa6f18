"""Randomized identity checkers: clean passes, failing mutations, determinism."""

import pytest

from cf2.identities import (
    PAIR_IDENTITY_NAMES,
    all_driver_words,
    check_closed_form,
    check_generation_relations,
    check_pair_products,
    check_period_power_shift,
    check_tail_equations,
    check_tower_expansion,
    check_valuation_bounds,
)
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
