"""Library refusals of inputs outside each function's domain: every call
raises with its own message instead of returning a wrong value."""

import pytest

from cf2.gf2m import Gf2m, field
from cf2.gf2poly import clpow, min_irreducible
from cf2.identities import run_identity_suite
from cf2.laurent import LaurentSeries, _inv_mask
from cf2.relations import find_relation
from cf2.towers import SpecMap
from cf2.words import GSpec, PSpec, g_prefix, g_sigma, p_prefix, p_to_g


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Gf2m(1), ValueError, "extension degree must be at least 2"),
        (lambda: field(16).pow(0, -1), ZeroDivisionError, "zero has no inverse"),
        (lambda: min_irreducible(0), ValueError, "degree must be positive"),
        (lambda: SpecMap({"a": -3}), ValueError, "polynomial bits must be nonnegative"),
        (lambda: clpow(1, -1), ValueError, "negative power of a polynomial"),
        (lambda: LaurentSeries(0, -1, 8), ValueError, "mask must be nonnegative"),
        (lambda: _inv_mask(2, 8), ValueError, "constant term must be 1"),
        (lambda: find_relation(LaurentSeries(0, 1, 64), 0), ValueError, "need degx >= 1 and degz >= 0"),
        (lambda: p_prefix(PSpec("", "10"), -1), ValueError, "length must be nonnegative"),
        (lambda: g_prefix(GSpec("a", "b", "1"), -1), ValueError, "length must be nonnegative"),
        (lambda: p_to_g(PSpec("", "ab")), ValueError, "prefix-sum conversion needs a binary P-spec"),
        (lambda: g_sigma(GSpec("a", "b", "1")), ValueError, "prefix-sum conversion needs a binary G-spec"),
        (lambda: run_identity_suite(max_word_len=0), ValueError, "closed form needs at least one driver word"),
    ],
)
def test_out_of_domain_input_is_refused(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
