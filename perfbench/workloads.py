"""The benchmark's workloads: inputs drawn from a seed, the timed calls
into cf2, and the gate that judges each call's verdict.

Seed 1 gives the fixtures of the acceptance suite and the frozen degree
goldens.  Any other seed draws primitive period words and start words of
the same lengths, so each op costs about the same on every seed; there
the degree gate is only "found degree <= bound".  cf2 receives nothing
but the generated specs.

Calls go through the cf2 module attributes (``theorems.check_theorem_p``
rather than an imported name) so that a traced run sees them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable

from cf2 import gf2m, identities, theorems, towers
from cf2.words import GSpec, PSpec

FIXTURE_SEED = 1


@dataclass(frozen=True)
class Op:
    """One timed call and the judgement of its result.

    ``judge`` gets the call's return value, or the exception it raised,
    and returns None for a right verdict or the reason it is wrong.
    ``defect`` names a known defect the op can show (ROADMAP item 3) and
    ``defect_seen`` tells whether a wrong verdict is that defect: it is
    counted as failed but does not make the run incorrect.
    """

    name: str
    spec: str
    call: Callable[[], object]
    judge: Callable[[object], str | None]
    defect: str = ""
    defect_seen: Callable[[object], bool] | None = None


@dataclass(frozen=True)
class Outcome:
    name: str
    seconds: float
    verdict: str  # "pass", "known-defect" or "wrong"
    detail: str


def run_op(op: Op, clock) -> Outcome:
    t0 = clock()
    try:
        result = op.call()
    except Exception as exc:  # a raising op is a wrong verdict, not a crashed run
        result = exc
    seconds = clock() - t0
    why = op.judge(result)
    if why is None:
        return Outcome(op.name, seconds, "pass", "")
    if op.defect_seen is not None and op.defect_seen(result):
        return Outcome(op.name, seconds, "known-defect", f"{why}; {op.defect}")
    return Outcome(op.name, seconds, "wrong", why)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _primitive(w: str) -> bool:
    n = len(w)
    return not any(n % d == 0 and w == w[:d] * (n // d) for d in range(1, n))


def draw_word(rng: random.Random, fixture: str, keep_ones: bool) -> str:
    """A primitive binary word of the fixture's length (and, if asked, its
    number of 1s); the fixture itself when no such word exists."""
    pool = [
        "".join(bits)
        for bits in product("01", repeat=len(fixture))
        if _primitive("".join(bits)) and (not keep_ones or bits.count("1") == fixture.count("1"))
    ]
    return rng.choice(pool) if pool else fixture


def arrangements(word: str) -> list[str]:
    """The distinct words with the letters of ``word``, sorted."""
    return sorted({"".join(p) for p in permutations(word)})


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def _raised(result) -> str | None:
    return f"raised {type(result).__name__}: {result}" if isinstance(result, Exception) else None


def _theorem_judge(golden: int | None):
    def judge(rep) -> str | None:
        if (why := _raised(rep)) is not None:
            return why
        s = rep.search
        if not rep.passed:
            return f"{rep.name} fail"
        if s is None or not s.verified:
            return "relation not verified"
        if s.found_degree > rep.bound:
            return f"degree {s.found_degree} above bound {rep.bound}"
        if golden is not None and s.found_degree != golden:
            return f"degree {s.found_degree} off golden {golden}"
        return None

    return judge


SEARCH_BUDGET = "the relation search found nothing within its degZ budget at prec 512, ROADMAP item 3"
# Theorem-G rungs that may show the budget false fail: G5 alone at the
# fixture seed; on other seeds G rungs of period 4 or more (seeds 1-15 showed
# it on G4 and G5 only).  P rungs, and G rungs with a golden or a shorter
# period, fit their relation in the budget, so an empty search there is a
# wrong verdict: the search itself is broken.
FIXTURE_DEFECT_RUNGS = ("G5",)
DEFECT_MIN_PERIOD = 4


def _search_budget_spent(rep) -> bool:
    """A theorem fail whose series checks all passed but whose relation
    search came back empty: the known precision-budget false fail."""
    return (
        isinstance(rep, theorems.CheckReport) and not rep.passed and rep.search.relation is None
        and not any(line.endswith(" fail") for line in rep.lines)
    )


def _budget_defect(name: str, period: int, fixture: bool):
    """The known-defect test of a theorem-G rung, or None where it cannot apply."""
    eligible = name in FIXTURE_DEFECT_RUNGS if fixture else period >= DEFECT_MIN_PERIOD
    return _search_budget_spent if eligible else None


def _corollary_judge(k: int):
    def judge(rep) -> str | None:
        if (why := _raised(rep)) is not None:
            return why
        if not rep.passed or len(rep.sub_reports) != k:
            return "corollary-chain fail"
        return None

    return judge


def _explore_judge(degx: int, degz: int):
    def judge(rep) -> str | None:
        if (why := _raised(rep)) is not None:
            return why
        text = " ".join(rep.lines)
        if rep.search.relation is not None or f"no relation found up to degX {degx}, degZ {degz}" not in text:
            return "explore-sigma-inv found a relation"
        return None

    return judge


def _suite_judge(reports) -> str | None:
    if (why := _raised(reports)) is not None:
        return why
    bad = [r.ident for r in reports if not r.passed or r.failures]
    return f"identity reports failed: {bad}" if bad else None


def _mutant_judge(rep) -> str | None:
    if (why := _raised(rep)) is not None:
        return why
    return "mutation control passed" if rep.passed else None


@dataclass(frozen=True)
class SeriesHalf:
    """Valuation bounds measured by the series half of theorem1/theorem2."""

    prec: int
    agreement: tuple[bool, int]  # (is zero, known zero below) of tower limit + oracle
    residuals: tuple[tuple[str, bool, int], ...]
    branch_ok: bool


def _series_half_judge(h) -> str | None:
    if (why := _raised(h)) is not None:
        return why
    zero, bound = h.agreement
    if not zero or bound < h.prec // 2:
        return f"oracle agreement {bound} below {h.prec // 2}"
    for label, zero, bound in h.residuals:
        if not zero or bound < (7 * h.prec) // 8:
            return f"equation {label} residual {bound} below {(7 * h.prec) // 8}"
    return None if h.branch_ok else "scalar branch mismatch"


def _bounds(series) -> tuple[bool, int]:
    return series.is_zero, series.known_zero_below()


def p_series_half(spec: PSpec, sp, prec: int) -> SeriesHalf:
    lim = towers.p_limits(spec, sp, prec)
    direct = towers.p_cf_series(spec, sp, prec)
    res = [("f", lim.residual_f()), ("H0", lim.residual_h0())]
    res += [(f"H{j}", lim.residual_hj(j)) for j in range(1, spec.period)]
    return SeriesHalf(prec, _bounds(lim.cf + direct), tuple((n, *_bounds(r)) for n, r in res), True)


def g_series_half(spec: GSpec, sp, prec: int) -> SeriesHalf:
    lim = towers.g_limits(spec, sp, prec)
    direct = towers.g_cf_series(spec, sp, prec)
    res = [("f", lim.residual_f()), ("H", lim.residual_h())]
    e1 = lim.quants.stats.delta[0] if lim.norm.s else 0
    return SeriesHalf(
        prec, _bounds(lim.cf + direct), tuple((n, *_bounds(r)) for n, r in res), lim.H1.odd == (e1 & 1)
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def identity_battery(seed: int) -> list[Op]:
    """`cf2 identities --all` and the 18 mutation controls of criterion 3."""
    gf2m.field(16)  # first-use set-up: the GF(2^16) exp/log tables
    ops = [
        Op(
            "suite", f"run_identity_suite(trials=100, m=16, seed={seed})",
            lambda: identities.run_identity_suite(trials=100, m=16, seed=seed, max_word_len=8, generations=3, prec=512),
            _suite_judge,
        )
    ]
    controls = [
        ("tower-expansion", lambda: identities.check_tower_expansion(4, 10, 16, seed, mutate=True)),
        ("period-power-shift", lambda: identities.check_period_power_shift(2, 3, 10, 16, seed, mutate=True)),
        ("tail-equations", lambda: identities.check_tail_equations(2, 3, 10, 16, seed, mutate=True)),
        ("closed-form", lambda: identities.check_closed_form("11", 10, 16, seed, mutate=True)),
        ("generation-relations", lambda: identities.check_generation_relations("11", 2, 10, 16, seed, mutate=True)),
        ("valuation-bounds", lambda: identities.check_valuation_bounds(
            pspec=PSpec("", "10"), depth=4, prec=256, mutate=True)),
    ]
    controls += [
        (f"pair-products[{name}]", lambda name=name: identities.check_pair_products(10, 16, seed, mutate_id=name))
        for name in identities.PAIR_IDENTITY_NAMES
    ]
    ops += [Op(f"mutant:{name}", f"{name} mutated, seed={seed}", call, _mutant_judge) for name, call in controls]
    return ops


P_LADDER = ("1", "10", "110", "1101", "11010", "110100")
G_LADDER = ("1", "11", "101", "1001", "10001")
P_GOLDEN = {"1": 2, "10": 4, "110": 8}
G_GOLDEN = {"11": 4, "101": 8, "1001": 16}
LADDER_PREC = 512
COROLLARY_K = 4
EXPLORE = (16, 256, 512)


def degree_ladder(seed: int) -> list[Op]:
    """Theorem 1/2 rungs by period, the corollary chain and the
    exploratory search's miss path."""
    spb = towers.SpecMap.binary_default()
    spab = towers.SpecMap.parse("a=z,b=z+1")
    fixture = seed == FIXTURE_SEED
    rng = random.Random(seed)
    ops = []
    for i, eps in enumerate(P_LADDER, 1):
        e = eps if fixture else draw_word(rng, eps, keep_ones=False)
        spec = PSpec("", e)
        ops.append(Op(
            f"P{i}", repr(spec), lambda spec=spec: theorems.check_theorem_p(spec, spb, LADDER_PREC),
            _theorem_judge(P_GOLDEN.get(eps) if fixture else None),
        ))
    for i, ups in enumerate(G_LADDER, 1):
        u0, v0 = ("a", "b") if fixture else rng.choice([("a", "b"), ("b", "a")])
        spec = GSpec(u0, v0, ups if fixture else draw_word(rng, ups, keep_ones=True))
        ops.append(Op(
            f"G{i}", repr(spec), lambda spec=spec: theorems.check_theorem_g(spec, spab, LADDER_PREC),
            _theorem_judge(G_GOLDEN.get(ups) if fixture else None),
            SEARCH_BUDGET, _budget_defect(f"G{i}", spec.period, fixture),
        ))
    spec = PSpec("", "10" if fixture else draw_word(rng, "10", keep_ones=False))
    ops.append(Op(
        "corollary", f"{spec!r} k={COROLLARY_K}",
        lambda: theorems.check_corollary_chain(spec, spb, COROLLARY_K, LADDER_PREC),
        _corollary_judge(COROLLARY_K),
        "PrecisionBudget at prec 512, ROADMAP item 3",
        lambda r: isinstance(r, towers.PrecisionBudget),
    ))
    ops.append(Op(
        "explore", f"explore_inverse_sigma{EXPLORE}",
        lambda: theorems.explore_inverse_sigma(*EXPLORE),
        _explore_judge(*EXPLORE[:2]),
    ))
    return ops


LIMITS_PREC = 16384


def tower_limits(seed: int) -> list[Op]:
    """Tower limits at prec 16384, gated by the series half of the theorems.

    A limit's cost depends on the letters of its words, up to 2x between
    period words of one length, so other seeds keep each fixture word's
    letter counts: they draw a primitive period word with the fixture's
    number of 1s and rearrange the start words.  ``p_limits2`` keeps its
    period word 110: it is the slowest op, so it sets ``verdict_max_s``, and
    the other rotations of 110 take 10-15% less.  ``p_limits3``, the slot
    of a start word, keeps its period word too.
    """
    spb = towers.SpecMap.binary_default()
    spab = towers.SpecMap.parse("a=z,b=z+1")
    fixture = seed == FIXTURE_SEED
    rng = random.Random(seed)

    def p(w0, eps, keep_eps=False):
        if fixture:
            return PSpec(w0, eps)
        return PSpec(rng.choice(arrangements(w0)), eps if keep_eps else draw_word(rng, eps, keep_ones=True))

    def g(u0, v0, ups):
        if fixture:
            return GSpec(u0, v0, ups)
        u, v = rng.choice([(u, v) for u in arrangements(u0) for v in arrangements(v0) if u != v])
        return GSpec(u, v, draw_word(rng, ups, keep_ones=True))

    ops = []
    for i, spec in enumerate((p("", "10"), p("", "110", keep_eps=True), p("10", "10", keep_eps=True)), 1):
        ops.append(Op(f"p_limits{i}", repr(spec),
                      lambda spec=spec: p_series_half(spec, spb, LIMITS_PREC), _series_half_judge))
    for i, spec in enumerate((g("a", "b", "101"), g("ab", "ba", "11")), 1):
        ops.append(Op(f"g_limits{i}", repr(spec),
                      lambda spec=spec: g_series_half(spec, spab, LIMITS_PREC), _series_half_judge))
    return ops


WORKLOADS = {
    "identity-battery": identity_battery,
    "degree-ladder": degree_ladder,
    "tower-limits": tower_limits,
}


def setup(workload: str, seed: int) -> list[Op]:
    """Draw the inputs and do the first-use set-up; return the ops."""
    return WORKLOADS[workload](seed)
