"""End-to-end algebraicity checks for the two word families.

Each driver builds the continued-fraction series of a spec two ways
(product-tower limit and direct convergents), asserts their agreement
and the closed equations satisfied by the limit scalars, then takes an
annihilating polynomial and verifies it on the convergent series at
double precision.  Both drivers run the identity battery's tail checks
(``tail_mismatch``, ``generation_mismatch``) exactly over GF(2)(z) on
their own tower.  Neither searches for its relation: family P derives
it from its letters alone, with no tower, and family G as the norm of
its tower's affine form over K.  Only explore and ``cf2 relation`` search.
Degree bounds: 2^n for family P with insertion period n, 2^k for
family G with (normalized) swap period k.  Only family G's all-zero swap
period is degenerate: it has no tower, and its quadratic is derived exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

from .identities import generation_mismatch, tail_mismatch
from .laurent import LaurentSeries
from .mat2 import RationalField
from .relations import (
    AlgRelation, certifying_precision, find_relation, frobenius_relation, max_degz, norm_relation,
    required_precision,
)
from .towers import (
    SpecMap,
    _word_product,
    cf_series_of,
    exact_g_quantities,
    exact_p_tower,
    g_cf_series,
    g_limits,
    p_cf_series,
    p_limits,
)
from .words import (
    DegeneratePeriodic,
    GSpec,
    PSpec,
    g_sigma,
    p_prefix,
    p_to_g,
    sigma_inv_word,
)


@dataclass
class RelationSearch:
    """Outcome of a discover-then-reverify relation search."""

    relation: AlgRelation | None
    degx_limit: int
    degz_used: int
    discovery_prec: int
    verify_prec: int
    threshold: int
    residual_bound: int | None
    verified: bool
    oracle: LaurentSeries = dc_field(compare=False, repr=False)  # the round's phi2

    @property
    def found_degree(self) -> int | None:
        return self.relation.degx if self.relation is not None else None

    def report_line(self) -> str:
        if self.relation is None:
            return (
                f"relation none degX<={self.degx_limit} degZ={self.degz_used}"
                f" prec={self.discovery_prec}"
            )
        line = self.relation.summary(self.residual_bound, self.verify_prec)
        return line if self.verified else f"{line} below {self.threshold}"


@dataclass
class CheckReport:
    """Aggregated pass/fail report of one theorem-level driver."""

    name: str
    passed: bool
    bound: int
    lines: list[str] = dc_field(default_factory=list)
    search: RelationSearch | None = None
    sub_reports: list["CheckReport"] = dc_field(default_factory=list)
    agreement: int | None = None  # tower-vs-convergent first-difference bound

    def all_lines(self) -> list[str]:
        out = list(self.lines)
        for sub in self.sub_reports:
            out.extend(f"  {line}" for line in sub.all_lines())
        out.append(f"{self.name} {'pass' if self.passed else 'fail'}")
        return out


def search_relation(
    phi_fn,
    degx: int,
    prec: int,
    max_poly_degree: int,
    leading_val: int,
    degz: int | None = None,
) -> RelationSearch:
    """Find a relation and re-verify it by ``_reverify_round``: first at
    the demand of degZ ``degz`` (default degx * max_poly_degree + 8), to
    ``degz`` or else the largest degZ the order certifies.  Without
    ``degz``, nothing or a precision artifact sends the search on to the
    verifying precision, up to max(4 * prec, 2048)."""
    first = degz if degz is not None else degx * max(1, max_poly_degree) + 8
    p1 = max(prec, required_precision(degx, first, leading_val))
    budget = max(4 * prec, 2048)

    def candidate(phi: LaurentSeries):
        degz_used = degz if degz is not None else max_degz(phi, degx)
        return degz_used, find_relation(phi, degx, degz_used)

    while True:
        search = _reverify_round(phi_fn, p1, degx, candidate)
        if search.verified:
            return search
        if degz is not None or p1 >= budget:
            # nothing found, or a precision artifact: keep its numbers, drop the relation
            return replace(search, relation=None)
        p1 = min(search.verify_prec, budget)


def _reverify_round(phi_fn, p1: int, degx: int, candidate) -> RelationSearch:
    """One round of the re-verify rule at discovery precision p1: the one
    oracle series phi2 = phi_fn(2 p1), cut to p1 (phi_fn is exact below its
    precision), gives ``candidate`` its (degZ, relation or None), and a
    relation counts only if it vanishes on phi2 to 1.5 p1; else it is a
    precision artifact.  The round's search keeps phi2 as its ``oracle``."""
    p2, threshold = 2 * p1, (3 * p1) // 2
    phi2 = phi_fn(p2)
    degz, rel = candidate(LaurentSeries(phi2.val, phi2.mask, p1))
    if rel is None:
        return RelationSearch(None, degx, degz, p1, p2, threshold, None, False, phi2)
    residual = rel.evaluate(phi2)
    bound = residual.known_zero_below()
    verified = residual.is_zero and bound >= threshold
    return RelationSearch(rel, degx, degz, p1, p2, threshold, bound, verified, phi2)


def _exact_round(rel: AlgRelation | None, phi_fn, first_val: int, prec: int, bound: int) -> RelationSearch:
    """The re-verify round of an exactly derived relation at p1, the larger
    of prec and its own shape's ``certifying_precision``; with no relation,
    a round at prec that verifies nothing (degZ -1)."""
    if rel is None:
        return _reverify_round(phi_fn, prec, bound, lambda _: (-1, None))
    p1 = max(prec, certifying_precision(rel.degx, rel.degz, first_val))
    return _reverify_round(phi_fn, p1, bound, lambda _: (rel.degz, rel))


def spec_series(spec: PSpec | GSpec, sp: SpecMap):
    """What ``search_relation`` takes for a spec: its direct-convergent
    series as a function of precision, and the valuation of its first letter."""
    if isinstance(spec, PSpec):
        first = spec.w0[0] if spec.w0 else spec.eps[0]
        return (lambda p: p_cf_series(spec, sp, p)), -sp.degree(first)
    return (lambda p: g_cf_series(spec, sp, p)), -sp.degree(spec.u0[0])


def _series_ok(res: LaurentSeries, min_bound: int) -> tuple[bool, int]:
    bound = res.known_zero_below()
    return (res.is_zero and bound >= min_bound), bound


def _series_lines(lines: list[str], cf: LaurentSeries, direct: LaurentSeries, residuals, prec: int):
    """Append the oracle-agreement and residual-equation lines of a tower
    limit; return (all passed, agreement bound)."""
    agree_ok, agree = _series_ok(cf + direct, prec // 2)
    lines.append(f"oracle-agreement val>={agree} {'pass' if agree_ok else 'fail'}")
    eq_ok = True
    for label, res in residuals:
        ok, v = _series_ok(res, (7 * prec) // 8)
        eq_ok = eq_ok and ok
        lines.append(f"equation {label} residual>={v} {'pass' if ok else 'fail'}")
    return agree_ok and eq_ok, agree


def _verdict(
    name: str, bound: int, lines: list[str], search: RelationSearch, ok: bool = True, agreement: int | None = None,
    tail: str | None = None,
) -> CheckReport:
    """Append a finished relation round's line, after the ``tail-step`` line
    of a failed exact tail check, and judge the whole check: it passes if
    ``ok``, no tail check failed and the round verified a relation of
    degree <= bound."""
    if tail is not None:
        lines.append(f"tail-step {tail} fail")
    lines.append(search.report_line())
    ok = ok and tail is None and search.verified and search.found_degree <= bound
    return CheckReport(name, ok, bound, lines, search, agreement=agreement)


def periodic_relation(word: str, sp: SpecMap) -> AlgRelation:
    """phi = [word, word, ...] is fixed by the Mobius map of ``_word_product(word)``
    = ((a, b), (c, d)), phi = (a phi + b)/(c phi + d): so c phi^2 + (a + d) phi + b = 0."""
    a, b, c, d = _word_product(word, sp)
    return AlgRelation((b, a ^ d, c))


def p_relation(spec: PSpec, sp: SpecMap) -> AlgRelation:
    """phi's relation for a family-P spec, derived exactly over K = GF(2)(z)
    from its letters, with no tower.

    With M(w0) = ((a, b), (c, d)) and r = (b + c)/a, each level W -> W e_j W
    keeps (b + c)/a = r (letter matrices are symmetric of det 1), so
    a' = (e_j + r) a^2 and c'/a' = c/a + 1/a', where e_j + r != 0 (a' is a
    convergent's numerator).  With D_1 = 1, D_(i+1) = D_i^2 (e_i + r) and
    e_n = e_0, H = sum of 1/a over levels 1, n + 1, 2n + 1, ... solves
    X^(2^n)/D_(n+1) + X + 1/((e_0 + r) a^2) = 0, and
    1/phi = c/a + sum_(i=1..n) H^(2^(i-1))/D_i."""
    F = RationalField()
    a, b, c, _ = _word_product(spec.w0, sp)
    r = F.div((b ^ c, 1), (a, 1))
    steps = [F.add((sp.poly(x), 1), r) for x in spec.eps]  # e_j + r
    D = [F.one]
    for t in steps[1:] + steps[:1]:
        D.append(F.mul(F.square(D[-1]), t))
    inv = [F.inv(x) for x in D]
    t0 = F.inv(F.mul(steps[0], F.square((a, 1))))
    return frobenius_relation(F.div((c, 1), (a, 1)), inv[:-1], inv[-1], t0)


def check_theorem_p(spec: PSpec, sp: SpecMap, prec: int) -> CheckReport:
    """Degree bound 2^n for the family-P continued fraction.  No search:
    ``p_relation`` derives phi's relation exactly, and it must vanish on the
    convergent series by the re-verify rule at p1, the larger of prec and
    its own shape's ``certifying_precision``.  The tail step of its tower
    over K is checked by ``tail_mismatch`` (its line appears only when it
    fails)."""
    n = spec.period
    bound = 1 << n
    phi_fn, first_val = spec_series(spec, sp)
    lim = p_limits(spec, sp, prec)
    residuals = [("f", lim.residual_f()), ("H0", lim.residual_h0())]
    residuals += [(f"H{j}", lim.residual_hj(j)) for j in range(1, n)]
    lines: list[str] = []
    search = _exact_round(p_relation(spec, sp), phi_fn, first_val, prec, bound)
    # cf + phi2 has precision min(prec, p2) = prec, as with the series at prec
    ok, agree = _series_lines(lines, lim.cf, search.oracle, residuals, prec)
    tail = tail_mismatch(exact_p_tower(spec, sp), 1)
    return _verdict("theorem-p", bound, lines, search, ok, agree, tail)


def check_theorem_g(spec: GSpec, sp: SpecMap, prec: int) -> CheckReport:
    """Degree bound 2^k for the family-G continued fraction.  No search:
    ``norm_relation`` derives phi's relation exactly from the affine form of
    its tower over K, and it must vanish on the convergent series by the
    re-verify rule, as in ``check_theorem_p``.  Generations 0 and 1 of that
    tower are checked by ``generation_mismatch`` (its line appears only
    when it fails).  An all-zero swap period (u0 repeated) has no tower:
    ``periodic_relation`` is its quadratic."""
    phi_fn, first_val = spec_series(spec, sp)
    try:
        lim = g_limits(spec, sp, prec)
    except DegeneratePeriodic:
        search = _exact_round(periodic_relation(spec.u0, sp), phi_fn, first_val, prec, 2)
        return _verdict("theorem-g", 2, ["degenerate periodic word; direct quadratic check"], search)
    s = lim.norm.s
    k = len(s)
    bound = 1 << k
    lines = [f"normalized ups={lim.norm.spec.ups} s={s} k={k} bound={bound}"]
    residuals = [("f", lim.residual_f()), ("H", lim.residual_h())]
    q = exact_g_quantities(lim.norm, sp)
    search = _exact_round(norm_relation(*q.affine_form()), phi_fn, first_val, prec, bound)
    ok, agree = _series_lines(lines, lim.cf, search.oracle, residuals, prec)
    e1 = lim.quants.stats.delta[0]
    scalar_ok = lim.H1.odd == (e1 & 1)
    lines.append(f"scalar-branch e1={e1} {'pass' if scalar_ok else 'fail'}")
    tail = generation_mismatch(q, 1)
    return _verdict("theorem-g", bound, lines, search, ok and scalar_ok, agree, tail)


def check_corollary_chain(spec: PSpec, sp: SpecMap, iterations: int, prec: int) -> CheckReport:
    """Iterated prefix sums of a binary family-P word stay within 2^n."""
    if not spec.is_binary():
        raise ValueError("corollary chain needs a binary P-spec")
    if iterations < 1:
        raise ValueError(f"corollary chain needs k >= 1, got {iterations}")
    n = spec.period
    bound = 1 << n
    subs: list[CheckReport] = []
    lines = [f"chain length {iterations}, bound {bound} (insertion period {n})"]
    g = p_to_g(spec)
    for step in range(1, iterations + 1):
        rep = check_theorem_g(g, sp, prec)
        rep.name = f"sigma^{step}-chain"
        within = rep.search.verified and rep.search.found_degree <= bound
        rep.lines.append(f"degree within chain bound {bound}: {'pass' if within else 'fail'}")
        rep.passed = rep.passed and within
        subs.append(rep)
        if step < iterations:
            g = g_sigma(g)
    passed = all(r.passed for r in subs)
    return CheckReport("corollary-chain", passed, bound, lines, None, subs)


def explore_inverse_sigma(degx: int, degz: int, prec: int) -> CheckReport:
    """Relation search over the inverse-prefix-sum word, reported without
    judgment: finding nothing is an observation, not a proof."""
    pd = PSpec("", "10")
    sp = SpecMap.binary_default()

    def prefix(length: int) -> str:
        return sigma_inv_word(p_prefix(pd, length + 1))

    phi_fn = lambda p: cf_series_of(prefix, sp, p)  # noqa: E731
    search = search_relation(phi_fn, degx, prec, sp.max_degree, -1, degz=degz)
    lines = [
        f"search degX<={degx} degZ={degz} requested_prec={prec}"
        f" discovery_prec={search.discovery_prec} verify_prec={search.verify_prec}"
    ]
    if search.relation is None:
        if search.residual_bound is not None:
            lines.append(
                f"candidate discarded by re-verification (residual {search.residual_bound})"
            )
        lines.append(
            f"no relation found up to degX {degx}, degZ {degz}, prec {search.discovery_prec}"
        )
        lines.append("observation only: absence of a relation is not asserted")
    else:
        lines.append(f"relation found: {search.relation.render()}")
        lines.append(search.report_line())
    return CheckReport("explore-sigma-inv", True, 0, lines, search)
