"""Randomized and series-mode verification of the tower identities.

Generic matrix identities are tested on uniform draws over GF(2^m):
every identity here is polynomial in the matrix entries (and inverses
of quantities that vanish only on a proper closed subset), so a single
failing draw is a definitive counterexample, and the false-pass chance
of T clean trials is bounded by (D/2^m)^T for identities of total
degree D.  Draws that hit the degenerate locus are resampled with a
capped budget and counted.  Every checker owns a mutated variant (one
perturbed exponent or term) that must fail, as a negative control.
The checkers run the towers of ``towers`` (``PTower``, ``pair_step``,
``GQuantities``) and their tail recurrences (the P drift and limit
expansion, the G one-letter step, generation walk and limit terms) over
GF(2^m), so they test the code the theorem drivers run over series.  The
tail checks ``tail_mismatch`` and ``generation_mismatch`` take a tower
over any field: the battery runs them on draws, and the theorem drivers
run them exactly over K = GF(2)(z).  The G closed form is checked by its
induction on the driver word, at any depth.

Valuation facts are measured in series mode on concrete fixtures, with
exact expected determinant valuations from degree bookkeeping.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field as dc_field
from itertools import islice

from .gf2m import Gf2m, field as ext_field
from .mat2 import Mat2
from .towers import (
    ClaimFailed,
    CoScaled,
    DegenerateDraw,
    GQuantities,
    PTower,
    SpecMap,
    g_limits,
    gap_violation,
    p_tower,
    pair_step,
    predicted_det_val,
)
from .words import GSpec, PSpec, word_stats

RESAMPLE_CAP = 100


@dataclass
class IdentityReport:
    """Outcome of one identity checker: reproducible given (seed, field)."""

    ident: str
    trials: int
    field_desc: str
    seed: int
    failures: list = dc_field(default_factory=list)
    resamples: int = 0
    measurements: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"{self.ident} {status} trials={self.trials}"
            f" field={self.field_desc} seed={self.seed:#x}"
        )


def _rand_mat(F: Gf2m, rng: random.Random) -> Mat2:
    return Mat2(F, F.sample(rng), F.sample(rng), F.sample(rng), F.sample(rng))


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")


def _randomized(ident: str, trials: int, m: int, seed: int, body) -> IdentityReport:
    """Run body(F, rng) once per trial over GF(2^m), resampling degenerate draws.

    The body returns None on a pass or a failure detail; raising
    DegenerateDraw or ZeroDivisionError redraws, up to RESAMPLE_CAP times,
    and ``resamples`` counts the redraws.
    """
    _require_trials(trials)
    F = ext_field(m)
    rng = random.Random(seed)
    failures, resamples = [], 0
    for trial in range(trials):
        for _ in range(RESAMPLE_CAP):
            try:
                detail = body(F, rng)
                break
            except (DegenerateDraw, ZeroDivisionError):
                resamples += 1
        else:
            detail = "resample budget exhausted"
        if detail is not None:
            failures.append((trial, detail))
    return IdentityReport(ident, trials, F.name, seed, failures, resamples)


# ---------------------------------------------------------------------------
# family-P tower identities over GF(2^m)
# ---------------------------------------------------------------------------


def check_tower_expansion(
    n_steps: int = 5, trials: int = 100, m: int = 16, seed: int = 1, mutate: bool = False
) -> IdentityReport:
    """m_n of ``PTower.matrices()`` equals L_n times the insertion expansion
    weighted by the scalar walk, which tests its step l_j = L_j s_j.

    Uses fully random m0 and insertion scalars: the identity needs
    neither the word structure nor periodicity.
    """

    def body(F, rng):
        m0 = _rand_mat(F, rng)
        t = PTower(F, m0, [F.sample_invertible(rng) for _ in range(n_steps)])
        for n, m_n in enumerate(islice(t.matrices(), n_steps), start=1):
            t.advance()
            weights = [F.mul(t.ds[j], F.inv(t.Ls[j])) if mutate else t.term(j) for j in range(n)]
            if not m_n.eq(t.expansion(weights).scale(t.Ls[n])):
                return f"step {n}"
        return None

    return _randomized("tower-expansion", trials, m, seed, body)


def check_period_power_shift(
    n: int = 2,
    j_max: int = 3,
    trials: int = 100,
    m: int = 16,
    seed: int = 1,
    mutate: bool = False,
) -> IdentityReport:
    """Step scalars over a periodic insertion word shift by 2^j powers.

    With period n: l_{n+j} = L_n^(2^j) l_j and L_{n+j} = L_n^(2^j) L_j, for
    any periodic s.  The mutated control breaks periodicity, which they need.
    """

    def body(F, rng):
        m0 = _rand_mat(F, rng)
        eps = [F.sample_invertible(rng) for _ in range(n)]
        steps = n + j_max
        if mutate:
            eps = [F.sample_invertible(rng) for _ in range(steps)]
            if all(eps[i] == eps[i % n] for i in range(steps)):
                raise DegenerateDraw  # accidentally periodic; redraw
        t = PTower(F, m0, eps)
        for _ in range(steps):
            t.advance()
        for j in range(j_max + 1):
            p = F.pow(t.Ls[n], 1 << j)
            if not F.eq(t.l(n + j), F.mul(p, t.l(j))):
                return f"l shift j={j}"
            if not F.eq(t.Ls[n + j], F.mul(p, t.Ls[j])):
                return f"L shift j={j}"
        return None

    return _randomized("period-power-shift", trials, m, seed, body)


def tail_mismatch(t: PTower, k_max: int, mutate: bool = False) -> str | None:
    """The first tail equation that a fresh tower t, over any field, breaks
    in its first k_max periods, or None; t is advanced k_max n + 1 steps.

    Tail terms T_k = d_{kn}/L_{kn+1} shift by k-independent factors, for any
    periodic s: term(kn + j) = T_k^(2^j) residue_factor(j) for j = 1 .. n,
    and j = n is the tail shift T_{k+1} = rho T_k^(2^n) with rho =
    lam L_1^(2^n-1)/L_n^2, lam the tower's determinant drift over one period.
    The mutated control swaps in the collapsed-product form lam/L_1 for rho,
    which only holds when the running products are trivial.
    """
    F, n = t.F, t.period
    for _ in range(k_max * n + 1):
        t.advance()
    factors = [t.residue_factor(j) for j in range(1, n + 1)]
    if mutate:
        factors[-1] = F.mul(t.det_ratio(n), F.inv(t.Ls[1]))
    for k in range(k_max):
        t_k = t.term(k * n)
        for j, factor in enumerate(factors, 1):
            if not F.eq(t.term(k * n + j), F.mul(F.pow(t_k, 1 << j), factor)):
                return f"tail shift k={k}" if j == n else f"residue term j={j} k={k}"
    return None


def check_tail_equations(
    n: int = 2,
    k_max: int = 3,
    trials: int = 100,
    m: int = 16,
    seed: int = 1,
    mutate: bool = False,
) -> IdentityReport:
    """``tail_mismatch`` on drawn towers of period n over GF(2^m)."""

    def body(F, rng):
        m0 = _rand_mat(F, rng)
        return tail_mismatch(PTower(F, m0, [F.sample_invertible(rng) for _ in range(n)]), k_max, mutate)

    return _randomized("tail-equations", trials, m, seed, body)


# ---------------------------------------------------------------------------
# family-G pair identities over GF(2^m)
# ---------------------------------------------------------------------------

PAIR_IDENTITY_NAMES = (
    "det-eq", "trace-eq", "cross-sq-scalar", "anti-commute-m", "anti-commute-w",
    "twist-m", "twist-w", "quadratic-m", "quadratic-w", "product-wm", "product-mw",
    "trace-cross-zero",
)


def check_pair_products(
    trials: int = 100, m: int = 16, seed: int = 1, mutate_id: str | None = None
) -> IdentityReport:
    """The eleven product identities of a cross pair, plus tr(cross) = 0.

    m1 = w0 m0 and w1 = m0 w0 share determinant d and trace r; the cross
    matrix m1 + w1 + r squares to a scalar and twists m1 into w1.
    ``mutate_id`` names the identity whose mutated control runs.
    """
    if mutate_id is not None and mutate_id not in PAIR_IDENTITY_NAMES:
        raise ValueError(f"unknown pair identity {mutate_id!r}")

    def body(F, rng):
        m0 = _rand_mat(F, rng)
        w0 = _rand_mat(F, rng)
        m1, w1 = w0.mul(m0), m0.mul(w0)
        d = m1.det()
        r = m1.trace()
        cross = m1.add(w1).add_scalar(r)
        cross_sq = cross.mul(cross)
        m11 = w1.mul(m1)
        anti_rhs = cross_sq.add(cross.scale(r))  # cross*(cross + r)
        checks = {
            "det-eq": F.eq(d, w1.det()),
            "trace-eq": F.eq(r, w1.trace()),
            "cross-sq-scalar": cross_sq.is_scalar() and F.eq(cross_sq.a, m11.trace()),
            "anti-commute-m": cross.mul(m1).add(m1.mul(cross)).eq(anti_rhs),
            "anti-commute-w": cross.mul(w1).add(w1.mul(cross)).eq(anti_rhs),
            "twist-m": cross.mul(m1).eq(w1.mul(cross)),
            "twist-w": cross.mul(w1).eq(m1.mul(cross)),
            "quadratic-m": m1.mul(m1).eq(m1.scale(r).add_scalar(d)),
            "quadratic-w": w1.mul(w1).eq(w1.scale(r).add_scalar(d)),
            "product-wm": w1.mul(m1).eq(w1.mul(cross).add_scalar(d)),
            "product-mw": m1.mul(w1).eq(m1.mul(cross).add_scalar(d)),
            "trace-cross-zero": F.is_zero(cross.trace()),
        }
        for name, ok in checks.items():
            if mutate_id == name:
                # perturb by the (generically nonzero) determinant
                ok = ok and F.is_zero(d)
            if not ok:
                return name
        return None

    return _randomized("pair-products", trials, m, seed, body)


def _invariant(q: GQuantities, even, odd):
    # d + r even + even^2 + gamma (odd + odd^2): c^2 at a node with correction sum even + odd cross
    F = q.F
    return F.add(F.add(q.d, F.mul(even, F.add(q.r, even))), F.mul(q.gamma, F.add(odd, F.square(odd))))


def _closed_step(q: GQuantities, pair, node, bit: str):
    """One letter of the closed form's induction from a node (c, l, (even,
    odd)) with pair ``pair``: (failure detail or None, next pair, next node)."""
    F = q.F
    c, l, (even, odd) = node
    c, l = q.step(c, l, l.odd ^ (bit == "1"))  # l's cross parity is the digit parity
    sums = (even, F.add(odd, c.u)) if c.odd else (F.add(even, c.u), odd)
    pair = pair_step(*pair, bit)
    closed = q.closed_pair(l.odd, *sums, l)
    detail = next((f"{n} branch" for n, x, e in zip("mw", pair, closed) if (x.a, x.b, x.c, x.d) != e), None)
    if detail is None and not F.eq(q._square(c), _invariant(q, *sums)):
        detail = "invariant"
    return detail, pair, (c, l, sums)


def check_closed_form(
    s: str | Iterable[str], trials: int = 100, m: int = 16, seed: int = 1, mutate: bool = False
) -> IdentityReport:
    """Recurrence pair equals the closed-form product after a driver word,
    by the induction on the word that proves it.

    A node after a word holds its last correction term c and period scalar
    l (both of the word's digit parity t as cross parity) and correction
    sum even + odd cross.  At every node c^2 is ``_invariant``, and from any
    node where it is, one ``pair_step`` of the closed form is the closed
    form one ``GQuantities.step`` on, where it is again.  Each draw checks
    that step for both bits at a drawn point of the invariant (t, even,
    odd, l drawn; c its square root, over gamma when t = 1), then walks one
    word of ``s`` (drawn per trial when ``s`` lists several) from (m1, w1)
    through the same step, with l_0 = 1 (d in the mutated control).
    """
    words = [s] if isinstance(s, str) else list(s)
    if not words:
        raise ValueError("closed form needs at least one driver word")
    for w in words:
        if not w or w.strip("01"):
            raise ValueError(f"driver word must be a nonempty binary word, got {w!r}")

    def body(F, rng):
        m0, w0 = _rand_mat(F, rng), _rand_mat(F, rng)
        q = GQuantities(F, w0.mul(m0), m0.mul(w0))
        t, even, odd = rng.getrandbits(1), F.sample(rng), F.sample(rng)
        c2 = _invariant(q, even, odd)
        l = CoScaled(F.sample_invertible(rng), t)
        node = (CoScaled(F.pow(F.mul(c2, q.inv_gamma) if t else c2, 1 << (m - 1)), t), l, (even, odd))
        pair = [Mat2(F, *e) for e in q.closed_pair(t, even, odd, l)]
        for bit in "01":
            detail = _closed_step(q, pair, node, bit)[0]
            if detail is not None:
                return f"step {bit}: {detail}"
        word = rng.choice(words)
        pair, node = (q.m1, q.w1), (None, CoScaled(q.d if mutate else F.one, 0), (F.zero, F.zero))
        for i, bit in enumerate(word, 1):
            detail, pair, node = _closed_step(q, pair, node, bit)
            if detail is not None:
                return f"{word[:i]}: {detail}"
        return None

    return _randomized(f"closed-form[{s}]" if isinstance(s, str) else "closed-form", trials, m, seed, body)


def generation_mismatch(q: GQuantities, generations: int, mutate: bool = False) -> str | None:
    """The first relation among generations 0 .. ``generations`` of q's
    tower, over any field, that fails, or None.

    Requires q's driver word to have an even digit sum and end in 1.  Walks
    the pair recurrence along s once per generation into one GQuantities
    per generation and checks against them the primed closed forms (d, r,
    cross, l, c_j), the base generation's walk (L_g and t_g = c_1/L of
    generation g) and the H_j that ``limit_terms`` walks from t_g (c_j/L
    of generation g); then the product of the repeated driver word, the
    m1 of a later generation, against the limit sum of the walk's
    partial H_1.  The mutated control offsets the primed cross by d.
    """
    F, s = q.F, q.s
    # s ends with the cross bit: walking it gives the next generation's m1, w1
    m, w, chain = q.m1, q.w1, [q]
    for _ in range(generations):
        for bit in s:
            m, w = pair_step(m, w, bit)
        chain.append(GQuantities(F, m, w, s))
    walk = list(islice(q.generations(), generations + 1))
    Ls = [L for L, _ in walk]

    def rebase(x, g):
        # generation-g cross is L_g times the base cross, so an odd
        # CoScaled value carries an extra L_g in base coordinates
        return CoScaled(F.mul(x.u, Ls[g]) if x.odd else x.u, x.odd)

    def cs_neq(x, y):
        return x.odd != y.odd or not F.eq(x.u, y.u)

    for g, (qg, qn) in enumerate(zip(chain, chain[1:])):
        if not F.eq(Ls[g + 1], F.mul(Ls[g], qg.l_scalar)):
            return f"L chain at {g}"
        want = qg.primed_check_values()
        if mutate:
            want["cross"] = want["cross"].add_scalar(qg.d)
        for key, got in (("d", qn.d), ("r", qn.r), ("cross", qn.cross), ("l", qn.l_scalar)):
            if not (got.eq(want[key]) if key == "cross" else F.eq(got, want[key])):
                return f"gen {g}: {key}'"
        for j, (c, cw) in enumerate(zip(qn.c, want["c"]), start=1):
            if cs_neq(rebase(c, g + 1), rebase(cw, g)):
                return f"gen {g}: c_{j}'"
    # c_j/L of generation g is the H_j that limit_terms walks from t_g; an
    # odd c_j carries L_g in its cross, so only an even one is compared
    # with L_g H_j
    for g, L in enumerate(Ls):
        for j, (c, h) in enumerate(zip(chain[g].c, q.limit_terms(walk[g][1])), start=1):
            if c.odd != h.odd or not F.eq(c.u, h.u if c.odd else F.mul(h.u, L)):
                return f"c_{j}/L gen {g}"
    # the repeated driver word s^i expands to L_i times the limit sum of
    # the partial H_1 = t_0 + ... + t_(i-1); its product is chain[i].m1
    H1 = walk[0][1]
    for i in range(1, generations + 1):
        if not chain[i].m1.eq(q.limit_sum(q.limit_terms(H1)).scale(Ls[i])):
            return f"expansion i={i}"
        H1 = q.cs_add(H1, walk[i][1])
    return None


def check_generation_relations(
    s: str,
    generations: int = 3,
    trials: int = 100,
    m: int = 16,
    seed: int = 1,
    mutate: bool = False,
) -> IdentityReport:
    """``generation_mismatch`` over generations 0 .. generations + 1 of
    drawn pairs over GF(2^m) with a driver word s that ends in 1 and has
    an even digit sum."""
    if word_stats(s).t != 0 or not s.endswith("1"):
        raise ValueError("driver word must end with 1 and have even digit sum")

    def body(F, rng):
        m0, w0 = _rand_mat(F, rng), _rand_mat(F, rng)
        return generation_mismatch(GQuantities(F, w0.mul(m0), m0.mul(w0), s), generations + 1, mutate)

    return _randomized(f"generation-relations[{s}]", trials, m, seed, body)


# ---------------------------------------------------------------------------
# series-mode valuation facts
# ---------------------------------------------------------------------------


def check_valuation_bounds(
    pspec: PSpec | None = None,
    gspec: GSpec | None = None,
    sp: SpecMap | None = None,
    depth: int = 6,
    prec: int = 512,
    mutate: bool = False,
    label: str = "",
) -> IdentityReport:
    """Measured valuations along both towers against provable bounds.

    Determinant valuations are checked against the exact degree
    bookkeeping (val d_{j+1} = 2 val d_j + 2 deg e_j); running-product
    gaps against 2^(kn) and 2^(ik) by ``gap_violation``, the G gaps inside
    ``g_limits``, whose ClaimFailed becomes a G failure.  The mutated
    control claims one more than the exact determinant valuation and must
    fail.
    """
    sp = sp or SpecMap.binary_default()
    failures = []
    measurements = []
    if pspec is not None:
        t = p_tower(pspec, sp, prec)
        n = t.period
        for j, mm in enumerate(islice(t.matrices(), depth), start=1):
            t.advance()
            if not (mm.a.valuation == 0 and mm.b.valuation > 0 and mm.c.valuation > 0 and mm.d.valuation > 0):
                failures.append(("P", f"entry valuations at step {j}"))
            if t.l(j - 1).valuation != 0 or t.Ls[-1].valuation != 0:
                failures.append(("P", f"step scalar valuation at {j}"))
            dv = t.ds[j].known_zero_below()
            expect = predicted_det_val(pspec, sp, j)
            claim = expect + 1 if mutate else expect
            measurements.append(
                f"P step {j}: val(d)={dv} expected={expect} quadratic-exponent 2^(2j)={1 << (2 * j)}"
            )
            if not t.ds[j].is_zero and dv < claim:
                failures.append(("P", f"det valuation at step {j}: {dv} < {claim}"))
            if j % n == 0 and j >= 2 * n:
                gap = t.Ls[j] + t.Ls[j - n]
                measurements.append(f"P gap {j - n}->{j}: val={gap.known_zero_below()} bound={1 << (j - n)}")
                if gap_violation(gap, j - n):
                    failures.append(("P", f"running-product gap at {j}"))
    if gspec is not None:
        try:
            lim = g_limits(gspec, sp, prec)
        except ClaimFailed as exc:
            failures.append(("G", str(exc)))
        else:
            q = lim.quants
            facts = [
                ("val(m1[0,0])=0", q.m1.a.valuation == 0),
                ("val(m1[0,1])>0", q.m1.b.valuation > 0),
                ("val(m1[1,0])>0", q.m1.c.valuation > 0),
                ("val(m1[1,1])>0", q.m1.d.valuation > 0),
                ("val(cross diag)=0", q.cross.a.valuation == 0 and q.cross.d.valuation == 0),
                ("val(cross off)>0", q.cross.b.valuation > 0 and q.cross.c.valuation > 0),
                ("val(r)=0", q.r.valuation == 0),
                ("val(cross^2)=0", q.gamma.valuation == 0),
                ("val(d)>0", q.d.valuation > 0),
                ("val(l)=0", q.l_scalar.valuation == 0),
            ]
            inv_cross = q.cross.scale(q.inv_gamma)
            facts.append(
                ("val(1/cross diag)=0, off>0",
                 inv_cross.a.valuation == 0 and inv_cross.d.valuation == 0
                 and inv_cross.b.valuation > 0 and inv_cross.c.valuation > 0)
            )
            for name, ok in facts:
                if not ok:
                    failures.append(("G", name))
            for i, gap in lim.diff_vals:
                measurements.append(f"G gap {i}->{i + 1}: val={gap} bound={1 << (i * q.k)}")
    ident = f"valuation-bounds[{label}]" if label else "valuation-bounds"
    return IdentityReport(ident, 1, f"series(prec={prec})", 0, failures, measurements=measurements)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

TOWER_WORDS = ("11", "101", "1001", "0011")


def all_driver_words(max_len: int = 8):
    """Every nonempty binary word up to the given length."""
    for length in range(1, max_len + 1):
        for bits in range(1 << length):
            yield format(bits, f"0{length}b")


def identity_battery(
    trials: int = 100, m: int = 16, seed: int = 1, max_word_len: int = 8,
    generations: int = 3, prec: int = 512,
) -> list[tuple[str, Callable[[], IdentityReport]]]:
    """The identity battery with acceptance-grade fixtures, in suite order:
    (check name, run) pairs, where run() returns one report of that check."""
    return [
        ("tower-expansion", lambda: check_tower_expansion(5, trials, m, seed)),
        ("period-power-shift", lambda: check_period_power_shift(2, 3, trials, m, seed)),
        ("period-power-shift", lambda: check_period_power_shift(3, 3, trials, m, seed + 1)),
        ("tail-equations", lambda: check_tail_equations(2, 3, trials, m, seed)),
        ("tail-equations", lambda: check_tail_equations(3, 2, trials, m, seed + 1)),
        ("pair-products", lambda: check_pair_products(trials, m, seed)),
        ("closed-form", lambda: check_closed_form(all_driver_words(max_word_len), trials, m, seed)),
        *(
            ("generation-relations", lambda s=s: check_generation_relations(s, generations, trials, m, seed))
            for s in TOWER_WORDS
        ),
        # one weightless seed (collapsed running products) and one with weight
        ("valuation-bounds", lambda: check_valuation_bounds(
            pspec=PSpec("", "10"), gspec=GSpec("0", "1", "11"), prec=prec, label="weightless")),
        ("valuation-bounds", lambda: check_valuation_bounds(
            pspec=PSpec("10", "10"), gspec=GSpec("01", "10", "11"), prec=prec, label="weighted")),
    ]


def run_identity_suite(
    trials: int = 100, m: int = 16, seed: int = 1, max_word_len: int = 8,
    generations: int = 3, prec: int = 512,
) -> list[IdentityReport]:
    """The full identity battery with acceptance-grade fixtures."""
    # refuse a battery over nothing before any check runs
    _require_trials(trials)
    if max_word_len < 1:
        raise ValueError("closed form needs at least one driver word")
    return [run() for _, run in identity_battery(trials, m, seed, max_word_len, generations, prec)]
