"""Letter matrices, convergents, and the two matrix product towers.

Under a specialization (letters to nonconstant GF(2)[z] polynomials), a
word w gives the descending product M(w) = F(w_last) ... F(w_first) of
letter matrices F(x) = ((1, 1/x), (1/x, 0)), and the continued fraction
[w_0, w_1, ...] is the limit of entry(0,0)/entry(0,1) of M over growing
prefixes.  Convergents themselves are computed exactly through the
classical numerator/denominator recurrence, in blocks joined by a product
tree (the descending product differs from it only by an invertible
scalar, so the ratios agree).  Family P's oracle reads its convergent
from the word's levels W_(j+1) = W_j e_j W_j instead, five products a level.

The family-P tower doubles M through m -> m F(e) m and keeps only the
scalars d and the running product L, whose step scalar l is read off m0;
``PTower.matrices()`` is the reference walk of the matrices.  The
family-G tower walks the pair recurrence (square / cross-multiply)
driven by swap bits and expresses everything through the scalar
bookkeeping of d, r = trace, the cross matrix, and correction terms.
Both towers run over any coefficient field: series here, GF(2^m) draws
in the identity battery.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
from itertools import count

from .gf2poly import bit_reverse, clmul, clpow, parse_poly, poly_str
from .laurent import LaurentSeries
from .mat2 import Mat2, RationalField, SeriesField
from .words import GSpec, NormalizedG, PSpec, g_normalize, g_prefix, p_prefix, word_stats


class DegenerateDraw(ValueError):
    """A quantity that must be invertible vanished (resample or respecialize)."""


class HypothesisViolation(ValueError):
    """Input outside the hypotheses of the tower construction."""


class ClaimFailed(ArithmeticError):
    """A bound the tower construction rests on was measured false."""


# ---------------------------------------------------------------------------
# specialization maps
# ---------------------------------------------------------------------------


class SpecMap:
    """Assignment of a nonconstant GF(2)[z] polynomial, a bit-packed int,
    to each letter."""

    def __init__(self, assignments: dict[str, int]):
        for letter, poly in assignments.items():
            if len(letter) != 1:
                raise ValueError(f"letters are single characters, got {letter!r}")
            if poly < 0:
                raise ValueError("polynomial bits must be nonnegative")
            if poly.bit_length() < 2:
                raise ValueError(f"constant specialization for letter {letter!r}")
        self._map = dict(assignments)

    @classmethod
    def parse(cls, text: str) -> SpecMap:
        """Parse the comma-separated `letter=polyexpr` form, e.g. "a=z,b=z+1"."""
        out: dict[str, int] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad assignment {item!r}")
            letter, expr = item.split("=", 1)
            letter = letter.strip()
            if letter in out:
                raise ValueError(f"duplicate letter {letter!r}")
            out[letter] = parse_poly(expr)
        if not out:
            raise ValueError("empty specialization map")
        return cls(out)

    @classmethod
    def binary_default(cls) -> SpecMap:
        """The default 0 -> z, 1 -> z+1 map for binary alphabets."""
        return cls({"0": 0b10, "1": 0b11})

    def poly(self, letter: str) -> int:
        try:
            return self._map[letter]
        except KeyError:
            raise ValueError(f"unmapped letter {letter!r}") from None

    def degree(self, letter: str) -> int:
        return self.poly(letter).bit_length() - 1

    def check_covers(self, alphabet) -> None:
        """Raise ValueError naming every letter of ``alphabet`` left unmapped."""
        missing = sorted(set(alphabet) - set(self._map))
        if missing:
            raise ValueError(f"unmapped letters {missing}")

    @property
    def min_degree(self) -> int:
        return min(p.bit_length() for p in self._map.values()) - 1

    def __str__(self) -> str:
        return ",".join(f"{k}={poly_str(v)}" for k, v in sorted(self._map.items()))


# ---------------------------------------------------------------------------
# exact convergents
# ---------------------------------------------------------------------------


# letters per block of the small-int recurrence in _word_product (family P's
# oracle walks the word's levels instead)
CF_BLOCK = 1024


def _block_product(word: str, taps: dict[str, list[int]], sp: SpecMap) -> tuple[int, int, int, int]:
    """Entries (a, b, c, d) of the product of ((u, 1), (1, 0)) over the
    letters u of a short word, as bit-packed ints: a letter is one or a few
    terms, so each step is a shifted XOR per set bit of u.  Each column,
    (a, c) and (b, d), is one int with its lower entry W bits up, W one more
    than the word's degree sum, so no entry reaches the next and one shift
    moves both."""
    W = 1
    for letter in dict.fromkeys(word):
        if letter not in taps:
            u = sp.poly(letter)
            taps[letter] = [i for i in range(u.bit_length()) if u >> i & 1]
        W += taps[letter][-1] * word.count(letter)
    ac, bd = 1, 1 << W
    for letter in word:
        nxt = bd
        for i in taps[letter]:
            nxt ^= ac << i
        ac, bd = nxt, ac
    low = (1 << W) - 1
    return ac & low, bd & low, ac >> W, bd >> W


def _mat_mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (
        clmul(xa, ya) ^ clmul(xb, yc), clmul(xa, yb) ^ clmul(xb, yd),
        clmul(xc, ya) ^ clmul(xd, yc), clmul(xc, yb) ^ clmul(xd, yd),
    )


def _word_product(word: str, sp: SpecMap) -> tuple[int, int, int, int]:
    """Entries (a, b, c, d) of the product of ((u, 1), (1, 0)) over the
    letters u of a word (the identity if empty), as bit-packed ints.
    Blocks of CF_BLOCK letters run the small-int recurrence, and a pairwise
    tree joins the blocks, so the long products are balanced."""
    taps: dict[str, list[int]] = {}  # letter -> exponents of its polynomial
    mats = [_block_product(word[i:i + CF_BLOCK], taps, sp) for i in range(0, len(word), CF_BLOCK)]
    while len(mats) > 1:
        mats = [_mat_mul(*mats[i:i + 2]) if i + 1 < len(mats) else mats[i] for i in range(0, len(mats), 2)]
    return mats[0] if mats else (1, 0, 0, 1)


def convergent_pair(word: str, sp: SpecMap) -> tuple[int, int]:
    """Exact (numerator, denominator) of the convergent [word] as bit-packed
    ints: the first column of ``_word_product``."""
    if not word:
        raise ValueError("empty word has no convergent")
    a, _, c, _ = _word_product(word, sp)
    return a, c


def convergent_series(word: str, sp: SpecMap, prec: int) -> LaurentSeries:
    """Expansion of the exact convergent value to absolute precision prec."""
    p, q = convergent_pair(word, sp)
    return LaurentSeries.from_rational(p, q, prec)


# denominator degrees past prec that cf_series asks of two convergents
CF_MARGIN = 8


def _cf_stop(word: str, sp: SpecMap, prec: int) -> int:
    """Length of the shortest prefix whose convergent denominator and the
    next one have degrees summing to ``prec`` plus CF_MARGIN.  deg q_i is
    the sum of the degrees of letters 1 .. i, so no letter past the stop
    index is read.  Raises ValueError naming the shortfall when the word is
    too short."""
    degree: dict[str, int] = {}
    prev = deg = 0  # deg q_(i-1) and deg q_i
    for i in range(1, len(word)):
        letter = word[i]
        if letter not in degree:
            degree[letter] = sp.degree(letter)
        prev, deg = deg, deg + degree[letter]
        if prev + deg >= prec + CF_MARGIN:
            return i
    if not word:
        raise ValueError("empty word has no convergent")
    raise ValueError(
        f"prefix of length {len(word)} too short for precision {prec}"
        f" (denominator degree reached {deg})"
    )


def cf_series(word: str, sp: SpecMap, prec: int) -> LaurentSeries:
    """Series of the continued fraction of the infinite word starting as given.

    Expands the convergent of the prefix ``_cf_stop`` picks, which
    guarantees the expansion below ``prec``.
    """
    return convergent_series(word[:_cf_stop(word, sp, prec)], sp, prec)


def _oracle_length(sp: SpecMap, prec: int) -> int:
    """A prefix length whose stop index is always inside it: every letter
    adds at least ``sp.min_degree`` to the convergent denominator's degree,
    so it reaches ``prec + CF_MARGIN`` for any CF_MARGIN up to ``prec + 29``."""
    return max(32, prec // max(1, sp.min_degree) + 16)


def cf_series_of(prefix_fn, sp: SpecMap, prec: int) -> LaurentSeries:
    """cf_series over the prefix ``prefix_fn(length)`` of an infinite word."""
    return cf_series(prefix_fn(_oracle_length(sp, prec)), sp, prec)


def word_matrix(word: str, sp: SpecMap, F) -> Mat2:
    """Descending product of letter matrices over a word (identity if empty)
    over ``SeriesField`` or ``RationalField``.  F(x) is ((x, 1), (1, 0))/x
    and every factor is symmetric, so the product is the transposed
    ``_word_product`` divided once by the product P of the word's letters:
    four reduced fractions over K, and over series one inverse of P and one
    exact product per entry."""
    a, b, c, d = _word_product(word, sp)
    entries = a, c, b, d
    P = reduce(clmul, (clpow(sp.poly(letter), word.count(letter)) for letter in set(word)), 1)
    if isinstance(F, RationalField):
        return Mat2(F, *(F.mul((e, 1), (1, P)) for e in entries))
    inv = LaurentSeries.from_rational(1, P, F.prec + P.bit_length() - 1)
    return Mat2(F, *(LaurentSeries(q.val, q.mask, F.prec) for q in (inv.mul_poly(e) for e in entries)))


def cf_ratio(m: Mat2) -> LaurentSeries:
    """The convergent value carried by a product matrix: entry00/entry01."""
    return m.a * m.b.inv()


def gap_violation(gap: LaurentSeries, e: int) -> str | None:
    """Why a running-product gap breaks the bound val(gap) >= 2^e, or None.

    A gap that is zero to its precision does not break it: its valuation
    is unknown at that precision, not below the bound.
    """
    if gap.is_zero or gap.val >= 1 << e:
        return None
    return f"running-product gap val {gap.val} below bound 2^{e}"


# ---------------------------------------------------------------------------
# family-P tower
# ---------------------------------------------------------------------------


class PTower:
    """Doubling tower m -> m F(e) m over any coefficient field, as scalars.

    Starts from m0 and repeats one period of insertion letters
    e_0 .. e_(n-1).  Each step records the running product
    L_(j+1) = L_j l_j = L_j^2 s_(j mod n) (L_0 = 1), with the step scalar
    ``l(j)`` = L_j s_(j mod n) and s_i = (b_0 + c_0)/e_i + a_0 read off m0,
    and the determinant d_(j+1) = d_j^2 / e_j^2.  ``residue_factor(j)``
    weights the tail terms of residue j; at j = n it is the tail shift rho,
    which has no other formula.  ``matrices()`` is the reference walk of
    the matrices themselves.  Every step divides by its letter; only
    ``matrices()`` inverts one.
    """

    def __init__(self, F, m0: Mat2, eps: list):
        self.F = F
        self.eps = eps
        self.m0 = m0
        bc = F.add(m0.b, m0.c)
        self.s = [F.add(F.div(bc, e), m0.a) for e in eps]
        # L_j is a product of earlier s's, so l_j vanishes exactly when s_j does
        if any(F.is_zero(s) for s in self.s):
            raise DegenerateDraw("zero step scalar")
        self.ds = [m0.det()]  # d_j
        self.Ls = [F.one]  # running products, L_0 = 1
        self.step = 0

    @property
    def period(self) -> int:
        return len(self.eps)

    def l(self, j: int):
        """The step scalar l_j = (b_j + c_j)/e_j + a_j of m_j.  Every insertion
        matrix ((0, 1/e), (1/e, 1)) has a = 0 and b = c, so m_j keeps
        a_j = L_j a_0 and b_j + c_j = L_j (b_0 + c_0); hence l_j = L_j s_(j mod n)."""
        return self.F.mul(self.Ls[j], self.s[j % self.period])

    def advance(self) -> None:
        """One doubling step of the scalars L and d."""
        F = self.F
        j = self.step
        # L_(j+1) = L_j l_j = L_j^2 s_j: one square and one product
        self.Ls.append(F.mul(F.square(self.Ls[j]), self.s[j % self.period]))
        # det is multiplicative and det F(e) = 1/e^2, so d_(j+1) = (d_j / e_j)^2
        self.ds.append(F.square(F.div(self.ds[j], self.eps[j % self.period])))
        self.step += 1

    def matrices(self):
        """Yield m_1, m_2, ... by m_(j+1) = m_j F(e_j) m_j from m0."""
        F, m = self.F, self.m0
        letters = [Mat2(F, F.one, ix, ix, F.zero) for ix in map(F.inv, self.eps)]
        for j in count():
            m = m.mul(letters[j % self.period]).mul(m)
            yield m

    def term(self, i: int):
        """d_i / L_(i+1), the weight of the insertion matrix ((0, 1/e_i), (1/e_i, 1))
        in the expansion m_j = L_j (m_0 + sum over i < j of term(i) times it)."""
        return self.F.div(self.ds[i], self.Ls[i + 1])

    def expansion(self, weights) -> Mat2:
        """m_0 + sum over j of weights[j] ((0, 1/e_j), (1/e_j, 1)): each weight w
        adds w/e_j to b and c and w to d, and a stays a_0."""
        F, m0 = self.F, self.m0
        b, c, d = m0.b, m0.c, m0.d
        for j, w in enumerate(weights):
            x = F.div(w, self.eps[j % self.period])
            b, c, d = F.add(b, x), F.add(c, x), F.add(d, w)
        return Mat2(F, m0.a, b, c, d)

    def det_ratio(self, j: int):
        """d_j / d_0^(2^j), the determinant's own step d_(i+1) = (d_i / e_i)^2
        walked from one.  At j = n it is the determinant drift lam of one period."""
        F = self.F
        ratio = F.one
        for i in range(j):
            ratio = F.square(F.div(ratio, self.eps[i % self.period]))
        return ratio

    def residue_factor(self, j: int):
        """det_ratio(j) L_1^(2^j) / L_(j+1): term(kn + j) is T_k^(2^j) times this
        factor, with T_k = term(kn).  L_(j+1) is taken as ``advance`` takes it,
        so no step past j is needed.  At j = n it is the tail shift
        rho = lam L_1^(2^n - 1) / L_n^2 (L_(n+1) = L_n^2 L_1), with lam =
        det_ratio(n) the drift of one period: T_(k+1) = rho T_k^(2^n)."""
        F = self.F
        L_next = F.mul(F.square(self.Ls[j]), self.s[j % self.period])
        return F.mul(F.mul(self.det_ratio(j), F.pow(self.Ls[1], 1 << j)), F.inv(L_next))


def _p_tower(spec: PSpec, sp: SpecMap, F) -> PTower:
    """The tower of a family-P spec over ``SeriesField`` or ``RationalField``."""
    sp.check_covers(spec.alphabet)

    def letter(c: str):
        # over series, e of degree D known to F.prec - 2D, so 1/e is known to F.prec
        e, D = sp.poly(c), sp.degree(c)
        if isinstance(F, RationalField):
            return e, 1
        return LaurentSeries(-D, bit_reverse(e, D + 1), F.prec - 2 * D)

    return PTower(F, word_matrix(spec.w0, sp, F), [letter(c) for c in spec.eps])


def p_tower(spec: PSpec, sp: SpecMap, prec: int) -> PTower:
    """The series tower of a family-P spec at working precision prec."""
    return _p_tower(spec, sp, SeriesField(prec))


def exact_p_tower(spec: PSpec, sp: SpecMap) -> PTower:
    """The tower of a family-P spec over K = GF(2)(z), every scalar exact."""
    return _p_tower(spec, sp, RationalField())


def exact_g_quantities(norm: NormalizedG, sp: SpecMap) -> GQuantities:
    """The first generation of a normalized family-G spec over K = GF(2)(z),
    every scalar exact.  The pair m1 = w0 m0, w1 = m0 w0 is the transposed
    ``_word_product`` of u0 v0 and of v0 u0, the descending product of
    ((u, 1), (1, 0)): ``word_matrix`` times the product of the words'
    letters, with nothing divided.  So the pair is scaled by one factor,
    which the tower's identities and the ratio of the limit sum both keep."""
    F = RationalField()

    def start(word: str) -> Mat2:
        a, b, c, d = _word_product(word, sp)
        return Mat2(F, (a, 1), (c, 1), (b, 1), (d, 1))

    u0, v0 = norm.spec.u0, norm.spec.v0
    return GQuantities(F, start(u0 + v0), start(v0 + u0), norm.s)


def predicted_det_val(spec: PSpec, sp: SpecMap, j: int) -> int:
    """Exact valuation of d_j of the series tower, from degree bookkeeping."""
    v = 2 * sum(sp.degree(c) for c in spec.w0)
    for i in range(j):
        v = 2 * v + 2 * sp.degree(spec.eps[i % spec.period])
    return v


@dataclass
class PLimits:
    """Limits of a family-P tower at a working precision."""

    tower: PTower
    f: LaurentSeries
    H: list[LaurentSeries]
    cf: LaurentSeries
    diff_vals: list[tuple[int, int]] = dc_field(default_factory=list)

    def residual_f(self) -> LaurentSeries:
        """f^(2^n) * L_n + f, zero when the limit product closes up."""
        n = self.tower.period
        return self.f.pow(1 << n) * self.tower.Ls[n] + self.f

    def residual_h0(self) -> LaurentSeries:
        """H_0^(2^n) * rho + H_0 + d_0 / L_1, with rho = residue_factor(n).

        The tail terms T_k = d_{kn}/L_{kn+1} satisfy T_{k+1} = rho T_k^(2^n)
        (rho is k-independent by the power-shift identity applied at period
        multiples), so the tail sum telescopes.  When the running products
        collapse to 1, rho is the plain lam / L_1, lam = det_ratio(n).
        """
        t = self.tower
        return self.H[0].pow(1 << t.period) * t.residue_factor(t.period) + self.H[0] + t.term(0)

    def residual_hj(self, j: int) -> LaurentSeries:
        """H_j + H_0^(2^j) * (d_j / d_0^(2^j)) * (L_1^(2^j) / L_{j+1})."""
        return self.H[j] + self.H[0].pow(1 << j) * self.tower.residue_factor(j)


def p_limits(spec: PSpec, sp: SpecMap, prec: int) -> PLimits:
    """Run the family-P tower to convergence at ``prec`` and take limits."""
    t = p_tower(spec, sp, prec)
    n = t.period
    cap = n * 2 + max(8, prec.bit_length() + 4) + 8
    diff_vals: list[tuple[int, int]] = []
    while True:
        for _ in range(n):
            t.advance()
        j = t.step
        diff = t.Ls[j] + t.Ls[j - n]
        dv = diff.known_zero_below()
        diff_vals.append((j, dv))
        if why := gap_violation(diff, j - n):
            raise ClaimFailed(why)
        if dv >= prec and t.ds[-1].known_zero_below() >= prec:
            break
        if j > cap:
            raise ClaimFailed(f"no convergence within {cap} steps at prec {prec}")
    F = t.F
    H = [F.zero for _ in range(n)]
    for i in range(t.step):
        H[i % n] = H[i % n] + t.term(i)
    # the limit product is f times this expansion, and f cancels in the ratio
    cf = cf_ratio(t.expansion(H))
    return PLimits(tower=t, f=t.Ls[-1], H=H, cf=cf, diff_vals=diff_vals)


# ---------------------------------------------------------------------------
# family-G tower
# ---------------------------------------------------------------------------


def pair_step(m: Mat2, w: Mat2, bit: str) -> tuple[Mat2, Mat2]:
    """One swap bit of the pair recurrence: 0 squares both, 1 cross-multiplies."""
    if bit == "0":
        return m.square(), w.square()
    return w.mul(m), m.mul(w)


def pair_tower(m0: Mat2, w0: Mat2, bits: str) -> tuple[Mat2, Mat2]:
    """Walk the pair recurrence from (w0*m0, m0*w0) along swap bits.

    Bit 0 squares both matrices; bit 1 cross-multiplies them.  Works over
    any coefficient field (generic matrices included).
    """
    m, w = w0.mul(m0), m0.mul(w0)
    for b in bits:
        m, w = pair_step(m, w, b)
    return m, w


class CoScaled:
    """A value u * cross^b with b in {0, 1}; cross^2 is the scalar gamma."""

    __slots__ = ("u", "odd")

    def __init__(self, u, odd: int):
        self.u = u
        self.odd = odd


class GQuantities:
    """Scalar bookkeeping of a family-G tower generation.

    Built from the first cross products m1 = w0*m0, w1 = m0*w0 and the
    driver word s: determinant d, trace r, the cross matrix, its scalar
    square gamma, the correction terms c_1..c_k, and the period scalar l.
    Correction terms are carried as CoScaled values (u * cross^b), which
    keeps every power of the cross matrix in scalar arithmetic.  Each
    letter of s costs c_j and l one square and at most one product (by a
    factor table entry, in ``step`` and ``_walk``), so no power of d is ever
    divided by, and the limit terms H_j and the generation shift walk the
    same c step along s: the only scalars inverted are r and gamma, once
    each here.  c_1 and l are built here, c_2..c_k on first read of ``c``.
    Without a driver word only the word-independent scalars are set,
    which every driver word over the same pair shares.
    """

    def __init__(self, F, m1: Mat2, w1: Mat2, s: str = ""):
        self.F = F
        self.s = s
        self.k = len(s)
        self.m1 = m1
        self.w1 = w1
        self.d = m1.det()
        self.r = m1.trace()
        self.cross = m1.add(w1).add_scalar(self.r)
        sq = self.cross.square()
        if not sq.is_scalar():
            raise DegenerateDraw("cross square is not scalar (inputs not a cross pair)")
        self.gamma = sq.a
        for name, val in (("r", self.r), ("gamma", self.gamma)):
            if F.is_zero(val):
                raise DegenerateDraw(f"degenerate specialization: {name} not invertible")
        self.inv_r = F.inv(self.r)
        self.inv_gamma = F.inv(self.gamma)
        self._kappa_x2 = ((self.inv_r, self.inv_gamma), (F.mul(self.gamma, self.inv_r), None))
        self._lambda_x2 = ((self.r, None), (F.mul(self.gamma, self.r), self.gamma))
        if not s:
            return
        self.stats = word_stats(s)
        self.c1, l1 = self.step(None, CoScaled(F.one, 0), self.stats.delta[0])
        self.l_cs = self._walk(l1, self.stats.delta[1:], self._lambda_x2)[-1]

    def step(self, c: CoScaled | None, l: CoScaled, t: int) -> tuple[CoScaled, CoScaled]:
        """(c_(j+1), l_(j+1)) = (c_j^2 kappa_t, l_j^2 lambda_t) for the digit
        parity t of the next prefix, kappa = (1/r, 1/cross) and lambda =
        (r, cross); c = None at the empty prefix gives c_1 = d kappa_t, and
        l_0 = 1.  So c_j = d^(2^(j-1)) r^-(2^j - 1 - e_j) cross^-e_j and
        l_j = r^(2^j - 1 - e_j) cross^e_j, with e_j = 2 e_(j-1) + t_j, e_0 = 0
        and t_j the digit parity of s's prefix of length j."""
        kappa = self._kappa_x2
        c = CoScaled(self.F.mul(self.d, kappa[0][t]), t) if c is None else self._times_square(c, t, kappa)
        return c, self._times_square(l, t, self._lambda_x2)

    def _times_square(self, x: CoScaled, t: int, table) -> CoScaled:
        """kappa_t x^2 or lambda_t x^2 for x = u cross^b (cross^2 = gamma):
        u^2 times entry [b][t] of ``table``, _kappa_x2 or _lambda_x2, and of
        cross parity t; an entry None is the factor 1."""
        u = self.F.square(x.u)
        f = table[x.odd][t]
        return CoScaled(u if f is None else self.F.mul(u, f), t)

    def _walk(self, h: CoScaled, parities, table) -> list[CoScaled]:
        """h, then for each parity t in turn what ``_times_square`` makes of
        the last value x: with ``_kappa_x2`` the c half of ``step``, with
        ``_lambda_x2`` its l half.  x's scalar and cross parity ride in
        locals: one square, at most one product and one CoScaled a letter."""
        square, mul = self.F.square, self.F.mul
        u, b = h.u, h.odd
        out = [h]
        for t in parities:
            f = table[b][t]
            u = square(u) if f is None else mul(square(u), f)
            b = t
            out.append(CoScaled(u, t))
        return out

    @cached_property
    def c(self) -> list[CoScaled]:
        """c_1 .. c_k, walked from c_1; only the identity battery reads past c_1."""
        return self._walk(self.c1, self.stats.delta[1:], self._kappa_x2)

    def _square(self, x: CoScaled):
        """The scalar x^2 = x.u^2 gamma^b of x = x.u cross^b."""
        u = self.F.square(x.u)
        return self.F.mul(u, self.gamma) if x.odd else u

    # -- CoScaled arithmetic (needs gamma, so it lives here) ---------------

    def cs_mul(self, x: CoScaled, y: CoScaled) -> CoScaled:
        F = self.F
        u = F.mul(x.u, y.u)
        if x.odd and y.odd:
            return CoScaled(F.mul(u, self.gamma), 0)
        return CoScaled(u, x.odd | y.odd)

    def cs_inv(self, x: CoScaled) -> CoScaled:
        F = self.F
        u = F.inv(x.u)
        if x.odd:
            u = F.mul(u, self.inv_gamma)
        return CoScaled(u, x.odd)

    def cs_pow(self, x: CoScaled, n: int) -> CoScaled:
        if n < 0:
            return self.cs_pow(self.cs_inv(x), -n)
        F = self.F
        total = x.odd * n
        u = F.mul(F.pow(x.u, n), F.pow(self.gamma, total // 2))
        return CoScaled(u, total & 1)

    def cs_add(self, x: CoScaled, y: CoScaled) -> CoScaled:
        if x.odd != y.odd:
            raise ValueError("cross parity mismatch in addition")
        return CoScaled(self.F.add(x.u, y.u), x.odd)

    def cs_to_mat(self, x: CoScaled) -> Mat2:
        if x.odd:
            return self.cross.scale(x.u)
        return Mat2.scalar(self.F, x.u)

    # -- derived scalars ------------------------------------------------------

    @property
    def l_scalar(self):
        if self.l_cs.odd:
            raise HypothesisViolation("period scalar carries an odd cross power")
        return self.l_cs.u

    def shift(self, t: CoScaled) -> CoScaled:
        """The generation shift rho t^(2^k) of c_1/L, rho = c_1'/l /
        c_1^(2^k) with c_1' the next generation's first correction: t
        walked along the prefix parities of s from length 2 on, then once
        more with that of length 1, since s has an even digit sum.  t may
        have either cross parity."""
        delta = self.stats.delta
        return self._walk(t, delta[1:] + delta[:1], self._kappa_x2)[-1]

    def affine_form(self) -> tuple:
        """(rho, c, a0, a, b0, b) with phi = A(u)/B(u), A = a0 + sum_j a[j] u^(2^j)
        and B = b0 + sum_j b[j] u^(2^j) (j < k), for u the root of
        rho T^(2^k) + T + c, c = c_1.u, that is H_1 = u cross^o, o = c_1.odd.
        ``shift`` and ``limit_terms`` walk H_1's scalar by squares, so rho is
        shift(cross^o).u and H_(j+1) = h_j.u u^(2^j) cross^(h_j.odd) with
        h = _walk(cross^o, ...); the limit sum m1 + sum_j H_j adds h_j.u
        cross.(a, b) to (a0, b0) = (m1.a, m1.b) for an odd h_j, (h_j.u, 0)
        for an even one."""
        F, x = self.F, self.cross
        one = CoScaled(F.one, self.c1.odd)
        h = self._walk(one, self.stats.delta[1:], self._kappa_x2)
        a = [F.mul(t.u, x.a) if t.odd else t.u for t in h]
        b = [F.mul(t.u, x.b) if t.odd else F.zero for t in h]
        return self.shift(one).u, self.c1.u, self.m1.a, a, self.m1.b, b

    def generations(self):
        """Yield (L_i, t_i) for i = 0, 1, ...: the running product
        L_(i+1) = L_i l^(2^(ik)) with L_0 = 1, and the tail term t_i = c_1/L
        of generation i, with t_0 = c_1 and t_(i+1) = shift(t_i)."""
        F = self.F
        l = self.l_scalar
        L, t = F.one, self.c1
        while True:
            yield L, t
            L = F.mul(L, l)
            l = F.pow(l, 1 << self.k)
            t = self.shift(t)

    def limit_terms(self, H1: CoScaled) -> list[CoScaled]:
        """H_1 .. H_k, walked as H_(j+1) = kappa_t H_j^2 with t the digit
        parity of s's prefix of length j + 1 (so H_j = H_1^(2^(j-1)) c_j /
        c_1^(2^(j-1)))."""
        return self._walk(H1, self.stats.delta[1:], self._kappa_x2)

    def limit_sum(self, Hs: list[CoScaled]) -> Mat2:
        """The limit sum m1 + H_1 + ... + H_k of the terms Hs, built once in scalar
        coordinates as m1 + E + O cross, E and O the even and odd terms' scalar sums."""
        F, m1, x = self.F, self.m1, self.cross
        add, mul = F.add, F.mul
        sums = [F.zero, F.zero]  # E, O
        for h in Hs:
            sums[h.odd] = add(sums[h.odd], h.u)
        E, O = sums
        return Mat2(
            F, add(add(m1.a, E), mul(O, x.a)), add(m1.b, mul(O, x.b)),
            add(m1.c, mul(O, x.c)), add(add(m1.d, E), mul(O, x.d)),
        )

    def closed_products(self) -> tuple[Mat2, Mat2]:
        """Closed forms of the pair after one driver word, per digit parity."""
        F = self.F
        sums = [F.zero, F.zero]  # correction sum even + odd cross
        for cj in self.c:
            sums[cj.odd] = F.add(sums[cj.odd], cj.u)
        cm, cw = self.closed_pair(self.stats.t, *sums, self.l_cs)
        return Mat2(F, *cm), Mat2(F, *cw)

    @cached_property
    def _times_cross(self) -> tuple[Mat2, Mat2]:
        """m1 cross and w1 cross, the bases of the closed forms when l is odd."""
        return self.m1.mul(self.cross), self.w1.mul(self.cross)

    def closed_pair(self, t: int, even, odd, l_cs: CoScaled) -> tuple[tuple, tuple]:
        """Entries (a, b, c, d) of the closed forms (first + acc) l and
        (second + acc) l of the pair after a driver word with digit parity
        t, correction sum acc = even + odd cross and period scalar l; t
        selects which of m1, w1 comes first.  With l = u cross^b both are
        u times a matrix plus a part they share: first + even + odd cross
        when b = 0, and first cross + even cross + odd gamma when b = 1."""
        F = self.F
        add, mul = F.add, F.mul
        if l_cs.odd:
            first, second = self._times_cross
            scale, diag = even, mul(odd, self.gamma)
        else:
            first, second = self.m1, self.w1
            scale, diag = odd, even
        if t:
            first, second = second, first
        x, u = self.cross, l_cs.u
        sa, sb = add(mul(x.a, scale), diag), mul(x.b, scale)
        sc, sd = mul(x.c, scale), add(mul(x.d, scale), diag)
        return (
            (mul(add(first.a, sa), u), mul(add(first.b, sb), u),
             mul(add(first.c, sc), u), mul(add(first.d, sd), u)),
            (mul(add(second.a, sa), u), mul(add(second.b, sb), u),
             mul(add(second.c, sc), u), mul(add(second.d, sd), u)),
        )

    def primed_check_values(self) -> dict:
        """Closed-form next-generation quantities (hypothesis: t(s)=0, s ends 1).
        c_j' is c_j times f_j = d^((2^k - 1) 2^(j-1)) / l^(2^j - 1), walked
        as f_1 = d^(2^k - 1)/l and f_(j+1) = f_j^2/l: one square and one
        product a term."""
        F = self.F
        square, mul = F.square, F.mul
        l = self.l_scalar
        inv_l = F.inv(l)
        f = mul(F.pow(self.d, (1 << self.k) - 1), inv_l)
        cj_primed = []
        for j, cj in enumerate(self.c):
            if j:
                f = mul(square(f), inv_l)
            cj_primed.append(CoScaled(mul(f, cj.u), cj.odd))
        return {
            "d": F.pow(self.d, 1 << self.k),
            "r": F.mul(l, self.r),
            "cross": self.cross.scale(l),
            "l": F.pow(l, 1 << self.k),
            "c": cj_primed,
        }


@dataclass
class GLimits:
    """Limits of a family-G tower at a working precision."""

    norm: NormalizedG
    quants: GQuantities
    Ls: list[LaurentSeries]
    f: LaurentSeries
    H1: CoScaled
    Hs: list[CoScaled]
    cf: LaurentSeries
    diff_vals: list[tuple[int, int]] = dc_field(default_factory=list)

    def residual_f(self) -> LaurentSeries:
        """f^(2^k) * l + f."""
        return self.f.pow(1 << self.quants.k) * self.quants.l_scalar + self.f

    def residual_h(self) -> LaurentSeries:
        """H_1^(2^k) * (c_1'/l) / c_1^(2^k) + c_1 + H_1 (scalar part)."""
        q = self.quants
        return q.cs_add(q.shift(self.H1), q.cs_add(q.c1, self.H1)).u


def g_start_pair(spec: GSpec, sp: SpecMap, prec: int) -> tuple[SeriesField, Mat2, Mat2]:
    """The series field at prec and the first cross products m1 = w0 m0 and
    w1 = m0 w0 of the start matrices m0 = M(u0), w0 = M(v0).  A word matrix
    is a descending product, so these are the word matrices of u0 v0 and of
    v0 u0, each from one word product and cut at the working precision."""
    if len(spec.u0) != len(spec.v0):
        raise HypothesisViolation(
            "start words must have equal length for the product tower"
        )
    sp.check_covers(spec.alphabet)
    F = SeriesField(prec)
    u0, v0 = spec.u0, spec.v0
    return F, word_matrix(u0 + v0, sp, F), word_matrix(v0 + u0, sp, F)


def g_tower_normalize(spec: GSpec) -> NormalizedG:
    """``g_normalize``, refusing a driver word with an odd number of 1s:
    the family-G tower and its degree bound 2^k need an even count."""
    norm = g_normalize(spec)
    if word_stats(norm.s).t != 0:
        raise HypothesisViolation(
            f"swap period {spec.ups!r} has an odd number of 1s; the degree"
            f" bound 2^{len(norm.s)} requires an even count"
        )
    return norm


def g_limits(spec: GSpec, sp: SpecMap, prec: int) -> GLimits:
    """Normalize, run the family-G tower to convergence, and take limits."""
    norm = g_tower_normalize(spec)
    q = GQuantities(*g_start_pair(norm.spec, sp, prec), norm.s)
    walk = q.generations()
    L, H1 = next(walk)
    Ls = [L]
    diff_vals: list[tuple[int, int]] = []
    cap = max(8, (prec.bit_length() // max(1, q.k)) + 6)
    for i, (L_next, term) in enumerate(walk):
        diff = L_next + Ls[-1]
        dv = diff.known_zero_below()
        diff_vals.append((i, dv))
        if why := gap_violation(diff, i * q.k):
            raise ClaimFailed(why)
        Ls.append(L_next)
        H1 = q.cs_add(H1, term)
        if dv >= prec and term.u.known_zero_below() >= prec:
            break
        if i >= cap:
            raise ClaimFailed(f"no convergence within {cap} generations at prec {prec}")
    Hs = q.limit_terms(H1)
    # the limit product is f times the limit sum, and f cancels in the ratio
    return GLimits(
        norm=norm, quants=q, Ls=Ls, f=Ls[-1], H1=H1, Hs=Hs, cf=cf_ratio(q.limit_sum(Hs)), diff_vals=diff_vals,
    )


# ---------------------------------------------------------------------------
# convenience oracles
# ---------------------------------------------------------------------------


def _p_level_pair(spec: PSpec, sp: SpecMap, L: int) -> tuple[int, int]:
    """``convergent_pair(p_prefix(spec, L), sp)`` from the word's levels.

    W_(j+1) = W_j e_j W_j, so M(W_(j+1)) = M(W_j) E(e_j) M(W_j) with E(e) =
    ((e, 1), (1, 0)).  det M = 1, so with s = b + c and t = e a + s the
    step is a' = a t, c' = c t + 1, s' = s t, b' = s' + c' and d' = e b c +
    d s.  The prefix splits as W_j1 e_j1 W_j2 e_j2 ..., each W_j the largest
    level that fits the rest, and below level 0 a prefix of w0; the first
    column is carried from (1, 0) through the pieces right to left.
    """
    eps = [sp.poly(letter) for letter in spec.eps]
    levels = [(len(spec.w0), _word_product(spec.w0, sp))]  # (|W_j|, M(W_j))
    while 2 * levels[-1][0] + 1 <= L:
        n, (a, b, c, d) = levels[-1]
        e = eps[(len(levels) - 1) % len(eps)]
        s = b ^ c
        t = clmul(e, a) ^ s
        c1, s1 = clmul(c, t) ^ 1, clmul(s, t)
        levels.append((2 * n + 1, (clmul(a, t), s1 ^ c1, c1, clmul(clmul(e, b), c) ^ clmul(d, s))))
    pieces, rest = [], L
    for j in reversed(range(len(levels))):
        n, m = levels[j]
        if n <= rest:
            pieces += [m, (eps[j % len(eps)], 1, 1, 0)] if n < rest else [m]
            rest -= n + 1
    if rest > 0:
        pieces.append(_word_product(spec.w0[:rest], sp))
    x, y = 1, 0
    for a, b, c, d in reversed(pieces):
        x, y = clmul(a, x) ^ clmul(b, y), clmul(c, x) ^ clmul(d, y)
    return x, y


def p_cf_series(spec: PSpec, sp: SpecMap, prec: int) -> LaurentSeries:
    """Direct-convergent series of the family-P continued fraction: the
    stop index ``cf_series`` would pick on ``p_prefix``, and the convergent
    there from the word's levels (``_p_level_pair``)."""
    L = _cf_stop(p_prefix(spec, _oracle_length(sp, prec)), sp, prec)
    return LaurentSeries.from_rational(*_p_level_pair(spec, sp, L), prec)


def g_cf_series(spec: GSpec, sp: SpecMap, prec: int) -> LaurentSeries:
    """Direct-convergent series of the family-G continued fraction."""
    return cf_series_of(lambda L: g_prefix(spec, L), sp, prec)
