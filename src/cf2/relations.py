"""Algebraic-relation search for truncated series over GF(2)((1/z)).

``find_relation`` looks for polynomials p_0..p_D over GF(2)[z], not all
zero, with p_0 + p_1*phi + ... + p_D*phi^D vanishing to the usable
precision of phi.  In t = 1/z, with pole = max(0, -val phi), the series
psi_i = t^(D*pole) * phi^i are known to the order sigma = prec + pole.  A
column-reduced order basis of (psi_0, ..., psi_D) (Beckermann-Labahn's
iterative sigma-basis) has as least column degree d the least z-degree of
any q with sum q_i*psi_i = O(t^sigma), so degZ is read off the data, not
guessed; reversed at width d, q gives p_i(z) = z^d * q_i(1/z).  A column
counts only if required_precision(D, d) fits the order psi_0 carries,
sigma - D*pole, the fewest of any psi_i: ``certifying_precision`` is the
least precision that admits degZ d, and ``max_degz`` its inverse.

The powers phi^e carry the precision of the product chain one(p)*phi*...:
p for e = 0 and p + (e-1)*v + min(v, 0) for e >= 1 (v = val phi; the
first product loses |v| when v < 0).  ``_powers`` squares, which is linear
in characteristic 2, and cuts each square to it, so values and precisions
are the chain's.

A returned relation certifies only "annihilates to this precision";
callers re-verify at higher precision and discard precision artifacts.

``frobenius_relation`` needs no precision: it derives the relation of
phi = 1/Y exactly over K = GF(2)(z) when Y is affine in the Frobenius
powers of a root of rho X^(2^n) + X + t0, as family P's 1/phi is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import count
from operator import xor

from .gf2poly import bit_reverse, cldivmod, clgcd, clmul, clsq, poly_str
from .laurent import LaurentSeries
from .mat2 import RationalField


def required_precision(degx: int, degz: int) -> int:
    """The counting rule: the (degx + 1)(degz + 1) unknowns of a relation
    of degX degx and degZ degz, plus a safety margin of 32."""
    return (degx + 1) * (degz + 1) + 32


@dataclass(frozen=True)
class AlgRelation:
    """Candidate annihilating polynomial sum(p_i(z) * X^i), each p_i a
    bit-packed GF(2)[z] int, held normalized: built from any coefficients,
    it drops the top zeros and divides out the content."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        polys = list(self.coeffs)
        while polys and not polys[-1]:
            polys.pop()
        object.__setattr__(self, "coeffs", _content_normalize(polys))

    @property
    def degx(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degz(self) -> int:
        return max((p.bit_length() for p in self.coeffs), default=0) - 1

    def evaluate(self, phi: LaurentSeries) -> LaurentSeries:
        """Residual series sum(p_i * phi^i) at phi's precision, from only
        the powers phi^i with p_i nonzero."""
        return self.residual(_powers(phi, [i for i, p in enumerate(self.coeffs) if p]))

    def residual(self, powers) -> LaurentSeries:
        """sum(p_i * powers[i]) over the nonzero p_i, for powers[i] = phi^i
        (a list or a mapping that holds at least those i)."""
        acc = None
        for i, p in enumerate(self.coeffs):
            if p:
                term = powers[i].mul_poly(p)
                acc = term if acc is None else acc + term
        if acc is None:
            raise ValueError("empty relation")
        return acc

    def summary(self, residual_val: int, prec: int) -> str:
        """The ``degree= degZ= residual_val= prec=`` report line, with
        residual_val the residual bound verified at precision prec."""
        return f"degree={self.degx} degZ={self.degz} residual_val={residual_val} prec={prec}"

    def render(self) -> str:
        """Canonical text: descending X powers, '+'-separated."""
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            p = self.coeffs[i]
            if p:
                parts.append(f"X^{i}*({poly_str(p)})")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


def _powers(phi: LaurentSeries, exps) -> dict[int, LaurentSeries]:
    """phi^e for each e in exps, at the chain's precision: an even power is
    the half power squared and cut, an odd one the power below times phi.
    0..D costs D/2 products, a sparse support about two operations per bit
    of each exponent.  If phi^1 is zero to precision, the chain is kept."""
    p, v = phi.prec, phi.val
    out = {0: LaurentSeries.one(p)}
    out[1] = out[0] * phi
    chain = out[1].is_zero
    need = set()
    for e in exps:
        while e not in out and e not in need:
            need.add(e)
            e = e - 1 if e & 1 or chain else e >> 1
    for e in sorted(need):
        if e & 1 or chain:
            out[e] = out[e - 1] * phi
        else:
            sq = out[e >> 1].square()
            out[e] = LaurentSeries(sq.val, sq.mask, p + (e - 1) * v + min(v, 0))
    return {e: out[e] for e in exps}


def _content_normalize(polys: list[int]) -> tuple[int, ...]:
    content = 0
    for p in polys:
        content = clgcd(content, p)
    if content < 2:  # 0 or 1: nothing to divide out
        return tuple(polys)
    return tuple(cldivmod(p, content)[0] for p in polys)


def certifying_precision(degx: int, degz: int, val: int) -> int:
    """Least precision at which the order basis of a series of valuation
    val certifies a relation of degX degx and degZ degz: the counting rule's
    required_precision(degx, degz) must fit the order psi_0 carries,
    prec - (degx - 1) * pole."""
    return required_precision(degx, degz) + (degx - 1) * max(0, -val)


def max_degz(phi: LaurentSeries, degx: int) -> int:
    """Largest d with certifying_precision(degx, d, val) <= prec: the
    z-degrees a search can certify (negative: none)."""
    return (phi.prec - certifying_precision(degx, 0, phi.val)) // (degx + 1)


def _order_basis(res: list[int], sigma: int) -> tuple[list[int], list[int]]:
    """Order-``sigma`` basis columns and their degrees for the series
    ``res``, each bit-reversed (t^k at bit sigma-1-k) and turned in place
    into its column's residual.  Column j starts as e_j; entry i's t^l
    coefficient is bit l*n + i, so a shift by n multiplies by t.  The
    pivot is the live column of least degree, ties to the lowest index,
    so the leading coefficients stay unit upper triangular.  Every order
    has a live column: a series of valuation 0 (psi_D, or psi_0 if phi has
    no pole) at order 0, and the pivot's residual, shifted, at the next."""
    n = len(res)
    cols = [1 << j for j in range(n)]
    degs = [0] * n
    for k in range(sigma):
        live = [j for j, r in enumerate(res) if r.bit_length() == sigma - k]
        p = min(live, key=degs.__getitem__)
        for j in live:
            if j != p:
                res[j] ^= res[p]
                cols[j] ^= cols[p]
        res[p] >>= 1
        cols[p] <<= n
        degs[p] += 1
    return cols, degs


def find_relation(phi: LaurentSeries, degx: int, degz: int | None = None) -> AlgRelation | None:
    """Minimal-X-degree relation of z-degree <= degz (default ``max_degz``)
    annihilating phi to its precision, or None; a degz past ``max_degz``
    raises ValueError naming its ``certifying_precision``."""
    if degx < 1 or degz is not None and degz < 0:
        raise ValueError("need degx >= 1 and degz >= 0")
    cap, pole = max_degz(phi, degx), max(0, -phi.val)
    degz = max(cap, 0) if degz is None else degz
    if degz > cap:
        need = certifying_precision(degx, degz, phi.val)
        raise ValueError(f"degX {degx} degZ {degz} needs precision {need}, got {phi.prec}")
    sigma = phi.prec + pole
    powers = _powers(phi, range(degx + 1))
    low = (1 << sigma) - 1
    res = [bit_reverse((p.mask << (p.val + degx * pole)) & low, sigma) for p in powers.values()]
    cols, degs = _order_basis(res, sigma)
    d = min(degs)
    if d > degz:
        return None
    # the relations among the degree-d columns are M*c(X); their leading
    # coefficients are triangular, so the deg c differ and the first is M.
    # Read low to high, entry i's bits are p_i's from z^d down.
    m = degx + 1
    width = (d + 1) * m
    bits = f"{bit_reverse(cols[degs.index(d)], width):0{width}b}"
    rel = AlgRelation(tuple(int(bits[i::m], 2) for i in range(m)))
    # the basis checks p_i*phi^i short of its own precision when i < degx
    # or deg p_i < d; the residual must vanish on those orders too
    return rel if rel.residual(powers).is_zero else None


def frobenius_relation(y0, lams, rho, t0) -> AlgRelation:
    """The relation of phi = 1/Y for Y = y0 + sum_j lams[j] X^(2^j), with X
    a root of rho X^(2^n) + X + t0 (n = len(lams)) and every coefficient in
    K = GF(2)(z) as a ``RationalField`` pair, rho nonzero.

    Rewriting X^(2^n) as (X + t0)/rho keeps each Y^(2^i) affine in X, ...,
    X^(2^(n-1)), so its non-constant part is a vector in K^n and some
    i <= n has the first K-linear dependency sum_(k<=i) alpha_k Y^(2^k) =
    beta, alpha_i = 1: the least affine additive relation of Y (a left
    multiple in the Frobenius-twisted ring K{tau}).  Each Y^(2^i) enters the
    elimination as a vector in K^(n+1), its constant as coordinate n, and
    pivots lie in coordinates 0 .. n-1 only: at the dependency the reduced
    vector is zero but for coordinate n, which is beta.  Times phi^(2^i) the
    dependency is sum_k alpha_k phi^(2^i - 2^k) + beta phi^(2^i) = 0,
    returned with denominators cleared, as an ``AlgRelation``."""
    F = RationalField()
    n, inv_rho = len(lams), F.inv(rho)
    part = [*lams, y0]  # Y^(2^i) = part[n] + sum_(j<n) part[j] X^(2^j)
    rows = []  # (pivot, reduced part, its alpha over the Y^(2^k))
    # n + 1 non-constant parts in K^n: the loop ends on a dependency by i = n
    for i in range(n + 1):
        vec, alpha = part, [F.one if k == i else F.zero for k in range(n + 1)]
        for p, row, row_alpha in rows:
            f = vec[p]
            if not F.is_zero(f):
                vec = [F.add(x, F.mul(f, y)) for x, y in zip(vec, row)]
                alpha = [F.add(x, F.mul(f, y)) for x, y in zip(alpha, row_alpha)]
        pivot = next((j for j, x in enumerate(vec[:n]) if not F.is_zero(x)), None)
        if pivot is None:
            break
        s = F.inv(vec[pivot])
        rows.append((pivot, [F.mul(s, x) for x in vec], [F.mul(s, x) for x in alpha]))
        # square, then feed the top term X^(2^n) = (X + t0)/rho back
        top = F.mul(F.square(part[n - 1]), inv_rho)
        part = [top, *map(F.square, part[:n - 1]), F.add(F.square(part[n]), F.mul(top, t0))]
    terms = {(1 << i) - (1 << k): alpha[k] for k in range(i + 1)}
    terms[1 << i] = vec[n]  # beta
    polys = [0] * ((1 << i) + 1)
    for e, p in zip(terms, _clear_denominators(terms.values())):
        polys[e] = p
    return AlgRelation(tuple(polys))


def _clear_denominators(values) -> list[int]:
    """The numerators of ``RationalField`` values over their denominators' lcm."""
    values = list(values)
    lcm = 1
    for _, den in values:
        lcm = clmul(lcm, cldivmod(den, clgcd(lcm, den))[0])
    return [clmul(num, cldivmod(lcm, den)[0]) for num, den in values]


def norm_relation(rho, c, a0, a, b0, b) -> AlgRelation | None:
    """The relation of phi = A(u)/B(u), A = a0 + sum_j a[j] u^(2^j) and
    B = b0 + sum_j b[j] u^(2^j) (j < k = len(a)), with u a root of
    rho T^(2^k) + T + c and every coefficient in K = GF(2)(z) as a
    ``RationalField`` pair: the norm of Y = X B(u) + A(u) from K(u) to K,
    cut to Y's own conjugates.  None if Y is zero.

    The roots of rho T^(2^k) + T + c are u + w, w in a GF(2)-space W of
    dimension k, and Y(u + w) = Y + l(w) with l additive.  Every Y^(2^i)
    is affine in u, ..., u^(2^(k-1)), as u^(2^k) = (u + c)/rho: its
    coordinates on (u, ..., u^(2^(k-1)), 1) are column i of M(X), entries
    A_i + X^(2^i) B_i (``_norm_columns``).  Let column r be the first whose
    non-constant part depends on those before it.  Cramer's rule on r
    non-constant rows S whose minor V_S(X) is not zero, and the constant
    row, with M_S(X) that (r + 1)-minor, gives Y^(2^r) + sum_(i<r)
    alpha_i Y^(2^i) = beta = M_S/V_S (``_minors``).  It holds at every
    conjugate Y + l(w), so the monic additive T^(2^r) + sum alpha_i T^(2^i)
    vanishes on l(W), of rank r too, and beta = prod_(v in l(W)) (Y + v):
    a polynomial of degree 2^r in X (``_interpolate``), zero at X = phi.
    At r = k, the usual case, it is the norm; V_S is then det V, the k
    non-constant rows of columns 0 .. k-1, and M_S is det M."""
    k = len(a)
    found = _minors(_norm_columns(rho, c, [*a, a0, *b, b0], k), k)
    return None if found is None else _interpolate(*found)


def _norm_columns(rho, c, coeffs: list, k: int) -> list[list[int]]:
    """Columns 0 .. k of M(X) over GF(2)[z], each the coordinates of A^(2^i)
    and then of B^(2^i), for ``coeffs`` A's and B's (a[0..k-1], a0,
    b[0..k-1], b0).  One common denominator clears the coefficients; a step
    squares every entry and feeds the top term u^(2^k) = (u + c)/rho back,
    times rho_num c_den; a column is divided by its content.  Each of these
    scales a column by a constant, so the minors only by one."""
    (rn, rd), (cn, cd) = rho, c
    up, low, fed = clmul(rn, cd), clmul(rd, cd), clmul(cn, rd)
    cols = [list(_content_normalize(_clear_denominators(coeffs)))]
    while len(cols) <= k:
        sq = [clsq(x) for x in cols[-1]]
        col = []
        for half in (sq[:k + 1], sq[k + 1:]):
            top = half[k - 1]
            col += [clmul(top, low), *(clmul(x, up) for x in half[:k - 1]), clmul(half[k], up) ^ clmul(top, fed)]
        cols.append(list(_content_normalize(col)))
    return cols


def _minors(cols: list[list[int]], k: int):
    """(M_S, V_S, r) of ``norm_relation``, each minor a map X-exponent ->
    GF(2)[z] coefficient, or None if M_S is zero.  One walk through the
    exterior algebra holds, after column j, every j-minor of columns
    0 .. j-1 by its row set: a column extends each by one of its entries,
    A_j's or X^(2^j) times B_j's.  Characteristic 2 has no signs, the
    exponents sum_(i in C) 2^i of the columns C taken from B are distinct,
    and nothing is divided.  The walk stops at the first column after
    which every minor holds the constant row (row k)."""
    const = 1 << k
    states = {0: {0: 1}}
    for j, col in enumerate(cols):
        minors, states = states, _exterior_step(states, col, j, k)
        if all(S & const for S in states):
            break
    S = min(S for S in minors if not S & const)
    return None if S | const not in states else (states[S | const], minors[S], j)


def _exterior_step(states: dict, col: list[int], j: int, k: int) -> dict:
    """The minors of one more column, column j, kept only if not zero."""
    new: dict = {}
    for S, minor in states.items():
        for r in range(k + 1):
            if S >> r & 1:
                continue
            for entry, shift in ((col[r], 0), (col[k + 1 + r], 1 << j)):
                if entry:
                    tgt = new.setdefault(S | 1 << r, {})
                    for e, p in minor.items():
                        tgt[e + shift] = tgt.get(e + shift, 0) ^ clmul(p, entry)
    new = {S: {e: p for e, p in m.items() if p} for S, m in new.items()}
    return {S: m for S, m in new.items() if m}


def _interpolate(det_m: dict, det_v: dict, r: int) -> AlgRelation:
    """det_m / det_v, of degree n = 2^r in X over K, from its values at the
    n + 1 nodes U + a and z^r + a, over one common denominator.

    U = span(1, z, ..., z^(r-1)) holds the polynomials of degree < r, and a
    is the first multiple of z^(r+1) at which det_v vanishes at no node
    (det_v has finitely many roots, and these node sets are disjoint).
    S_U = prod_(w in U) (X + w) = sum_l s_l X^(2^l) is additive, so
    S_(U+a) = S_U + S_U(a) and every Lagrange denominator is s_0.  With the
    values v_x at x in U + a, G = sum_x v_x S_(U+a)/(X + x) has X^i
    coefficient sum_(2^l > i) s_l P_(2^l - 1 - i), P_m = sum_x v_x x^m, and
    with v* at x* = z^r + a, where S_(U+a) is S_U(z^r),
    s_0 S_U(z^r) N = S_U(z^r) G + (s_0 v* + G(x*)) S_(U+a): nothing else
    is divided."""
    n = 1 << r
    s = [1]  # S_U grown by one basis vector t = z^m: S(X) S(X + t) = S^2 + S(t) S
    for m in range(r):
        t = _additive(s, 1 << m)
        s = [clmul(t, s[0])] + [clsq(x) ^ clmul(t, y) for x, y in zip(s, s[1:] + [0])]
    for a in count(0, 2 * n):
        xs = [w ^ a for w in range(n + 1)]  # w = n is z^r
        dv = [_horner(det_v, x) for x in xs]
        if all(dv):
            break
    F = RationalField()
    vals = _clear_denominators(F.div((_horner(det_m, x), 1), (d, 1)) for x, d in zip(xs, dv))
    P, cur = [], vals[:n]
    while len(P) < n:
        P.append(reduce(xor, cur))
        cur = [clmul(v, x) for v, x in zip(cur, xs)]
    g = {i: reduce(xor, (clmul(sl, P[(1 << l) - 1 - i]) for l, sl in enumerate(s) if 1 << l > i)) for i in range(n)}
    sx = _additive(s, n)
    lead = clmul(s[0], vals[n]) ^ _horner(g, xs[n])
    polys = [clmul(sx, g[i]) for i in range(n)] + [0]
    polys[0] ^= clmul(lead, _additive(s, a))
    for l, sl in enumerate(s):
        polys[1 << l] ^= clmul(lead, sl)
    return AlgRelation(tuple(polys))


def _additive(s: list[int], x: int) -> int:
    """sum_l s[l] x^(2^l)."""
    acc = 0
    for sl in s:
        acc ^= clmul(sl, x)
        x = clsq(x)
    return acc


def _horner(coeffs: dict, x: int) -> int:
    """sum_e coeffs[e] x^e over GF(2)[z]."""
    acc = 0
    for e in range(max(coeffs), -1, -1):
        acc = clmul(acc, x) ^ coeffs.get(e, 0)
    return acc
