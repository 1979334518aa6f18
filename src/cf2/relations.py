"""Algebraic-relation search for truncated series over GF(2)((1/z)).

``find_relation`` looks for polynomials p_0..p_D over GF(2)[z], not all
zero, with p_0 + p_1*phi + ... + p_D*phi^D vanishing to the usable
precision of phi.  In t = 1/z, with pole = max(0, -val phi), the series
psi_i = t^(D*pole) * phi^i are known to the order sigma = prec + pole.  A
column-reduced order basis of (psi_0, ..., psi_D) (Beckermann-Labahn's
iterative sigma-basis) has as least column degree d the least z-degree of
any q with sum q_i*psi_i = O(t^sigma), so degZ is read off the data, not
guessed; reversed at width d, q gives p_i(z) = z^d * q_i(1/z).  A column
counts only if required_precision(D, d, 0) fits the order psi_0 carries,
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

from .gf2poly import bit_reverse, cldivmod, clgcd, clmul, poly_str
from .laurent import LaurentSeries
from .mat2 import RationalField


def required_precision(degx: int, degz: int, val: int) -> int:
    """Documented precision demand: unknown count plus slack for the
    polynomial part plus a fixed safety margin of 32."""
    return (degx + 1) * (degz + 1) + degx * max(0, -val) * degx + 32


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
    required_precision(degx, degz, 0) must fit the order psi_0 carries,
    prec - (degx - 1) * pole."""
    return required_precision(degx, degz, 0) + (degx - 1) * max(0, -val)


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
    lcm = 1
    for _, den in terms.values():
        lcm = clmul(lcm, cldivmod(den, clgcd(lcm, den))[0])
    polys = [0] * ((1 << i) + 1)
    for e, (num, den) in terms.items():
        polys[e] = clmul(num, cldivmod(lcm, den)[0])
    return AlgRelation(tuple(polys))
