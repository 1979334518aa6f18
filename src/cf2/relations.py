"""Algebraic-relation search for truncated series over GF(2)((1/z)).

``find_relation`` looks for polynomials p_0..p_D over GF(2)[z], not all
zero, with p_0 + p_1*phi + ... + p_D*phi^D vanishing to the usable
precision of phi.  Each unknown coefficient bit of some p_i z^j
contributes a column (the coefficient window of z^j phi^i), each series
exponent a row, and kernel vectors of the resulting GF(2) matrix are
candidate relations.  Columns are bit-packed into ints and eliminated
with XOR; blocks are processed in ascending powers of phi, so the first
kernel hit has minimal degree in phi.

A returned relation certifies only "annihilates to this precision";
callers re-verify at higher precision and discard precision artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .gf2poly import Gf2Poly
from .laurent import LaurentSeries


class InsufficientPrecision(ValueError):
    def __init__(self, needed: int, available: int):
        super().__init__(
            f"series precision {available} below the required {needed}"
        )
        self.needed = needed
        self.available = available


def required_precision(degx: int, degz: int, val: int) -> int:
    """Documented precision demand: unknown count plus slack for the
    polynomial part plus a fixed safety margin of 32."""
    return (degx + 1) * (degz + 1) + degx * max(0, -val) * degx + 32


@dataclass(frozen=True)
class AlgRelation:
    """Candidate annihilating polynomial sum(p_i(z) * X^i), content 1."""

    coeffs: tuple[Gf2Poly, ...]
    verified_prec: int

    @property
    def degx(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d].is_zero():
            d -= 1
        return d

    @property
    def degz(self) -> int:
        return max((p.degree for p in self.coeffs if not p.is_zero()), default=-1)

    def evaluate(self, phi: LaurentSeries) -> LaurentSeries:
        """Residual series sum(p_i * phi^i) at phi's precision."""
        acc = None
        power = LaurentSeries.one(phi.prec)
        for i, p in enumerate(self.coeffs):
            if i:
                power = power * phi
            if p.is_zero():
                continue
            term = power.mul_poly(p)
            acc = term if acc is None else acc + term
        if acc is None:
            raise ValueError("empty relation")
        return acc

    def render(self) -> str:
        """Canonical text: descending X powers, '+'-separated."""
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            p = self.coeffs[i]
            if not p.is_zero():
                parts.append(f"X^{i}*({p})")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


def _content_normalize(polys: list[Gf2Poly]) -> tuple[Gf2Poly, ...]:
    content = Gf2Poly.zero()
    for p in polys:
        content = content.gcd(p)
    if content.is_zero() or content.degree < 1:
        return tuple(polys)
    return tuple(p // content for p in polys)


def find_relation(phi: LaurentSeries, degx: int, degz: int) -> AlgRelation | None:
    """Minimal-X-degree relation annihilating phi to its precision, or None.

    The precondition on phi's precision is checked, never silently
    relaxed; raise InsufficientPrecision when the window cannot support
    the requested search space.
    """
    if degx < 1 or degz < 0:
        raise ValueError("need degx >= 1 and degz >= 0")
    val = 0 if phi.is_zero else min(0, phi.val)
    needed = required_precision(degx, degz, val)
    if phi.prec < needed:
        raise InsufficientPrecision(needed, phi.prec)

    powers = [LaurentSeries.one(phi.prec)]
    for _ in range(degx):
        powers.append(powers[-1] * phi)
    t_hi = min(p.prec for p in powers) - degz
    t_lo = min(p.val if not p.is_zero else p.prec for p in powers) - degz
    nrows = t_hi - t_lo
    if nrows <= 0:
        raise InsufficientPrecision(needed, phi.prec)
    row_mask = (1 << nrows) - 1

    # pivot row -> (column vector, combination of original columns)
    pivots: dict[int, tuple[int, int]] = {}
    width = degz + 1

    def reduce(vec: int, track: int) -> tuple[int, int]:
        while vec:
            low = (vec & -vec).bit_length() - 1
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = (vec, track)
                return vec, track
            vec ^= hit[0]
            track ^= hit[1]
        return 0, track

    for i, power in enumerate(powers):
        v_i = power.val if not power.is_zero else power.prec
        mask_i = power.mask
        for j in range(width):
            shift = t_lo + j - v_i
            col = mask_i << -shift if shift < 0 else mask_i >> shift
            col &= row_mask
            vec, track = reduce(col, 1 << (i * width + j))
            if vec or i == 0:
                continue
            # the kernel vector holds its own column, so its top block is set:
            # it is c(z) times the minimal relation, and normalizing the
            # content removes c(z)
            polys = [Gf2Poly((track >> (k * width)) & ((1 << width) - 1)) for k in range(i + 1)]
            rel = AlgRelation(coeffs=_content_normalize(polys), verified_prec=0)
            return replace(rel, verified_prec=rel.evaluate(phi).known_zero_below())
    return None


def verify_relation(rel: AlgRelation, phi: LaurentSeries) -> int:
    """Provable lower bound on the residual's vanishing: the exact
    residual valuation when nonzero, else the residual's precision."""
    return rel.evaluate(phi).known_zero_below()
