"""Word families P and G, the prefix-sum operator, and word statistics.

Words are plain strings of single-character letters; binary words use
the characters '0' and '1'.

Family P grows by center insertion, W -> W e W, with the inserted
letters e drawn cyclically from a period word.  Family G grows a pair
of words in parallel, either self-doubling both (u -> uu, v -> vv) or
cross-doubling them (u -> uv, v -> vu), driven by a periodic bit word.
The prefix-sum operator maps a binary word to its running parity.
"""

from __future__ import annotations

from dataclasses import dataclass


class DegeneratePeriodic(ValueError):
    """A spec collapsed to plain periodic repetition (no product tower)."""


def _check_binary(w: str, what: str = "word") -> None:
    if w.strip("01"):
        raise ValueError(f"{what} must be binary, got {w!r}")


@dataclass(frozen=True)
class PSpec:
    """Center-insertion family: seed word w0, periodic insertions eps."""

    w0: str
    eps: str

    def __post_init__(self):
        if not self.eps:
            raise ValueError("eps period must be nonempty")

    @property
    def alphabet(self) -> set[str]:
        return set(self.w0) | set(self.eps)

    @property
    def period(self) -> int:
        return len(self.eps)

    def is_binary(self) -> bool:
        return self.alphabet <= {"0", "1"}


@dataclass(frozen=True)
class GSpec:
    """Paired-doubling family: start words u0, v0, periodic swap bits ups."""

    u0: str
    v0: str
    ups: str

    def __post_init__(self):
        if not self.u0 or not self.v0:
            raise ValueError("u0 and v0 must be nonempty")
        if not self.ups:
            raise ValueError("ups period must be nonempty")
        _check_binary(self.ups, "ups")

    @property
    def alphabet(self) -> set[str]:
        return set(self.u0) | set(self.v0)

    @property
    def period(self) -> int:
        return len(self.ups)

    def is_binary(self) -> bool:
        return self.alphabet <= {"0", "1"}


def p_prefix(spec: PSpec, length: int) -> str:
    """First ``length`` letters of the family-P limit word."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    w = spec.w0
    step = 0
    while len(w) < length:
        w = w + spec.eps[step % len(spec.eps)] + w
        step += 1
    return w[:length]


def g_step(u: str, v: str, bit: str) -> tuple[str, str]:
    if bit == "0":
        return u + u, v + v
    return u + v, v + u


def g_words(spec: GSpec, steps: int) -> tuple[str, str]:
    """The pair (u_n, v_n) after n doubling steps."""
    u, v = spec.u0, spec.v0
    for n in range(steps):
        u, v = g_step(u, v, spec.ups[n % len(spec.ups)])
    return u, v


def g_prefix(spec: GSpec, length: int) -> str:
    """First ``length`` letters of the family-G limit word."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    u, v = spec.u0, spec.v0
    step = 0
    while len(u) < length:
        u, v = g_step(u, v, spec.ups[step % len(spec.ups)])
        step += 1
    return u[:length]


def sigma_word(w: str) -> str:
    """Running parity of a binary word, inclusive: length |w| + 1.

    Entry n is the parity of the first n letters, for n = 0..|w|; on a
    length-(L+1) prefix of an infinite sequence, the first L entries are
    the prefix-sum sequence of the sequence itself.  Read as an int with
    the first letter highest, the running parity is the prefix XOR
    x ^ x>>1 ^ x>>2 ^ ..., taken by doubling shifts.
    """
    _check_binary(w)
    x, shift = int(w or "0", 2), 1
    while shift < len(w):
        x, shift = x ^ (x >> shift), shift << 1
    return format(x, f"0{len(w) + 1}b")


def sigma_inv_word(w: str) -> str:
    """Pairwise differences (mod 2) of a binary word: length |w| - 1."""
    _check_binary(w)
    if len(w) < 2:
        raise ValueError("need at least two letters")
    x = int(w, 2)
    # bit i of x ^ x>>1 is letter |w|-1-i plus the one before it; the top bit is w[0] alone
    return format(x ^ (x >> 1), f"0{len(w)}b")[1:]


def complement(w: str) -> str:
    _check_binary(w)
    return w.translate(str.maketrans("01", "10"))


@dataclass(frozen=True)
class WordStats:
    """Digit parity t and prefix parities of a binary word."""

    t: int
    delta: tuple[int, ...]  # delta[j-1] = parity of the length-j prefix


def word_stats(s: str) -> WordStats:
    """Statistics of a binary word."""
    _check_binary(s)
    t = 0
    delta = []
    for c in s:
        t ^= int(c)
        delta.append(t)
    return WordStats(t=t, delta=tuple(delta))


def p_to_g(spec: PSpec) -> GSpec:
    """The G-spec whose limit word is the prefix-sum of a binary P-word.

    The start word is the inclusive running parity of W1 = w0+e0+w0, the
    partner is its complement, and the swap bit at step k records whether
    consecutive insertion letters differ.
    """
    if not spec.is_binary():
        raise ValueError("prefix-sum conversion needs a binary P-spec")
    w1 = spec.w0 + spec.eps[0] + spec.w0
    u0 = sigma_word(w1)
    n = len(spec.eps)
    ups = "".join(
        "0" if spec.eps[k % n] == spec.eps[(k + 1) % n] else "1" for k in range(n)
    )
    return GSpec(u0=u0, v0=complement(u0), ups=ups)


def g_sigma(spec: GSpec) -> GSpec:
    """The G-spec whose limit word is the prefix-sum of a binary G-word.

    Two doubling steps guarantee both words carry an even number of 1s,
    after which running parity commutes with the doubling recurrence; the
    new start words are the running parities with the final bit dropped
    and the swap period is rotated by two.
    """
    if not spec.is_binary():
        raise ValueError("prefix-sum conversion needs a binary G-spec")
    u2, v2 = g_words(spec, 2)
    k = len(spec.ups)
    ups = "".join(spec.ups[(2 + i) % k] for i in range(k))
    return GSpec(u0=sigma_word(u2)[:-1], v0=sigma_word(v2)[:-1], ups=ups)


@dataclass(frozen=True)
class NormalizedG:
    """A G-spec rotated to a leading swap, with its tower driver word."""

    spec: GSpec
    s: str  # one period of swap bits starting after the leading 1


def g_normalize(spec: GSpec) -> NormalizedG:
    """Rotate a G-spec so its swap period starts with 1.

    The start words absorb the skipped steps, so the limit word is
    unchanged.  The driver word s is one full period read after the
    leading 1 (it ends with 1 by periodicity).  A single-step all-swap
    period is doubled so that s has an even number of 1s, matching the
    two-step recurrence that the product tower uses in that case.
    All-zero periods have no leading 1 and are purely periodic.
    """
    if "1" not in spec.ups:
        raise DegeneratePeriodic(
            f"degenerate: periodic repetition of {spec.u0!r} (no swap steps)"
        )
    j = spec.ups.index("1")
    u, v = g_words(spec, j)
    k = len(spec.ups)
    ups = "".join(spec.ups[(j + i) % k] for i in range(k))
    rotated = GSpec(u0=u, v0=v, ups=ups)
    if k == 1:
        s = "11"
    else:
        s = ups[1:] + ups[0]
    return NormalizedG(spec=rotated, s=s)
