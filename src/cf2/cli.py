"""Command-line front end.

Commands map one-to-one onto the library: gen, sigma, cf, tower-trace,
identities, relation, theorem1, theorem2, corollary, explore-sigma-inv.
Every run echoes a config line sufficient to reproduce it; output is
byte-identical for identical (command, seed, prec).  Exit codes: 0 on
success, 1 on a failed mathematical check, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .gf2poly import Gf2Poly
from .laurent import LaurentSeries
from .relations import find_relation
from .theorems import (
    check_corollary_chain,
    check_theorem_g,
    check_theorem_p,
    explore_inverse_sigma,
    search_relation,
    spec_series,
)
from .towers import (
    ClaimFailed,
    SpecMap,
    cf_series,
    convergent_series,
    g_limits,
    p_tower,
)
from .identities import (
    TOWER_WORDS,
    check_closed_form,
    check_generation_relations,
    check_pair_products,
    check_period_power_shift,
    check_tail_equations,
    check_tower_expansion,
    check_valuation_bounds,
    run_identity_suite,
)
from .words import (
    DegeneratePeriodic,
    GSpec,
    PSpec,
    g_prefix,
    p_prefix,
    sigma_inv_word,
    sigma_word,
)


def parse_spec_text(text: str) -> PSpec | GSpec:
    """Parse the spec text form: `P w0=<word> eps=<word>` or
    `G u0=<word> v0=<word> ups=<bits>`."""
    parts = text.split()
    if not parts:
        raise ValueError("empty spec text")
    family, fields = parts[0], {}
    for item in parts[1:]:
        if "=" not in item:
            raise ValueError(f"bad spec field {item!r}")
        key, value = item.split("=", 1)
        fields[key] = value
    if family == "P":
        return PSpec(fields.get("w0", ""), fields.get("eps", ""))
    if family == "G":
        return GSpec(fields.get("u0", ""), fields.get("v0", ""), fields.get("ups", ""))
    raise ValueError(f"unknown family {family!r}")


def _spec_from_args(args) -> PSpec | GSpec:
    if getattr(args, "spec", None):
        return parse_spec_text(args.spec)
    family = getattr(args, "family", None)
    if family == "P" or (family is None and args.eps is not None):
        return PSpec(args.w0 or "", args.eps or "")
    if family == "G" or (family is None and args.ups is not None):
        return GSpec(args.u0 or "", args.v0 or "", args.ups or "")
    raise ValueError("give --family with its word flags, or --spec")


def _specmap(args, alphabet) -> SpecMap:
    if getattr(args, "map", None):
        sp = SpecMap.parse(args.map)
    elif set(alphabet) <= {"0", "1"}:
        sp = SpecMap.binary_default()
    else:
        raise ValueError(
            f"specialization map required for alphabet {sorted(set(alphabet))}"
        )
    if not sp.covers(alphabet):
        missing = sorted(set(alphabet) - sp.letters)
        raise ValueError(f"unmapped letters {missing}")
    return sp


def _check_prec(prec: int, minimum: int) -> int:
    if prec < minimum:
        raise ValueError(f"prec must be at least {minimum}, got {prec}")
    return prec


def _echo(args, out, command: str, **extra) -> None:
    fields = [f"command={command}"]
    for key, value in extra.items():
        fields.append(f"{key}={value}")
    fields.append(f"prec={getattr(args, 'prec', None)}")
    fields.append(f"seed={getattr(args, 'seed', 0):#x}")
    print("config " + " ".join(fields), file=out)


def _spec_echo(spec) -> str:
    if isinstance(spec, PSpec):
        return f"P w0={spec.w0} eps={spec.eps}"
    return f"G u0={spec.u0} v0={spec.v0} ups={spec.ups}"


# the spec family each theorem command takes, checked before its map
_FAMILY = {"theorem1": PSpec, "theorem2": GSpec, "corollary": PSpec}


def _spec_prologue(args, out, **extra) -> tuple[PSpec | GSpec, SpecMap]:
    """Parse the spec, hold it to the command's family, resolve its map and
    echo the config line that reproduces the run: command, spec, map,
    ``extra``, prec and seed."""
    spec = _spec_from_args(args)
    family = _FAMILY.get(args.command)
    if family is not None and not isinstance(spec, family):
        raise ValueError(f"{args.command} takes a family-{family.__name__[0]} spec")
    if args.command == "corollary" and not spec.is_binary():
        raise ValueError("corollary chain needs a binary P-spec")
    sp = _specmap(args, spec.alphabet)
    _echo(args, out, args.command, spec=f"'{_spec_echo(spec)}'", map=str(sp), **extra)
    return spec, sp


# -- command implementations ---------------------------------------------


def cmd_gen(args, out) -> int:
    spec = _spec_from_args(args)
    _echo(args, out, "gen", spec=f"'{_spec_echo(spec)}'", len=args.len)
    word = p_prefix(spec, args.len) if isinstance(spec, PSpec) else g_prefix(spec, args.len)
    print(word, file=out)
    return 0


def _require_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def cmd_sigma(args, out) -> int:
    _require_nonnegative("count", args.count)
    _echo(args, out, "sigma", word=args.word, inverse=args.inverse, count=args.count)
    word = args.word
    for _ in range(args.count):
        word = sigma_inv_word(word) if args.inverse else sigma_word(word)
    print(word, file=out)
    return 0


def cmd_cf(args, out) -> int:
    if not args.word:
        raise ValueError("--word is required")
    sp = _specmap(args, set(args.word))
    _echo(args, out, "cf", word=args.word, map=str(sp))
    try:
        series = cf_series(args.word, sp, args.prec)
    except ValueError:
        # short words still have an exact convergent value
        series = convergent_series(args.word, sp, args.prec)
    print(series, file=out)
    return 0


def cmd_tower_trace(args, out) -> int:
    _require_nonnegative("steps", args.steps)
    spec, sp = _spec_prologue(args, out, steps=args.steps)
    if isinstance(spec, PSpec):
        tower = p_tower(spec, sp, args.prec)
        one = LaurentSeries.one(args.prec)
        for _ in range(args.steps):
            tower.advance()
            j = tower.step
            vd = tower.ds[j].known_zero_below()
            vl = (tower.Ls[j] + one).known_zero_below()
            print(f"step={j} val(d)={vd} val(L-1)={vl}", file=out)
    else:
        try:
            lim = g_limits(spec, sp, args.prec)
        except DegeneratePeriodic as exc:
            print(exc, file=out)
            return 0
        one = LaurentSeries.one(args.prec)
        d_gen = lim.quants.d
        for i in range(min(args.steps, len(lim.Ls) - 1)):
            vd = d_gen.known_zero_below()
            vl = (lim.Ls[i + 1] + one).known_zero_below()
            print(f"step={i + 1} val(d)={vd} val(L-1)={vl}", file=out)
            d_gen = d_gen.pow(1 << lim.quants.k)
    return 0


def cmd_identities(args, out) -> int:
    single = {
        "tower-expansion": lambda: check_tower_expansion(5, args.trials, args.m, args.seed),
        "period-power-shift": lambda: check_period_power_shift(2, 3, args.trials, args.m, args.seed),
        "tail-equations": lambda: check_tail_equations(2, 3, args.trials, args.m, args.seed),
        "pair-products": lambda: check_pair_products(args.trials, args.m, args.seed),
        "closed-form": lambda: check_closed_form("101", args.trials, args.m, args.seed),
        "generation-relations": lambda: check_generation_relations(
            TOWER_WORDS[0], 3, args.trials, args.m, args.seed),
        "valuation-bounds": lambda: check_valuation_bounds(
            pspec=PSpec("", "10"), gspec=GSpec("0", "1", "11"), prec=args.prec),
    }
    if args.check not in (None, "all", *single):
        raise ValueError(f"unknown identity check {args.check!r}")
    _echo(args, out, "identities", check=args.check or "all", trials=args.trials, m=args.m)
    if args.check in (None, "all"):
        reports = run_identity_suite(
            trials=args.trials, m=args.m, seed=args.seed,
            max_word_len=args.max_word_len, prec=args.prec,
        )
    else:
        reports = [single[args.check]()]
    failed = False
    for rep in reports:
        print(rep.line(), file=out)
        if args.verbose:
            for line in rep.measurements:
                print(f"  {line}", file=out)
        failed = failed or not rep.passed
    return 1 if failed else 0


def cmd_relation(args, out) -> int:
    degz = {} if args.degz is None else {"degz": args.degz}
    if args.num or args.den:
        if not (args.num and args.den):
            raise ValueError("--num and --den go together")
        try:
            num, den = Gf2Poly.parse(args.num), Gf2Poly.parse(args.den)
            phi = LaurentSeries.from_rational(num, den, args.prec)
        except ZeroDivisionError as exc:
            raise ValueError(str(exc)) from None
        _echo(args, out, "relation", num=args.num, den=args.den, degx=args.degx, **degz)
        rel = find_relation(phi, args.degx, args.degz)
        if rel is None:
            print("relation none", file=out)
            return 1
        print(rel.render(), file=out)
        print(rel.summary(phi.prec), file=out)
        return 0
    spec, sp = _spec_prologue(args, out, degx=args.degx, **degz)
    phi_fn, first_val = spec_series(spec, sp)
    search = search_relation(phi_fn, args.degx, args.prec, sp.max_degree, first_val, degz=args.degz)
    if search.relation is None:
        print(search.report_line(), file=out)
        return 1
    print(search.relation.render(), file=out)
    print(search.report_line(), file=out)
    return 0


def _print_report(report, out) -> int:
    for line in report.all_lines():
        print(line, file=out)
    return 0 if report.passed else 1


def cmd_theorem(args, out) -> int:
    """theorem1, theorem2 and corollary: the driver's report on the spec."""
    if args.command == "corollary":
        spec, sp = _spec_prologue(args, out, k=args.k)
        return _print_report(check_corollary_chain(spec, sp, args.k, args.prec), out)
    spec, sp = _spec_prologue(args, out)
    check = check_theorem_p if isinstance(spec, PSpec) else check_theorem_g
    return _print_report(check(spec, sp, args.prec), out)


def cmd_explore(args, out) -> int:
    _echo(args, out, "explore-sigma-inv", degx=args.degx, degz=args.degz)
    return _print_report(explore_inverse_sigma(args.degx, args.degz, args.prec), out)


# -- parser ------------------------------------------------------------------


def _add_spec_flags(sub) -> None:
    sub.add_argument("--spec", help="spec text form, e.g. 'P w0= eps=10'")
    sub.add_argument("--family", choices=["P", "G"])
    sub.add_argument("--w0", default=None)
    sub.add_argument("--eps", default=None)
    sub.add_argument("--u0", default=None)
    sub.add_argument("--v0", default=None)
    sub.add_argument("--ups", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cf2",
        description="Exact continued fractions over GF(2)((1/z)): generators,"
        " matrix towers, identity checks, algebraic-relation search.",
    )
    parser.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, prec_min=1):
        p.add_argument("--prec", type=int, default=512)
        p.add_argument("--seed", type=lambda v: int(v, 0), default=1)
        p.set_defaults(prec_min=prec_min)

    p = sub.add_parser("gen", help="print a prefix of a family word")
    _add_spec_flags(p)
    p.add_argument("--len", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("sigma", help="prefix-sum operator (or its inverse)")
    p.add_argument("--word", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--count", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser(
        "cf",
        help="continued-fraction series of a word (short words expand their"
        " exact value; long words are read as a prefix of an infinite one)",
    )
    p.add_argument("--word", required=True)
    p.add_argument("--map", default=None)
    common(p)
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("tower-trace", help="per-step tower valuations")
    _add_spec_flags(p)
    p.add_argument("--map", default=None)
    p.add_argument("--steps", type=int, default=8)
    common(p)
    p.set_defaults(fn=cmd_tower_trace)

    p = sub.add_parser("identities", help="randomized identity suite")
    p.add_argument("--all", action="store_true")
    p.add_argument("--check", default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--max-word-len", type=int, default=8)
    p.add_argument("--verbose", action="store_true")
    common(p, prec_min=64)
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("relation", help="algebraic-relation search")
    _add_spec_flags(p)
    p.add_argument("--num", default=None)
    p.add_argument("--den", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--degx", type=int, required=True)
    p.add_argument("--degz", type=int, default=None)
    common(p, prec_min=64)
    p.set_defaults(fn=cmd_relation)

    p = sub.add_parser("theorem1", help="family-P degree bound check")
    _add_spec_flags(p)
    p.add_argument("--map", default=None)
    common(p, prec_min=64)
    p.set_defaults(fn=cmd_theorem, family="P")

    p = sub.add_parser("theorem2", help="family-G degree bound check")
    _add_spec_flags(p)
    p.add_argument("--map", default=None)
    common(p, prec_min=64)
    p.set_defaults(fn=cmd_theorem, family="G")

    p = sub.add_parser("corollary", help="iterated prefix-sum chain check")
    _add_spec_flags(p)
    p.add_argument("--map", default=None)
    p.add_argument("--k", type=int, default=1)
    common(p, prec_min=64)
    p.set_defaults(fn=cmd_theorem, family="P")

    p = sub.add_parser("explore-sigma-inv", help="exploratory search, no claim")
    p.add_argument("--degx", type=int, default=8)
    p.add_argument("--degz", type=int, default=64)
    common(p, prec_min=64)
    p.set_defaults(fn=cmd_explore)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.prec = _check_prec(args.prec, getattr(args, "prec_min", 1))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = sys.stdout
    close = None
    if args.out:
        out = close = open(args.out, "w")
    try:
        return args.fn(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClaimFailed as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 1
    finally:
        if close is not None:
            close.close()


if __name__ == "__main__":
    sys.exit(main())
