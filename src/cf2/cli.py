"""Command-line front end.

Commands map one-to-one onto the library: gen, sigma, cf, tower-trace,
identities, relation, theorem1, theorem2, corollary, explore-sigma-inv.
Every run echoes a config line sufficient to reproduce it; output is
byte-identical for identical (command, seed, prec).  Exit codes: 0 on
success, 1 on a failed mathematical check, 2 on usage errors, and
EXIT_PIPE when the reader closes stdout first (``cf2 gen ... | head``).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import fields
from itertools import chain, repeat

from .gf2poly import parse_poly
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
from .identities import identity_battery
from .words import (
    DegeneratePeriodic,
    GSpec,
    PSpec,
    _check_binary,
    g_prefix,
    p_prefix,
    sigma_inv_word,
    sigma_word,
)

# 128 + SIGPIPE: what a shell reports for a writer stopped by a closed pipe
EXIT_PIPE = 141


# each family's spec class; its dataclass fields are the spec's words, in
# the order of the text form, the --help flags and the config echo
_SPECS = {"P": PSpec, "G": GSpec}
# the spec family each theorem command takes: its word flags' family
# without --family, and checked before its map
_FAMILY = {"theorem1": PSpec, "theorem2": GSpec, "corollary": PSpec}


def parse_spec_text(text: str) -> PSpec | GSpec:
    """Parse the spec text form: `P w0=<word> eps=<word>` or
    `G u0=<word> v0=<word> ups=<bits>`."""
    parts = text.split()
    if not parts:
        raise ValueError("empty spec text")
    family, words = parts[0], {}
    for item in parts[1:]:
        if "=" not in item:
            raise ValueError(f"bad spec field {item!r}")
        key, value = item.split("=", 1)
        words[key] = value
    if family not in _SPECS:
        raise ValueError(f"unknown family {family!r}")
    cls = _SPECS[family]
    return cls(*(words.get(f.name, "") for f in fields(cls)))


def _spec_from_args(args) -> PSpec | GSpec:
    if args.spec:
        spec = parse_spec_text(args.spec)
        if args.family is not None and not isinstance(spec, _SPECS[args.family]):
            raise ValueError(f"--family {args.family} contradicts the spec '{_spec_echo(spec)}'")
    else:
        # the given family, the command's own, or the first family whose
        # period word, its last field, is given
        cls = _SPECS[args.family] if args.family else _FAMILY.get(args.command)
        if cls is None:
            cls = next((c for c in _SPECS.values() if getattr(args, fields(c)[-1].name) is not None), None)
        if cls is None:
            raise ValueError("give --family with its word flags, or --spec")
        spec = cls(*(getattr(args, f.name) or "" for f in fields(cls)))
    # a word flag the spec is not built from is refused, not dropped
    unread = [f"--{f.name}" for cls in _SPECS.values() for f in fields(cls)
              if getattr(args, f.name) is not None and (args.spec or f not in fields(spec))]
    if unread:
        raise ValueError(f"{' '.join(unread)} not read by the spec '{_spec_echo(spec)}'")
    return spec


def _specmap(args, alphabet) -> SpecMap:
    if getattr(args, "map", None):
        sp = SpecMap.parse(args.map)
    elif set(alphabet) <= {"0", "1"}:
        sp = SpecMap.binary_default()
    else:
        raise ValueError(
            f"specialization map required for alphabet {sorted(set(alphabet))}"
        )
    sp.check_covers(alphabet)
    return sp


# least value of each integer flag, refused before the command echoes its
# config line; prec's least value is the command's own prec_min
_LEAST = {"count": 0, "steps": 0, "len": 0, "m": 2, "degx": 1, "degz": 0}


def _check_bounds(args) -> None:
    for name, least in {"prec": args.prec_min, **_LEAST}.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            rule = "nonnegative" if least == 0 else f"at least {least}"
            raise ValueError(f"{name} must be {rule}, got {value}")


def _echo(args, out, command: str, **extra) -> None:
    # the line ends with prec and seed unless ``extra`` leaves them out as None
    shown = {"command": command, **extra}
    shown.setdefault("prec", args.prec)
    shown.setdefault("seed", f"{args.seed:#x}")
    print("config " + " ".join(f"{k}={v}" for k, v in shown.items() if v is not None), file=out)


def _spec_echo(spec) -> str:
    words = (f"{f.name}={getattr(spec, f.name)}" for f in fields(spec))
    return " ".join([type(spec).__name__[0], *words])


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


def cmd_sigma(args, out) -> int:
    word = args.word
    _check_binary(word)
    for _ in range(args.count):
        word = sigma_inv_word(word) if args.inverse else sigma_word(word)
    _echo(args, out, "sigma", word=args.word, inverse=args.inverse, count=args.count)
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
    spec, sp = _spec_prologue(args, out, steps=args.steps)
    if isinstance(spec, PSpec):
        tower = p_tower(spec, sp, args.prec)
        for _ in range(args.steps):
            tower.advance()
        rows = zip(map(LaurentSeries.known_zero_below, tower.ds[1:]), tower.Ls[1:])
    else:
        try:
            lim = g_limits(spec, sp, args.prec)
        except DegeneratePeriodic as exc:
            print(exc, file=out)
            return 0
        # generation i's determinant is d^(2^(k i)), so its valuation is
        # val(d) 2^(k i); past convergence L stays at its limit
        v, k = lim.quants.d.known_zero_below(), lim.quants.k
        rows = zip((v << (k * i) for i in range(args.steps)), chain(lim.Ls[1:], repeat(lim.Ls[-1])))
    one = LaurentSeries.one(args.prec)
    for step, (vd, L) in enumerate(rows, 1):
        print(f"step={step} val(d)={vd} val(L-1)={(L + one).known_zero_below()}", file=out)
    return 0


def cmd_identities(args, out) -> int:
    battery = identity_battery(args.trials, args.m, args.seed, args.max_word_len, prec=args.prec)
    if args.check not in (None, "all", *dict(battery)):
        raise ValueError(f"unknown identity check {args.check!r}")
    if args.all and args.check not in (None, "all"):
        raise ValueError(f"--all runs every check, not only --check {args.check}")
    runs = [(name, run) for name, run in battery if args.check in (None, "all", name)]
    # echo what the selected checks read: only valuation-bounds reads prec, and it draws nothing
    names = {name for name, _ in runs}
    drawn = {"trials": args.trials, "m": args.m} if names != {"valuation-bounds"} else {"seed": None}
    swept = {"max_word_len": args.max_word_len} if "closed-form" in names else {}
    prec = {} if "valuation-bounds" in names else {"prec": None}
    _echo(args, out, "identities", check=args.check or "all", **drawn, **swept, **prec)
    reports = [run() for _, run in runs]
    failed = False
    for rep in reports:
        print(rep.line(), file=out)
        if args.verbose:
            for line in rep.measurements:
                print(f"  {line}", file=out)
        failed = failed or not rep.passed
    return 1 if failed else 0


def cmd_relation(args, out) -> int:
    if args.num or args.den:
        if not (args.num and args.den):
            raise ValueError("--num and --den go together")
        spec_flags = ["spec", "family", "map", *(f.name for cls in _SPECS.values() for f in fields(cls))]
        unread = [f"--{name}" for name in spec_flags if getattr(args, name) is not None]
        if unread:
            raise ValueError(f"{' '.join(unread)} not read with --num and --den")
        try:
            num, den = parse_poly(args.num), parse_poly(args.den)
            phi = LaurentSeries.from_rational(num, den, args.prec)
        except ZeroDivisionError as exc:
            raise ValueError(str(exc)) from None
        _echo(args, out, "relation", num=args.num, den=args.den, degx=args.degx, degz=args.degz)
        rel = find_relation(phi, args.degx, args.degz)
        if rel is None:
            print("relation none", file=out)
            return 1
        print(rel.render(), file=out)
        print(rel.summary(rel.evaluate(phi).known_zero_below(), phi.prec), file=out)
        return 0
    spec, sp = _spec_prologue(args, out, degx=args.degx, degz=args.degz)
    phi_fn, first_val = spec_series(spec, sp)
    search = search_relation(phi_fn, args.degx, args.prec, sp.max_degree, first_val, degz=args.degz)
    if search.verified:
        print(search.relation.render(), file=out)
    print(search.report_line(), file=out)
    return 0 if search.verified else 1


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
    sub.add_argument("--family", choices=list(_SPECS))
    for cls in _SPECS.values():
        for f in fields(cls):
            sub.add_argument(f"--{f.name}")


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

    for name, family in (("theorem1", "P"), ("theorem2", "G")):
        p = sub.add_parser(name, help=f"family-{family} degree bound check")
        _add_spec_flags(p)
        p.add_argument("--map", default=None)
        common(p, prec_min=64)
        p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("corollary", help="iterated prefix-sum chain check")
    _add_spec_flags(p)
    p.add_argument("--map", default=None)
    p.add_argument("--k", type=int, default=1)
    common(p, prec_min=64)
    p.set_defaults(fn=cmd_theorem)

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
    # --out is written only when the command printed something, so a
    # rejected input leaves an existing file as it was
    out = io.StringIO() if args.out else sys.stdout
    try:
        _check_bounds(args)
        code = args.fn(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # later writes, and the flush at exit, go nowhere instead of raising
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return EXIT_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClaimFailed as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.out and out.getvalue():
            with open(args.out, "w") as f:
                f.write(out.getvalue())


if __name__ == "__main__":
    sys.exit(main())
