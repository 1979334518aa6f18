"""Layer bench for cf2's GF(2)[z] and Laurent-series kernels and its
relation search.

Times ``clmul`` (dense n x n, unbalanced n x n/8, and the square r^2 of
an n/2-bit r times a dense n-bit operand), ``clsq``,
``cldivmod`` (2n by n bits), ``clgcd`` (n and n bits, one ``cldivmod``
per remainder step), ``laurent._inv_mask`` and the
``LaurentSeries`` product, inverse and cube at 1k, 4k, 16k and 64k bits;
``LaurentSeries.div`` of a dense 512- and 16k-bit series by the letters
z+1, z^3+z+1 and z^4+z^3+z^2+z+1 (2, 3 and 5 terms, as the P tower
holds them);
``gf2poly.bit_reverse`` at 16k bits, the 2^8-th power of a 16k-bit series,
the family-P oracle ``p_cf_series`` of period 110 at precision 16384 and
65536, of w0=10, eps=10 (tower-limits' p_limits3) at 16384 and of P9
(eps=110100000) at 264768, the precision of its verdict series; the
convergent ``towers.convergent_pair`` of the 8197-letter prefix that the
period-110 oracle stops at for 16384 (the oracle itself reads that
convergent from the word's levels), ``LaurentSeries.from_rational`` of its
8192-letter convergent at precision 16384, the tower limits ``p_limits`` of w0=10, eps=110 and ``g_limits``
of u0=ab, v0=ba, ups=11 (a=z, b=z+1) at precision 16384, for that P spec
``PLimits.residual_h0`` and for that G spec its ``GQuantities`` over series
and ``GLimits.residual_h``, the cube of a
three-term series at valuation and precision ~10^8; ``Gf2m.mul``,
``Mat2.mul`` and ``Mat2.square`` over GF(2^16) (a dense operand and one
with a zero entry), ``Mat2.mul`` over series at 4k bits and
``Mat2.square`` at 16k bits, ``pair_tower`` over GF(2^16) along an 8-bit
swap word, ``check_closed_form`` at 10 trials given the 510 driver words
up to length 8 (each trial checks the induction step for both bits and
walks one drawn word) and ``check_generation_relations`` of the word 1001 over 3
generations at 10 trials, with the field tables and operands built
before the first timed call; and ``find_relation`` on the degree
ladder's theorem-1 series P3-P6 (period words 110, 1101, 11010, 110100)
with degX 2^n and degZ 2^n + 8, each series at the larger of 512 and that
shape's ``certifying_precision``, and on the explore search (degX 16,
degZ 256, at its certifying precision 4416), and ``sigma_inv_word`` of the
8849-letter period-doubling prefix that search's verify round reads;
``_powers`` 1, phi, ..., phi^64 of P6's series at that precision, and
``AlgRelation.evaluate`` of the relation found there on P6's series at
twice it; ``theorems.p_relation``,
theorem 1's exact relation over GF(2)(z), for P6-P9 (P7's word 1101000,
P8's 11010000, P9's 110100000), the whole ``check_theorem_p`` verdict
for P6-P8 at prec 512, and the exact tail check it runs,
``identities.tail_mismatch`` over one period of ``towers.exact_p_tower``
for P6 (eps=110100); on the corollary chain's fourth spec (eps=10,
start words of 128 letters, binary map) the whole ``check_theorem_g``
verdict at prec 512, the exact generation check it runs,
``identities.generation_mismatch`` over generations 0 and 1 of
``towers.exact_g_quantities``, its start matrices as
``towers._word_product`` and its start pair (m1, w1) over series at prec
512 (``towers.g_start_pair``), and the whole corollary chain
``check_corollary_chain`` (eps=10, k=4, prec 512) that ends on that
spec; the whole ``check_theorem_g`` verdict on the
all-zero swap period ups=0 with u0 the first 1, 128 and 600 letters of
the period-doubling word and v0=1 at prec 512 (binary map);
``relations.norm_relation``, theorem 2's exact relation over GF(2)(z),
from the affine form of the G ladder's rungs G2, G4, G5 and G6 (u0=a,
v0=b, ups 11, 1001, 10001, 100001, a=z, b=z+1; a tree without it skips
these rows), and the whole ``check_theorem_g`` verdict on G5 at prec 512;
one ``search_relation`` round, on a tree whose
search takes (phi_fn, degX, prec, leading_val, degZ) (a tree with the
doubling search skips these rows): P6 at prec 8873 to degZ 72 (binary
map), where it finds the relation, and two rounds whose candidate is a
precision artifact under 0=z^2, 1=z+1: P4 (w0=00, eps=0001) at 1241 to
degZ 68 and P5 (w0=00, eps=00001) at 4489 to degZ 132.  A rep is the mean call time in a batch of calls
(at least 5 ms per batch) on seeded or fixed operands.  The raw time of a
case is its least rep over rounds x reps.  Its scaled time reads the
reps at a nominal machine speed: ``speed.sample(1)`` (``perfbench/speed.py``)
runs a reference loop before the first rep and after each, a rep is
multiplied by the mean factor of the two samples around it, a round keeps
its least scaled rep, and the scaled time is the median over rounds.  On
two copies of one tree that median spread least of the estimators tried
(the least raw rep, or the least or median scaled round with one factor
per case).  It needs only the standard library.
``--quick`` runs one round and drops every case whose first call takes
over 1 s.

    python3 bench/bench.py --out BENCH_8.json
    python3 bench/bench.py --quick --src parent=../parent/src --src change=src

Each ``--src [LABEL=]DIR`` (default: this checkout's ``src``) is timed in
its own fresh process per round, alternating which goes first, so two
versions of cf2 can be compared on one machine in one run.  Give two
copies of one tree (``--src a=src --src b=/tmp/copy/src``) to see how far
identical code reads apart: labels whose ``cf2`` sources hash alike are
paired, and the record states the least, median and greatest ratio of
their scaled times over all cases.  The JSON record holds the Python
version, ``nproc``, the CPU model and, per label, the source hash and
the scaled and raw seconds of every case.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import speed  # noqa: E402  (perfbench/speed.py: the nominal-speed meter)

SIZES = {"1k": 1 << 10, "4k": 1 << 12, "16k": 1 << 14, "64k": 1 << 16}
REPS = 3  # timed batches of each case per round
BATCH_S = 0.005  # calls per batch: enough to fill this many seconds
QUICK_MAX_S = 1.0  # --quick drops a case whose first call takes longer
LADDER = {3: "110", 4: "1101", 5: "11010", 6: "110100"}  # P rung -> period word
EXACT_LADDER = {6: "110100", 7: "1101000", 8: "11010000", 9: "110100000"}  # rungs of the exact rows
G_LADDER = {2: "11", 4: "1001", 5: "10001", 6: "100001"}  # G rung -> swap period of the exact G rows
P9_ORACLE_PREC = 264768  # the precision of P9's verdict series, the cf_series.P9 row
EXPLORE = (16, 256)  # degX, degZ of the explore search
EXPLORE_PREFIX = 8849  # letters of the prefix the explore search's verify round sums
# one search round each: name -> (w0, eps, map or None for the binary one, degX, prec, degZ)
SEARCH_ROUNDS = {
    "P6": ("", "110100", None, 64, 8873, 72),
    "P4.artifact": ("00", "0001", "0=z^2,1=z+1", 16, 1241, 68),
    "P5.artifact": ("00", "00001", "0=z^2,1=z+1", 32, 4489, 132),
}
PERIODIC_LENGTHS = (1, 128, 600)  # start-word lengths of the all-zero swap period rows


def relation_cases(relations, towers, words):
    """(name, function, args) for the relation-search rows: each series is
    built here, at the larger of 512 and its shape's certifying precision."""
    spb = towers.SpecMap.binary_default()
    out = []
    for n, eps in LADDER.items():
        degx = 1 << n
        prec = max(512, relations.certifying_precision(degx, degx + 8, -1))
        phi = towers.p_cf_series(words.PSpec("", eps), spb, prec)
        out.append((f"find_relation.P{n}", relations.find_relation, (phi, degx, degx + 8)))
    # the top rung's powers 0..degX, and its relation re-verified at 2 * prec
    out.append((f"powers.P{n}", relations._powers, (phi, range(degx + 1))))
    phi2 = towers.p_cf_series(words.PSpec("", eps), spb, 2 * prec)
    rel = relations.find_relation(phi, degx, degx + 8)
    out.append((f"evaluate.P{n}", relations.AlgRelation.evaluate, (rel, phi2)))
    degx, degz = EXPLORE
    period_doubling = words.PSpec("", "10")
    phi = towers.cf_series_of(
        lambda length: words.sigma_inv_word(words.p_prefix(period_doubling, length + 1)),
        spb, max(512, relations.certifying_precision(degx, degz, -1)),
    )
    out.append(("find_relation.explore", relations.find_relation, (phi, degx, degz)))
    prefix = words.p_prefix(period_doubling, EXPLORE_PREFIX)
    return out + [("sigma_inv_word.9k", words.sigma_inv_word, (prefix,))]


def exact_cases(identities, theorems, towers, words):
    """(name, function, args) for the exact theorem-1 rows: the relation from
    the letters, the whole verdict, and the exact tail check of P6."""
    spb = towers.SpecMap.binary_default()
    out = [(f"p_relation.P{n}", theorems.p_relation, (words.PSpec("", eps), spb)) for n, eps in EXACT_LADDER.items()]
    out += [
        (f"check_theorem_p.P{n}", theorems.check_theorem_p, (words.PSpec("", EXACT_LADDER[n]), spb, 512))
        for n in (6, 7, 8)
    ]
    p6 = words.PSpec("", EXACT_LADDER[6])
    return out + [("tail_mismatch.exact.P6", lambda: identities.tail_mismatch(towers.exact_p_tower(p6, spb), 1), ())]


def tail_step_cases(identities, theorems, towers, words):
    """(name, function, args) for the family-G rows on the corollary chain's
    fourth spec and the whole chain."""
    period_doubling = words.PSpec("", "10")
    spec = words.p_to_g(period_doubling)
    for _ in range(3):
        spec = words.g_sigma(spec)
    norm = words.g_normalize(spec)
    spb = towers.SpecMap.binary_default()
    starts = (norm.spec.u0, norm.spec.v0)
    exact = lambda: identities.generation_mismatch(towers.exact_g_quantities(norm, spb), 1)  # noqa: E731
    return [
        ("g_start_pair.series.G128", towers.g_start_pair, (norm.spec, spb, 512)),
        ("check_corollary_chain.k4", theorems.check_corollary_chain, (period_doubling, spb, 4, 512)),
        ("_word_product.G128", lambda: [towers._word_product(w, spb) for w in starts], ()),
        ("generation_mismatch.exact.G128", exact, ()),
        ("check_theorem_g.G128", theorems.check_theorem_g, (spec, spb, 512)),
    ]


def g_relation_cases(relations, theorems, towers, words):
    """(name, function, args) for the exact theorem-2 rows on the G ladder
    (u0=a, v0=b, a=z, b=z+1): ``relations.norm_relation`` from each rung's
    affine form over GF(2)(z), on a tree that has it, and the whole G5
    verdict at prec 512."""
    spab = towers.SpecMap.parse("a=z,b=z+1")
    out = []
    if hasattr(relations, "norm_relation"):
        for n, ups in G_LADDER.items():
            q = towers.exact_g_quantities(words.g_normalize(words.GSpec("a", "b", ups)), spab)
            out.append((f"norm_relation.G{n}", relations.norm_relation, q.affine_form()))
    return out + [("check_theorem_g.G5", theorems.check_theorem_g, (words.GSpec("a", "b", G_LADDER[5]), spab, 512))]


def periodic_cases(theorems, towers, words):
    """(name, function, args) for theorem 2 on an all-zero swap period, whose
    word is its start word repeated: u0 the first L letters of the
    period-doubling word, v0 = 1, binary map, prec 512."""
    spb = towers.SpecMap.binary_default()
    return [
        (f"check_theorem_g.ups0.L{n}", theorems.check_theorem_g,
         (words.GSpec(words.p_prefix(words.PSpec("", "10"), n), "1", "0"), spb, 512))
        for n in PERIODIC_LENGTHS
    ]


def search_cases(theorems, towers, words):
    """(name, function, args) for the one-round search rows: each call builds
    its spec's series at twice the round's precision, as a verdict does.  A
    tree whose ``search_relation`` still doubles its precision skips them."""
    if "max_poly_degree" in inspect.signature(theorems.search_relation).parameters:
        return []
    out = []
    for name, (w0, eps, sp, degx, prec, degz) in SEARCH_ROUNDS.items():
        sp = towers.SpecMap.parse(sp) if sp else towers.SpecMap.binary_default()
        phi_fn, val = theorems.spec_series(words.PSpec(w0, eps), sp)
        out.append((f"search_relation.{name}", theorems.search_relation, (phi_fn, degx, prec, val, degz)))
    return out


def field_cases(gf2m, identities, laurent, mat2, towers):
    """(name, function, args) for the GF(2^16) and series matrix rows."""
    F = gf2m.field(16)
    rng = random.Random(16)
    dense = [mat2.Mat2(F, *(F.sample_invertible(rng) for _ in range(4))) for _ in range(2)]
    ix = F.inv(F.sample_invertible(rng))
    letter = mat2.Mat2(F, F.one, ix, ix, F.zero)

    def series_mat(n):
        S = mat2.SeriesField(n)
        return mat2.Mat2(S, *(laurent.LaurentSeries(0, rng.getrandbits(n) | 1, n) for _ in range(4)))

    return [
        ("Gf2m.mul.gf16", F.mul, (dense[0].a, dense[0].b)),
        ("Mat2.mul.gf16.dense", mat2.Mat2.mul, tuple(dense)),
        ("Mat2.mul.gf16.zero_entry", mat2.Mat2.mul, (dense[0], letter)),
        ("Mat2.square.gf16.dense", mat2.Mat2.square, (dense[0],)),
        ("Mat2.square.gf16.zero_entry", mat2.Mat2.square, (letter,)),
        ("Mat2.mul.series.4k", mat2.Mat2.mul, (series_mat(SIZES["4k"]), series_mat(SIZES["4k"]))),
        ("Mat2.square.series.16k", mat2.Mat2.square, (series_mat(SIZES["16k"]),)),
        ("pair_tower.gf16.8bit", towers.pair_tower, (*dense, "10110100")),
        ("check_closed_form.gf16.510x10", identities.check_closed_form,
         (list(identities.all_driver_words(8)), 10, 16, 1)),
        ("check_generation_relations.gf16", identities.check_generation_relations, ("1001", 3, 10, 16, 1)),
    ]


def cases(gf2poly, laurent):
    """(name, function, args) for every timed kernel call."""
    out = []
    for label, n in SIZES.items():
        rng = random.Random(n)
        a = rng.getrandbits(n) | (1 << (n - 1)) | 1
        b = rng.getrandbits(n) | (1 << (n - 1)) | 1
        short = rng.getrandbits(n // 8) | (1 << (n // 8 - 1))
        wide = rng.getrandbits(2 * n) | (1 << (2 * n - 1))
        square = gf2poly.clsq(rng.getrandbits(n // 2) | (1 << (n // 2 - 1)))
        sa = laurent.LaurentSeries(0, a, n)
        sb = laurent.LaurentSeries(0, b, n)
        out += [
            (f"clmul.dense.{label}", gf2poly.clmul, (a, b)),
            (f"clmul.unbalanced.{label}", gf2poly.clmul, (a, short)),
            (f"clmul.square.{label}", gf2poly.clmul, (square, b)),
            (f"clsq.{label}", gf2poly.clsq, (a,)),
            (f"cldivmod.{label}", gf2poly.cldivmod, (wide, b)),
            (f"clgcd.{label}", gf2poly.clgcd, (a, b)),
            (f"laurent._inv_mask.{label}", laurent._inv_mask, (a, n)),
            (f"LaurentSeries.__mul__.{label}", laurent.LaurentSeries.__mul__, (sa, sb)),
            (f"LaurentSeries.inv.{label}", laurent.LaurentSeries.inv, (sa,)),
            (f"LaurentSeries.pow.{label}", laurent.LaurentSeries.pow, (sa, 3)),
        ]
    for label, n in (("512", 512), ("16k", SIZES["16k"])):
        dense = laurent.LaurentSeries(0, random.Random(n).getrandbits(n) | 1, n)
        for weight, e in ((2, 0b11), (3, 0b1011), (5, 0b11111)):
            d = e.bit_length() - 1
            letter = laurent.LaurentSeries(-d, gf2poly.bit_reverse(e, d + 1), n - 2 * d)
            out.append((f"LaurentSeries.div.w{weight}.{label}", laurent.LaurentSeries.div, (dense, letter)))
    n = SIZES["16k"]
    poly = random.Random(n).getrandbits(n) | (1 << (n - 1))
    sa = laurent.LaurentSeries(0, poly, n)
    huge = laurent.LaurentSeries(10**8, 0b1011, 10**8 + 64)
    return out + [
        ("bit_reverse.16k", gf2poly.bit_reverse, (poly, n)),
        ("LaurentSeries.pow256.16k", laurent.LaurentSeries.pow, (sa, 1 << 8)),
        ("LaurentSeries.pow.hugeprec", laurent.LaurentSeries.pow, (huge, 3)),
    ]


def oracle_cases(laurent, towers, words):
    """(name, function, args) for the convergent-oracle and tower-limits rows."""
    spb = towers.SpecMap.binary_default()
    num, den = towers.convergent_pair(words.p_prefix(words.PSpec("", "110"), SIZES["16k"] // 2), spb)
    spab = towers.SpecMap.parse("a=z,b=z+1")
    gspec = words.GSpec("ab", "ba", "11")
    norm = words.g_normalize(gspec)
    F, m1, w1 = towers.g_start_pair(norm.spec, spab, SIZES["16k"])
    p_lim = towers.p_limits(words.PSpec("10", "110"), spb, SIZES["16k"])
    return [
        ("cf_series.16k", towers.p_cf_series, (words.PSpec("", "110"), spb, SIZES["16k"])),
        ("cf_series.64k", towers.p_cf_series, (words.PSpec("", "110"), spb, SIZES["64k"])),
        ("cf_series.w0=10.16k", towers.p_cf_series, (words.PSpec("10", "10"), spb, SIZES["16k"])),
        ("cf_series.P9", towers.p_cf_series, (words.PSpec("", EXACT_LADDER[9]), spb, P9_ORACLE_PREC)),
        ("convergent_pair.8197", towers.convergent_pair, (words.p_prefix(words.PSpec("", "110"), 8197), spb)),
        ("from_rational.16k", laurent.LaurentSeries.from_rational, (num, den, SIZES["16k"])),
        ("p_limits.16k", towers.p_limits, (words.PSpec("10", "110"), spb, SIZES["16k"])),
        ("PLimits.residual_h0.16k", towers.PLimits.residual_h0, (p_lim,)),
        ("g_limits.16k", towers.g_limits, (gspec, spab, SIZES["16k"])),
        ("GQuantities.series.16k", towers.GQuantities, (F, m1, w1, norm.s)),
        ("GLimits.residual_h.16k", towers.GLimits.residual_h, (towers.g_limits(gspec, spab, SIZES["16k"]),)),
    ]


def worker(src: str, quick: bool) -> None:
    """Time every case REPS times against ``src`` and print, per case, the
    least rep and the least rep scaled to nominal speed."""
    sys.path.insert(0, src)
    from cf2 import gf2m, gf2poly, identities, laurent, mat2, relations, theorems, towers, words

    todo = cases(gf2poly, laurent) + oracle_cases(laurent, towers, words)
    todo += field_cases(gf2m, identities, laurent, mat2, towers)
    best = {}
    todo += relation_cases(relations, towers, words) + search_cases(theorems, towers, words)
    todo += exact_cases(identities, theorems, towers, words) + tail_step_cases(identities, theorems, towers, words)
    todo += periodic_cases(theorems, towers, words) + g_relation_cases(relations, theorems, towers, words)
    for name, fn, args in todo:
        t0 = time.perf_counter()
        fn(*args)
        first = time.perf_counter() - t0
        if quick and first > QUICK_MAX_S:
            continue
        number = max(1, int(BATCH_S / first))
        factors, times = [speed.sample(1)], []
        for _ in range(REPS):
            t0 = time.perf_counter()
            for _ in range(number):
                fn(*args)
            times.append((time.perf_counter() - t0) / number)
            factors.append(speed.sample(1))
        best[name] = min(times), min(t * (f0 + f1) / 2 for t, f0, f1 in zip(times, factors, factors[1:]))
    print(json.dumps(best))


def tree_sha(src: str) -> str:
    """sha256 over the names and bytes of a tree's ``cf2/*.py``."""
    h = hashlib.sha256()
    for path in sorted((Path(src) / "cf2").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spreads(scaled: dict, shas: dict) -> dict:
    """For each pair of labels over identical sources: the least, median
    and greatest ratio second/first of their scaled times over all cases."""
    out = {}
    for x, y in combinations(scaled, 2):
        if shas[x] != shas[y]:
            continue
        ratios = [scaled[y][name] / scaled[x][name] for name in scaled[x] if name in scaled[y]]
        if ratios:
            out[f"{y}/{x}"] = {
                "min": min(ratios), "median": statistics.median(ratios), "max": max(ratios), "cases": len(ratios),
            }
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", action="append", help="[LABEL=]DIR of a cf2 source tree (repeatable)")
    p.add_argument("--quick", action="store_true", help="one round instead of five, cases under 1 s only")
    p.add_argument("--out", help="write the JSON record to this file")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker, args.quick)
        return 0

    srcs = dict(s.split("=", 1) if "=" in s else (s, s) for s in args.src or [str(ROOT / "src")])
    rounds = 1 if args.quick else 5
    runs = {label: {} for label in srcs}  # label -> case -> [(raw, scaled) per round]
    for r in range(rounds):
        order = list(srcs) if r % 2 == 0 else list(srcs)[::-1]
        for label in order:
            done = subprocess.run(
                [sys.executable, __file__, "--worker", str(Path(srcs[label]).resolve())]
                + ["--quick"] * args.quick,
                capture_output=True, text=True, check=True,
            )
            for name, times in json.loads(done.stdout).items():
                runs[label].setdefault(name, []).append(times)
    raw = {label: {name: min(t[0] for t in ts) for name, ts in cases.items()} for label, cases in runs.items()}
    scaled = {
        label: {name: statistics.median(t[1] for t in ts) for name, ts in cases.items()}
        for label, cases in runs.items()
    }

    shas = {label: tree_sha(src) for label, src in srcs.items()}
    record = {
        "bench": "cf2 layer bench: median over rounds of the least rep (mean call time of a batch)"
        " scaled to nominal speed by perfbench/speed.py; raw_results: least unscaled rep",
        "batch_s": BATCH_S,
        "unit": "s",
        "rounds": rounds,
        "reps": REPS,
        "nominal_s": speed.NOMINAL_S,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "tree_sha": shas,
        "same_tree_spread": spreads(scaled, shas),
        "results": scaled,
        "raw_results": raw,
    }
    print("case (scaled)".ljust(32) + "".join(label[-24:].rjust(26) for label in srcs))
    for name in dict.fromkeys(name for label in srcs for name in scaled[label]):
        times = (scaled[label].get(name) for label in srcs)
        print(name.ljust(32) + "".join("-".rjust(26) if t is None else f"{t * 1e6:23.3f} us" for t in times))
    for pair, sp in record["same_tree_spread"].items():
        print(f"same tree {pair}: ratio min {sp['min']:.3f} median {sp['median']:.3f} max {sp['max']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
