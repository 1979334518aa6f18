"""Per-layer tracing of cf2 from outside the library.

A ``Tracer`` replaces chosen cf2 functions and methods with timing
wrappers while it is installed, and puts every original back when it is
removed.  A layer is the ``src/cf2`` module that defines the function.

Every wrapped call pushes a frame on one stack.  On return the frame's
self time (its duration minus the time of the wrapped calls it made) is
added to its name, whose first part is its layer.  The tracer's own cost
is charged to no layer.  The wrapper's bookkeeping is timed, and the
per-call cost its clocks cannot see (calling the wrapper, and calling
the function from inside it) comes from ``calibrate``, which times a
wrapped no-op against the bare one.  Both are taken out of the caller's
and the callee's times and summed as the tracer cost.  Coarse calls
(checkers, limits, oracles, searches) also leave a span record: id,
name, start, end, parent span and the benchmark op that caused it.  Hot
leaves (``clmul``, ``LaurentSeries`` and ``Gf2m`` arithmetic,
``Mat2.mul``, ...) run 10^6-10^7 times a pass, so for them only a count
and summed times per (function, calling function) are kept.

Counters that are not times are read from call arguments and return
values, never from inside the library; those derived from operand sizes
rather than measured are marked "computed" in ``METRIC_NOTES``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

from cf2 import gf2m, gf2poly, identities, laurent, mat2, relations, theorems, towers, words
from cf2 import cli  # noqa: F401  loaded so that its copies of wrapped names are patched too

def _mat2_mul_name(args) -> str:
    return "mat2.mul.gf2m" if isinstance(args[0].F, gf2m.Gf2m) else "mat2.mul.series"


def _clmul_note(tr, args, kwargs, result, own):
    a, b = args
    tr.add("gf2poly.clmul.work_bits", min(a.bit_count(), b.bit_count()) * max(a.bit_length(), b.bit_length()))


def _laurent_mul_note(tr, args, kwargs, result, own):
    a, b = args
    if a.mask and b.mask:
        tr.add("laurent.mul.window_bits", min(a.prec - a.val, b.prec - b.val))


def _find_relation_note(tr, args, kwargs, result, own):
    phi, degx, degz = args[:3]
    hit = result is not None and not isinstance(result, BaseException)
    tr.add("relations.find_relation.hit.self_s" if hit else "relations.find_relation.miss.self_s", own)
    tr.add("relations.hits", int(hit))
    tr.add("relations.columns", (degx + 1) * (degz + 1))
    # the search window: phi.prec rows, plus -val(phi) when phi has a pole
    tr.add("relations.rows", phi.prec - min(0, phi.val))
    if tr.parent_name() == "theorems.search_relation":
        tr.add("theorems.search_relation.degz_rounds", 1)


def _search_relation_note(tr, args, kwargs, result, own):
    if isinstance(result, theorems.RelationSearch):
        tr.add("theorems.search_relation.verified", int(result.verified))
        tr.add("theorems.search_relation.discovery_prec", result.discovery_prec)
        tr.add("theorems.search_relation.requested_prec", args[2])


def _identity_note(tr, args, kwargs, result, own):
    if isinstance(result, identities.IdentityReport):
        tr.add("identities.resamples", result.resamples)
        tr.add("identities.trials", result.trials)


def _p_limits_note(tr, args, kwargs, result, own):
    if isinstance(result, towers.PLimits):
        tr.add("towers.p_limits.steps", result.tower.step)


def _g_limits_note(tr, args, kwargs, result, own):
    if isinstance(result, towers.GLimits):
        tr.add("towers.g_limits.generations", len(result.Ls) - 1)


def _cf_series_note(tr, args, kwargs, result, own):
    if tr.parent_name() == "towers.cf_series_of":
        tr.add("towers.cf_series.attempts", 1)


# (owner, attribute, traced name, coarse, note).  Small helpers such as
# Gf2m.add or LaurentSeries.__add__ stay unwrapped: their time counts as
# self time of the wrapped caller.
TARGETS = [
    (gf2poly, "clmul", "gf2poly.clmul", False, _clmul_note),
    (gf2poly, "clsq", "gf2poly.clsq", False, None),
    (gf2poly, "cldivmod", "gf2poly.cldivmod", False, None),
    (gf2poly, "clmod", "gf2poly.clmod", False, None),
    (laurent.LaurentSeries, "__mul__", "laurent.mul", False, _laurent_mul_note),
    (laurent.LaurentSeries, "square", "laurent.square", False, None),
    (laurent.LaurentSeries, "inv", "laurent.inv", False, None),
    (laurent.LaurentSeries, "pow", "laurent.pow", False, None),
    (laurent.LaurentSeries, "mul_poly", "laurent.mul_poly", False, None),
    (laurent.LaurentSeries, "from_rational", "laurent.from_rational", False, None),
    (gf2m.Gf2m, "mul", "gf2m.mul", False, None),
    (gf2m.Gf2m, "square", "gf2m.square", False, None),
    (gf2m.Gf2m, "inv", "gf2m.inv", False, None),
    (gf2m.Gf2m, "pow", "gf2m.pow", False, None),
    (gf2m.Gf2m, "_build_tables", "gf2m.tables", True, None),
    (mat2.Mat2, "__init__", "mat2.new", False, None),
    (mat2.Mat2, "mul", _mat2_mul_name, False, None),
    (mat2.Mat2, "add", "mat2.add", False, None),
    (mat2.Mat2, "square", "mat2.square", False, None),
    (mat2.Mat2, "scale", "mat2.scale", False, None),
    (mat2.Mat2, "det", "mat2.det", False, None),
    (towers, "pair_tower", "towers.pair_tower", False, None),
    (towers.GQuantities, "__init__", "towers.gquantities", False, None),
    (towers.GQuantities, "closed_products", "towers.gquantities.closed_products", False, None),
    (towers.GQuantities, "primed_check_values", "towers.gquantities.primed", False, None),
    (towers.GQuantities, "cs_mul", "towers.gquantities.cs_mul", False, None),
    (towers.GQuantities, "cs_inv", "towers.gquantities.cs_inv", False, None),
    (towers.GQuantities, "cs_pow", "towers.gquantities.cs_pow", False, None),
    (towers.GQuantities, "cs_add", "towers.gquantities.cs_add", False, None),
    (towers.GQuantities, "cs_to_mat", "towers.gquantities.cs_to_mat", False, None),
    (towers.PTower, "__init__", "towers.ptower", False, None),
    (towers.PTower, "advance", "towers.ptower.advance", False, None),
    (towers, "word_matrix", "towers.word_matrix", False, None),
    (towers, "p_limits", "towers.p_limits", True, _p_limits_note),
    (towers, "g_limits", "towers.g_limits", True, _g_limits_note),
    (towers.PLimits, "residual_f", "towers.residual", True, None),
    (towers.PLimits, "residual_h0", "towers.residual", True, None),
    (towers.PLimits, "residual_hj", "towers.residual", True, None),
    (towers.GLimits, "residual_f", "towers.residual", True, None),
    (towers.GLimits, "residual_h", "towers.residual", True, None),
    (towers, "p_cf_series", "towers.p_cf_series", True, None),
    (towers, "g_cf_series", "towers.g_cf_series", True, None),
    (towers, "cf_series_of", "towers.cf_series_of", True, None),
    (towers, "cf_series", "towers.cf_series", True, _cf_series_note),
    (words, "p_prefix", "words.p_prefix", False, None),
    (words, "g_step", "words.g_step", False, None),
    (words, "g_words", "words.g_words", False, None),
    (words, "g_prefix", "words.g_prefix", False, None),
    (words, "sigma_word", "words.sigma_word", False, None),
    (words, "sigma_inv_word", "words.sigma_inv_word", False, None),
    (words, "complement", "words.complement", False, None),
    (words, "word_stats", "words.word_stats", False, None),
    (words, "p_to_g", "words.p_to_g", False, None),
    (words, "g_sigma", "words.g_sigma", False, None),
    (words, "g_normalize", "words.g_normalize", False, None),
    (identities, "run_identity_suite", "identities.run_identity_suite", True, None),
    (identities, "check_tower_expansion", "identities.other", True, _identity_note),
    (identities, "check_period_power_shift", "identities.other", True, _identity_note),
    (identities, "check_tail_equations", "identities.other", True, _identity_note),
    (identities, "check_pair_products", "identities.other", True, _identity_note),
    (identities, "check_valuation_bounds", "identities.other", True, _identity_note),
    (identities, "check_closed_form", "identities.closed_form", True, _identity_note),
    (identities, "check_generation_relations", "identities.generation_relations", True, _identity_note),
    (relations, "find_relation", "relations.find_relation", True, _find_relation_note),
    (relations.AlgRelation, "evaluate", "relations.evaluate", True, None),
    (relations, "required_precision", "relations.required_precision", False, None),
    (theorems, "search_relation", "theorems.search_relation", True, _search_relation_note),
    (theorems, "check_theorem_p", "theorems.check_theorem_p", True, None),
    (theorems, "check_theorem_g", "theorems.check_theorem_g", True, None),
    (theorems, "check_corollary_chain", "theorems.check_corollary_chain", True, None),
    (theorems, "explore_inverse_sigma", "theorems.explore_inverse_sigma", True, None),
]


def _cf2_modules():
    return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "cf2" or n.startswith("cf2."))]


class Tracer:
    """Counts, self times and spans of wrapped cf2 calls while installed.

    ``costs`` is the per-call tracer cost from ``calibrate``: the part the
    caller pays and the part inside the callee's timed span.
    """

    def __init__(self, costs: tuple[float, float] = (0.0, 0.0)):
        self.calls = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent name) -> [calls, self, inclusive]
        self.counters = defaultdict(float)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op)
        self.costs = costs
        self.op = ""
        # frames: time of wrapped calls made, name, span id, tracer cost inside
        self._stack = [[0.0, "bench", 0, 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, counter: str, value) -> None:
        self.counters[counter] += value

    def parent_name(self) -> str:
        """Inside a note: name of the wrapped call that made the one just returned."""
        return self._stack[-1][1]

    def tracer_s(self) -> float:
        """Tracer cost of every wrapped call so far, taken out of all times."""
        return self._stack[0][3]

    def begin_op(self, name: str) -> None:
        self.op = name

    def _wrap(self, fn, name, coarse, note):
        stack = self._stack
        calls = self.calls
        spans = self.spans
        caller_cost, callee_cost = self.costs
        clock = time.perf_counter
        pick = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            e0 = clock()
            parent = stack[-1]
            nm = pick(args) if pick else name
            span = len(spans) + 1 if coarse else parent[2]
            if coarse:
                spans.append(None)  # reserve the id; filled on return
            frame = [0.0, nm, span, 0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                result = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                took = t1 - t0 - callee_cost
                own = took - frame[0]
                rec = calls[(nm, parent[1])]
                rec[0] += 1
                rec[1] += own
                rec[2] += took - frame[3]
                if coarse:
                    spans[span - 1] = (span, nm, t0, t1, parent[2], self.op)
                if note is not None:
                    note(self, args, kwargs, result, own)
                # all the caller pays for this call, and the tracer's part of it
                spent = clock() - e0 + caller_cost
                parent[0] += spent
                parent[3] += frame[3] + spent - took

        return traced

    # -- installing ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every binding of every target, in each loaded cf2 module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _cf2_modules()
        for owner, attr, name, coarse, note in targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, name, coarse, note))
                else:
                    new = self._wrap(raw, name, coarse, note)
                # aliases such as Mat2.__matmul__ = mul share the object
                homes = [(owner, a) for a, v in list(owner.__dict__.items()) if v is raw]
            else:
                raw = getattr(owner, attr)
                new = self._wrap(raw, name, coarse, note)
                homes = [(m, a) for m in modules for a, v in list(vars(m).items()) if v is raw]
            for home, a in homes:
                self._patches.append((home, a, raw))
                setattr(home, a, new)

    def uninstall(self) -> None:
        """Restore every patched binding, then check that none is left."""
        patches, self._patches = self._patches, []
        for home, a, raw in reversed(patches):
            setattr(home, a, raw)
        leftover = [f"{getattr(h, '__name__', h)}.{a}" for h, a, raw in patches if vars(h)[a] is not raw]
        if leftover:
            raise RuntimeError(f"bindings not restored: {leftover}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading ---------------------------------------------------------------

    def wrapped_calls(self) -> int:
        """Calls recorded so far; a wrapper left installed keeps adding to it."""
        return sum(rec[0] for rec in self.calls.values())

    def total(self, name: str, field: int) -> float:
        """Summed calls (0), self time (1) or inclusive time (2) of a name."""
        return sum(rec[field] for (nm, _), rec in self.calls.items() if nm == name)

    def prefixed(self, prefix: str, field: int) -> float:
        return sum(rec[field] for (nm, _), rec in self.calls.items() if nm == prefix or nm.startswith(prefix + "."))

    def by_parent(self) -> list[dict]:
        return [
            {"name": nm, "parent": parent, "calls": rec[0], "self_s": rec[1], "inclusive_s": rec[2]}
            for (nm, parent), rec in sorted(self.calls.items())
        ]


def calibrate(reps: int = 11, calls: int = 50_000) -> tuple[float, float]:
    """Per-call tracer cost that the wrapper's clocks do not see, from a
    wrapped no-op timed against the bare one: (the caller's part, the part
    inside the callee's timed span).  Medians over ``reps`` loops."""

    def noop(a, b):
        return None

    def loop(f) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            f(1, 2)
        return time.perf_counter() - t0

    caller, callee = [], []
    for _ in range(reps):
        tr = Tracer()
        wrapped = tr._wrap(noop, "noop", False, None)
        bare = loop(noop)
        total = loop(wrapped)
        took = tr.total("noop", 2)
        caller.append((total - bare - took - tr.tracer_s()) / calls)
        callee.append(took / calls)
    return statistics.median(caller), statistics.median(callee)


LAYERS = ("gf2poly", "laurent", "gf2m", "mat2", "towers", "words", "identities", "relations", "theorems")

METRIC_NOTES = {
    "gf2poly.clmul.work_bits": "computed: sum over calls of min popcount x max bit length",
    "laurent.mul.window_bits": "computed: sum over calls of the product's bit window",
    "relations.columns": "computed: sum over calls of (degX+1)(degZ+1)",
    "relations.rows": "computed: sum over calls of phi.prec - min(0, val phi)",
    "trace.tracer_s": "computed in part: timed wrapper bookkeeping plus calls x the calibrated per-call cost",
}


def layer_metrics(tracer: Tracer, op_times: dict[str, float], traced_wall: float, untraced_wall: float,
                  tables_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    t, c = tracer, tracer.counters
    m: dict[str, float] = {}
    m["gf2poly.clmul.calls"] = t.total("gf2poly.clmul", 0)
    m["gf2poly.clmul.self_s"] = t.total("gf2poly.clmul", 1)
    m["gf2poly.clmul.work_bits"] = c["gf2poly.clmul.work_bits"]
    m["gf2poly.clsq.self_s"] = t.total("gf2poly.clsq", 1)
    m["gf2poly.cldivmod.calls"] = t.total("gf2poly.cldivmod", 0)
    m["laurent.mul.calls"] = t.total("laurent.mul", 0)
    m["laurent.mul.self_s"] = t.total("laurent.mul", 1)
    m["laurent.mul.window_bits"] = c["laurent.mul.window_bits"]
    for op in ("inv", "pow", "from_rational"):
        m[f"laurent.{op}.self_s"] = t.total(f"laurent.{op}", 1)
    m["gf2m.mul.calls"] = t.total("gf2m.mul", 0)
    m["gf2m.tables_s"] = tables_s
    for kind in ("gf2m", "series"):
        m[f"mat2.mul.{kind}.calls"] = t.total(f"mat2.mul.{kind}", 0)
        m[f"mat2.mul.{kind}.self_s"] = t.total(f"mat2.mul.{kind}", 1)
    m["mat2.new.calls"] = t.total("mat2.new", 0)
    m["towers.pair_tower.calls"] = t.total("towers.pair_tower", 0)
    m["towers.pair_tower.self_s"] = t.total("towers.pair_tower", 1)
    m["towers.gquantities.calls"] = t.total("towers.gquantities", 0)
    m["towers.gquantities.self_s"] = t.prefixed("towers.gquantities", 1)
    m["towers.p_limits.s"] = t.total("towers.p_limits", 2)
    m["towers.p_limits.steps"] = c["towers.p_limits.steps"]
    m["towers.g_limits.s"] = t.total("towers.g_limits", 2)
    m["towers.g_limits.generations"] = c["towers.g_limits.generations"]
    m["towers.cf_series.s"] = t.total("towers.cf_series_of", 2)
    m["towers.cf_series_of.retries"] = c["towers.cf_series.attempts"] - t.total("towers.cf_series_of", 0)
    m["identities.closed_form.s"] = t.total("identities.closed_form", 2)
    m["identities.generation_relations.s"] = t.total("identities.generation_relations", 2)
    m["identities.other.s"] = t.total("identities.other", 2)
    m["identities.resample_ratio"] = _ratio(c["identities.resamples"], c["identities.trials"])
    calls = t.total("relations.find_relation", 0)
    m["relations.find_relation.calls"] = calls
    m["relations.find_relation.hit.self_s"] = c["relations.find_relation.hit.self_s"]
    m["relations.find_relation.miss.self_s"] = c["relations.find_relation.miss.self_s"]
    m["relations.columns"] = c["relations.columns"]
    m["relations.rows"] = c["relations.rows"]
    m["relations.hit_ratio"] = _ratio(c["relations.hits"], calls)
    m["relations.evaluate.s"] = t.total("relations.evaluate", 2)
    searches = t.total("theorems.search_relation", 0)
    m["theorems.search_relation.calls"] = searches
    m["theorems.search_relation.degz_rounds"] = c["theorems.search_relation.degz_rounds"]
    m["theorems.search_relation.verified_ratio"] = _ratio(c["theorems.search_relation.verified"], searches)
    m["theorems.search_relation.prec_ratio"] = _ratio(
        c["theorems.search_relation.discovery_prec"], c["theorems.search_relation.requested_prec"]
    )
    for rung in [f"P{i}" for i in range(1, 7)] + [f"G{i}" for i in range(1, 6)]:
        m[f"theorems.rung.{rung}.s"] = op_times.get(rung, 0.0)
    m["theorems.corollary.s"] = op_times.get("corollary", 0.0)
    m["theorems.explore.s"] = op_times.get("explore", 0.0)
    attributed = 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.prefixed(layer, 1)
        attributed += m[f"{layer}.self_s"]
    m["trace.wall_s"] = traced_wall
    m["trace.tracer_s"] = t.tracer_s()
    # the rest of the traced pass is the benchmark's own loop and gates
    m["trace.attributed_share"] = _ratio(attributed, traced_wall - m["trace.tracer_s"])
    # checks the calibrated tracer cost, within the pass-to-pass noise
    m["trace.untraced_share"] = _ratio(attributed, untraced_wall)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
