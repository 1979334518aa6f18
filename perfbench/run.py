"""cf2 benchmark: time the checker's workloads end to end, or trace them by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload degree-ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the run measures ``setup_s`` over fresh processes, then
repeats full passes over the workload's ops (at least two) for about
``--seconds`` and reports medians, every time scaled to a nominal machine
speed (see ``speed``).  With ``--trace 1`` it makes one traced and
then one untraced pass and reports the per-layer metrics.  Either way every op's verdict is
judged; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prints a table.

Metric names and units are those of ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"
SETUP_PROBES = 11
SETUP_REFERENCES = 3  # reference runs before and after each set-up probe
MIN_PASSES = 2

# A fresh process that imports cf2, draws the inputs and does the
# workload's first-use set-up, then prints the monotonic clock.
PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads;"
    " workloads.setup(sys.argv[3], int(sys.argv[4])); print(time.monotonic())"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def _loadavg() -> str:
    return _read(Path("/proc/loadavg")).strip()


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(git / ref).strip()
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cf2_commit": _git_commit(),
        "seed": seed,
        "loadavg_before": _loadavg(),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Medians over fresh processes of start-to-ready time, scaled to the
    nominal speed and raw.  Each probe is scaled by reference runs made
    just before and just after it."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = speed.sample(SETUP_REFERENCES)
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(HERE), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        took = float(done.stdout.split()[-1]) - t0
        after = speed.sample(SETUP_REFERENCES)
        raw.append(took)
        scaled.append(took * (before + after) / 2)
    return statistics.median(scaled), statistics.median(raw)


def run_pass(ops, tracer=None, clock=time.perf_counter):
    """(seconds, outcomes, windows): the pass time on ``clock`` and each op's
    [start, end] in ``time.perf_counter`` time, the pass's last."""
    from workloads import run_op

    windows = []
    t0, c0 = time.perf_counter(), clock()
    outcomes = []
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.name)
        start = time.perf_counter()
        outcomes.append(run_op(op, clock))
        windows.append((start, time.perf_counter()))
    windows.append((t0, time.perf_counter()))
    return clock() - c0, outcomes, windows


def judge_passes(passes) -> tuple[bool, int, int]:
    """(correct, attempted, failed) of the workload's ops: no wrong verdict,
    and every pass gives the verdicts of the first.  The counts are of one
    pass, so they do not depend on how many passes fit in the run."""
    first = [(o.name, o.verdict) for o in passes[0][1]]
    same = all([(o.name, o.verdict) for o in p[1]] == first for p in passes)
    wrong = any(o.verdict == "wrong" for p in passes for o in p[1])
    failed = sum(verdict != "pass" for _, verdict in first)
    return same and not wrong, len(first), failed


def print_ops(ops, passes, seconds=None) -> None:
    """One line per op: verdict, median time (``seconds[pass][op]``, or the
    outcomes' own times), spec."""
    for i, op in enumerate(ops):
        outs = [p[1][i] for p in passes]
        secs = statistics.median(s[i] for s in seconds) if seconds else statistics.median(o.seconds for o in outs)
        detail = f" ({outs[0].detail})" if outs[0].detail else ""
        print(f"# op {op.name} {outs[0].verdict} {secs:.4f}s {op.spec}{detail}")


def untraced(workload: str, seed: int, seconds: float, ops) -> tuple[dict, bool, int, int]:
    """End-to-end metrics: times are scaled to the nominal machine speed by
    the speed meter (see ``speed``); the raw ones are printed too."""
    setup_s, setup_raw = measure_setup(workload, seed)
    passes, walls, op_seconds = [], [], []
    start = time.perf_counter()
    with speed.SpeedMeter() as meter:
        while True:
            passes.append(run_pass(ops, clock=meter.clock))
            typical = statistics.median(p[0] for p in passes)
            if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
                break
    for wall, outs, windows in passes:
        walls.append(wall * meter.factor(*windows[-1]))
        op_seconds.append([o.seconds * meter.factor(*w) for o, w in zip(outs, windows)])
    correct, attempted, failed = judge_passes(passes)
    print_ops(ops, passes, op_seconds)
    print("# pass walls raw " + " ".join(f"{p[0]:.4f}" for p in passes))
    print("# pass walls scaled " + " ".join(f"{w:.4f}" for w in walls))
    print(f"# setup raw {setup_raw:.4f}; {len(meter.samples)} speed samples, "
          f"median reference {statistics.median(d for _, d in meter.samples) * 1e3:.3f} ms "
          f"(nominal {speed.NOMINAL_S * 1e3:.3f} ms)")
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "verdict_max_s": statistics.median(max(secs) for secs in op_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, correct, attempted, failed


def traced(workload: str, seed: int, env: dict) -> tuple[dict, bool, int, int]:
    """One traced pass, then one untraced pass; per-layer metrics of the traced one."""
    import tracing
    import workloads

    # only the table build is wrapped here, so that clmul wrappers do not inflate it
    setup_tracer = tracing.Tracer()
    setup_tracer.install([t for t in tracing.TARGETS if t[2] == "gf2m.tables"])
    try:
        ops = workloads.setup(workload, seed)
    finally:
        setup_tracer.uninstall()
    tables_s = setup_tracer.total("gf2m.tables", 2)
    tracer = tracing.Tracer(tracing.calibrate())
    with tracer:
        with_trace = run_pass(ops, tracer)
    # after uninstall no call may reach a wrapper
    tracers = (setup_tracer, tracer)
    calls = [t.wrapped_calls() for t in tracers]
    plain = run_pass(ops)
    no_wrapper = [t.wrapped_calls() for t in tracers] == calls
    correct, attempted, failed = judge_passes([with_trace, plain])
    print_ops(ops, [with_trace])
    op_times = {o.name: o.seconds for o in with_trace[1]}
    metrics = tracing.layer_metrics(tracer, op_times, with_trace[0], plain[0], tables_s)
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"{workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": workload, "environment": env, "metrics": metrics, "notes": tracing.METRIC_NOTES,
        "tracer_cost_per_call_s": dict(zip(("caller", "callee"), tracer.costs)),
        "by_parent": tracer.by_parent(),
        "spans": [dict(zip(("id", "name", "start", "end", "parent", "op"), s)) for s in tracer.spans],
    }))
    print(f"# tracer cost per call: {tracer.costs[0] * 1e9:.0f} ns to the caller, {tracer.costs[1] * 1e9:.0f} ns to the callee")
    print(f"# spans and per-parent counts written to {out.relative_to(ROOT)}")
    return metrics, correct and no_wrapper, attempted, failed


def run_one(args, spec: dict) -> None:
    if not (SRC / "cf2" / "__init__.py").is_file():
        fail(f"cf2 sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    env = environment(args.seed)
    print("# env " + json.dumps(env))
    if args.trace:
        metrics, correct, attempted, failed = traced(args.workload, args.seed, env)
        wanted = spec["per_layer"]
    else:
        ops = workloads.setup(args.workload, args.seed)
        metrics, correct, attempted, failed = untraced(args.workload, args.seed, args.seconds, ops)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}")
    print("# env-after " + json.dumps({"loadavg_after": _loadavg()}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; one table of every metric."""
    results = {}
    for w in spec["workloads"]:
        name = w["name"]
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        results[name] = result
        print(f"== {name} (seed {args.seed})")
        for line in lines[:-1]:
            if line.startswith("# op") and " pass " not in line:
                print("  " + line[2:])
        share = result["failed"] / result["attempted"]
        print(f"  {'ops_failed_share':40s} {share:14.6g} ratio ({result['failed']}/{result['attempted']})")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
        print(f"  correct: {result['correct']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    run_one(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
