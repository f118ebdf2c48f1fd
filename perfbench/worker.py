"""One measured (or traced) run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --spawned-at NS [--setup-only]

``--spawned-at`` is the parent's CLOCK_MONOTONIC reading just before it
started this process; set-up time runs from there until the workload is
ready to issue its first op.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MARK = "#perfbench-trace "

# Runs one CLI command the way the installed ``mmw`` script does, with
# spans installed after the import; the timings and spans go to stderr
# after MARK.  argv[1] is this directory, so ``tracing`` can be imported.
TRACED_CLI = f"""
import json, sys, time
start = time.monotonic_ns()
import mmw.cli
imported = time.monotonic_ns()
sys.path.insert(0, sys.argv.pop(1))
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
ready = time.monotonic_ns()
code = 1
try:
    code = tracer.run_op(0, "command", mmw.cli.main)
finally:
    end = time.monotonic_ns()
    sys.stdout.flush()
    sys.stderr.write("\\n{MARK}" + json.dumps({{"start": start, "imported": imported,
        "ready": ready, "end": end, "spans": tracer.spans}}) + "\\n")
sys.exit(code)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_mmw():
    if not (SRC / "mmw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mmw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mmw
    if Path(mmw.__file__).resolve().parent != SRC / "mmw":
        sys.exit(f"perfbench: imported mmw from {mmw.__file__}, not {SRC}")


def tail_latency(lat: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(lat)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class TracedLauncher:
    """Runs CLI commands through TRACED_CLI and keeps their timings and spans."""

    def __init__(self, env: dict):
        self.env = env
        self.span_sets: list[list] = []
        self.timings: list[tuple[float, float, float]] = []

    def __call__(self, argv: list[str]):
        spawned = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", TRACED_CLI, str(HERE), *argv],
                              env=self.env, capture_output=True, text=True, timeout=120)
        err, _, info = proc.stderr.rpartition("\n" + MARK)
        info = json.loads(info)
        for span in info["spans"]:
            span[4] = len(self.span_sets)
        self.span_sets.append(info["spans"])
        self.timings.append(((info["start"] - spawned) / 1e9,
                             (info["imported"] - info["start"]) / 1e9,
                             (info["end"] - info["ready"]) / 1e9))
        return proc.returncode, proc.stdout, err


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import_mmw()
    import speed
    import tracing
    import workloads

    # The cli workload's mmw calls happen in the command processes, which
    # TracedLauncher traces; its own process has nothing to trace.
    tracer = None
    launcher = None
    if args.trace and args.workload != "cli":
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    if args.workload == "cli":
        launcher = TracedLauncher(child_env()) if args.trace else None
        workload = workloads.Cli(args.seed, child_env(), launcher)
    else:
        workload = {"decide": workloads.Decide, "census": workloads.Census,
                    "frames": workloads.Frames}[args.workload](args.seed)

    if tracer is not None:
        problems = tracer.run_op(-1, "setup", workload.setup)
    else:
        problems = workload.setup()
    setup_s = (time.monotonic_ns() - args.spawned_at) / 1e9
    if args.setup_only:
        # The speed is probed here, in the child, after the clock stopped.
        print(json.dumps({"setup_s": setup_s, "probe_s": speed.speed_now()}))
        return

    unexpected = [f"setup: {p}" for p in problems or ()]
    clock = speed.Clock(speed.PROCESS_EXPONENT if args.workload == "cli" else speed.OP_EXPONENT)
    latencies: list[tuple[float, float, float]] = []    # (seconds, start, end) of ops that passed
    timed: list[tuple[float, float, float]] = []        # the same for every op
    elapsed = 0.0
    attempted = known = rounds = 0
    slices: dict[str, int] = {}
    slice_s: dict[str, float] = {}
    nodes: list[int] = []
    peak_rss_mb = 0.0
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    while elapsed < args.seconds:
        ops = workload.make_round()
        done = []
        for op in ops:
            clock.tick()
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    result = tracer.run_op(attempted + len(done), op.slice, op.run)
                else:
                    result = op.run()
                error = None
            except Exception as exc:   # every failure is counted and reported
                result, error = None, exc
            t1 = time.perf_counter()
            done.append((op, result, error,
                         tracer.last_op_s if tracer is not None else t1 - t0, (t0, t1)))
        # Probes, and counts taken between traced ops, are not the program's time.
        elapsed += sum(d[3] for d in done)
        rounds += 1
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

        # Checks run outside the timed region, untraced.
        if tracer is not None:
            restore()
        for op, result, error, op_s, when in done:
            timed.append((op_s, *when))
            slices[op.slice] = slices.get(op.slice, 0) + 1
            slice_s[op.slice] = slice_s.get(op.slice, 0.0) + op_s
            if op.nodes:
                nodes.append(op.nodes)
            if error is not None:
                if op.known_defect is not None and isinstance(error, op.known_defect):
                    known += 1
                else:
                    unexpected.append(f"{op.slice}: {type(error).__name__}: {error}"[:300])
                continue
            try:
                message = op.check(result)
            except Exception as exc:   # output too malformed to check
                message = f"check raised {type(exc).__name__}: {exc}"
            if message:
                unexpected.append(f"{op.slice}: {message}"[:300])
            else:
                latencies.append((op_s, *when))
        attempted += len(done)
        if tracer is not None:
            restore = tracing.install(tracer)
    if tracer is not None:
        restore()

    failed = attempted - len(latencies)
    raw = [s for s, _, _ in latencies]
    scaled = [s * clock.factor(t0, t1) for s, t0, t1 in latencies]
    scaled_elapsed = sum(s * clock.factor(t0, t1) for s, t0, t1 in timed)
    tail, tail_pct = tail_latency(scaled) if scaled else (0.0, 0.0)
    raw_tail, _ = tail_latency(raw) if raw else (0.0, 0.0)
    inputs = {"rounds": rounds, "ops_per_slice": slices,
              "seconds_per_slice": {k: round(v, 4) for k, v in slice_s.items()}}
    if nodes:
        inputs["ast_nodes"] = tracing.summary(nodes)
    inputs.update(getattr(workload, "properties", {}))
    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "elapsed_s": elapsed,
        "ops_per_s": len(scaled) / scaled_elapsed,
        "op_p50_ms": statistics.median(scaled) * 1e3 if scaled else 0.0,
        "op_tail_ms": tail * 1e3, "op_tail_pct": tail_pct, "samples": len(scaled),
        "raw": {"ops_per_s": len(raw) / elapsed,
                "op_p50_ms": statistics.median(raw) * 1e3 if raw else 0.0,
                "op_tail_ms": raw_tail * 1e3},
        "probe_s": clock.summary(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed, "known_failed": known,
        "unexpected": unexpected[:20], "unexpected_count": len(unexpected),
        "inputs": inputs,
    }
    if args.trace:
        span_sets = launcher.span_sets if launcher else [tracer.spans]
        table = tracing.layer_table(span_sets)
        out["layers"] = {name: {"calls": row["calls"], "self_s": row["self_s"],
                                "total_s": row["total_s"]}
                         for name, row in sorted(table.items())}
        out["layer_metrics"] = tracing.layer_metrics(table)
        out["inputs"]["normalize_nodes"] = tracing.node_quantiles(table)
        if launcher is not None:
            for i, key in enumerate(("cli.interp_s", "cli.import_s", "cli.command_s")):
                out["layer_metrics"][key] = (
                    statistics.median(t[i] for t in launcher.timings), "s")
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for proc, spans in enumerate(span_sets):
                    for span in spans:
                        fh.write(json.dumps([proc] + span) + "\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
