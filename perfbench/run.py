"""The mmw benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide|census|frames|cli --seed N
                             --seconds S --trace 0|1 [--out DIR]

Run from the root of a source checkout; mmw is imported from ``src/``.
Each run starts fresh child processes, one at a time: a warm-up child
(it also writes the bytecode caches), ten set-up children, then the
measured child.  Times are reported at the reference speed of
``speed.py``; the raw ones are in the record.  With ``--trace 1`` a
traced child follows the measured one on the same inputs, and the
per-layer metrics and the tracing overhead are reported instead of the
end-to-end metrics.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record goes to ``DIR`` (default
``perfbench/out``).  The exit code is 1 when a check failed unexpectedly
and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide", "census", "frames", "cli")
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 150
IMPORT_ONLY = ("import sys, time; start = time.monotonic_ns(); import mmw; "
               "end = time.monotonic_ns(); sys.path.insert(0, sys.argv[1]); import speed; "
               "print((end - start) / 1e9, speed.speed_now())")


class RunError(Exception):
    """The benchmark could not run; no result is printed."""


def child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> str:
    """Run a child process to completion and return the last line of its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # A session of its own, so a timeout also stops the CLI commands it started.
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError(f"{' '.join(argv[:4])}... timed out after {timeout} s") from exc
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return lines[-1]


def worker(args, trace: int, setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--spawned-at", str(time.monotonic_ns())]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--spans-out", str(args.out / f"spans-{args.workload}-s{args.seed}.jsonl")]
    return json.loads(child(argv))


def setup_samples(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh children, and the speed each probed once its time was taken.

    For ``cli`` the set-up is ``import mmw`` alone.
    """
    worker(args, 0, setup_only=True)           # writes bytecode caches; not counted
    times, probes = [], []
    for _ in range(SETUP_SAMPLES):
        if args.workload == "cli":
            setup_s, probe_s = map(float, child([sys.executable, "-c", IMPORT_ONLY,
                                                 str(HERE)]).split())
        else:
            got = worker(args, 0, setup_only=True)
            setup_s, probe_s = got["setup_s"], got["probe_s"]
        times.append(setup_s)
        probes.append(probe_s)
    return times, probes


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def end_to_end(run: dict, setups: list[float],
               probes: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(map(speed.scaled_setup, setups, probes)), "s"),
        "ops_per_s": (run["ops_per_s"], "op/s"),
        "op_p50_ms": (run["op_p50_ms"], "ms"),
        "op_tail_ms": (run["op_tail_ms"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }


def per_layer(traced: dict, plain: dict, spec: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric in BENCHMARK.json; a layer that never ran reads 0."""
    got = {k: tuple(v) for k, v in traced["layer_metrics"].items()}
    got["trace.overhead_ratio"] = (plain["ops_per_s"] / traced["ops_per_s"] - 1, "1")
    return {m["name"]: got.get(m["name"], (0, m["unit"])) for m in spec}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def report(args, run: dict, metrics: dict, setups: list[float], traced: dict | None) -> None:
    print(f"workload {args.workload}  seed {args.seed}  {run['inputs']['rounds']} rounds "
          f"in {run['elapsed_s']:.2f} s  attempted {run['attempted']}  failed {run['failed']} "
          f"({run['known_failed']} known defect, {run['unexpected_count']} unexpected)")
    print(f"  fail_ratio     {run['failed'] / run['attempted']:.6f} 1   "
          f"({run['failed']} / {run['attempted']})")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"   (p{run['op_tail_pct']:.2f} of {run['samples']} ops)"
        elif name == "setup_s":
            note = f"   (median of {len(setups)} set-ups)"
        print(f"  {name:<38} {value:>14.6g} {unit}{note}")
    raw = run["raw"]
    print(f"  unscaled: setup_s {statistics.median(setups) if setups else 0:.6g} s, "
          f"ops_per_s {raw['ops_per_s']:.6g}, op_p50_ms {raw['op_p50_ms']:.6g}, "
          f"op_tail_ms {raw['op_tail_ms']:.6g}; speed probe {json.dumps(run['probe_s'])}")
    print(f"  inputs: {json.dumps(run['inputs'])}")
    for problem in run["unexpected"]:
        print(f"  UNEXPECTED {problem}")
    if traced is not None:
        print(f"  traced run: {traced['ops_per_s']:.6g} op/s against {run['ops_per_s']:.6g} "
              f"op/s untraced")
        print(f"  {'span':<34} {'calls':>9} {'self s':>10} {'total s':>10}")
        for name, row in traced["layers"].items():
            print(f"  {name:<34} {row['calls']:>9} {row['self_s']:>10.4f} {row['total_s']:>10.4f}")
        print(f"  inputs (traced): {json.dumps(traced['inputs'])}")
        for problem in traced["unexpected"]:
            print(f"  UNEXPECTED (traced) {problem}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out")
    args = ap.parse_args()
    if not (ROOT / "src" / "mmw" / "__init__.py").is_file():
        print(f"perfbench: no mmw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        spec = load_spec()
        if args.trace:
            worker(args, 0, setup_only=True)   # bytecode caches, as in setup_samples
            setups, setup_probes = [], []
        else:
            setups, setup_probes = setup_samples(args)
        run = worker(args, 0)
        traced = worker(args, 1) if args.trace else None
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if traced is None:
        metrics = end_to_end(run, setups, setup_probes)
    else:
        metrics = per_layer(traced, run, spec["per_layer"])
    report(args, run, metrics, setups, traced)
    main_run = traced if traced is not None else run
    correct = run["unexpected_count"] == 0 and (traced is None or traced["unexpected_count"] == 0)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "setup_samples": setups,
              "setup_probes": setup_probes,
              "metrics": metrics, "run": run, "traced": traced, "correct": correct}
    with open(args.out / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": main_run["attempted"], "failed": main_run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
