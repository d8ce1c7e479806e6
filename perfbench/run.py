"""Layered benchmark of wreathq's exact pipeline and its CLI.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (see NOTES.md for why each exists):

  kronecker-q   induce, verify, reflect, verify, reflect back, cohomology
                and Euler data on the Kronecker quiver at n = 4, over Q
  kronecker-z3  the same pass over Q(zeta_3)
  a2-word       the word 0 2 1 0 on the cyclic A2-hat quiver at n = 3
  cli-samples   every README subcommand on samples/, each a fresh process

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Times are calibrated seconds (see clock.py); the table above the
final JSON line also shows the raw wall-clock medians.  Every run checks
its exact answers; a failed check counts as a failed pass and the run
goes on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import NamedTuple

import spans
from clock import IN_PROCESS_ALPHA, Clock

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(".perfbench_work", "results")
# name -> (module, whether a pass runs in this process)
WORKLOADS = {
    "kronecker-q": ("pipeline", True),
    "kronecker-z3": ("pipeline", True),
    "a2-word": ("pipeline", True),
    "cli-samples": ("cli_samples", False),
}
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def timed_setup(name: str, seed: int, clock: Clock):
    """Import the workload (and with it wreathq) and build its inputs."""
    module_name, in_process = WORKLOADS[name]
    clock.probes(3)
    if in_process:
        clock.start()
    t0 = time.perf_counter()
    module = importlib.import_module(module_name)
    state = module.setup(name, seed)
    t1 = time.perf_counter()
    clock.stop()
    clock.probes(3)
    return module, state, clock.calibrated(t0, t1), clock.wall(t0, t1)


def setup_samples(args) -> list[tuple[float, float]]:
    """Set-up times, each in a fresh interpreter: (calibrated, wall)."""
    out = []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        cal, wall = proc.stdout.split()[-2:]
        out.append((float(cal), float(wall)))
    return out


class Pass(NamedTuple):
    t0: float
    t1: float
    result: dict


def run_passes(module, state, clock: Clock, seconds: float, in_process: bool, mode=None,
               tracer=None, first_id: int = 0, at_most: int = 0) -> list[Pass]:
    """Closed loop: start another pass only while it should end in time."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if tracer is not None:
            tracer.begin_pass(first_id + len(passes))
        if in_process:
            clock.start()
        t0 = time.perf_counter()
        try:
            result = module.run_pass(state, clock, mode)
        except Exception as exc:  # a failed pass is counted; the run goes on
            traceback.print_exc()
            result = {"stages": [], "failures": [f"exception: {exc!r}"]}
        t1 = time.perf_counter()
        clock.stop()
        for failure in result["failures"]:
            print(f"FAILED pass {first_id + len(passes)}: {failure}", file=sys.stderr)
        passes.append(Pass(t0, t1, result))
        typical = statistics.median(p.t1 - p.t0 for p in passes)
        if len(passes) == at_most or time.perf_counter() + typical > deadline:
            return passes


def stage_seconds(clock: Clock, p: Pass, label: str, calibrated: bool = True) -> float:
    measure = clock.calibrated if calibrated else clock.wall
    return sum(measure(t0, t1) for stage, t0, t1 in p.result["stages"] if stage == label)


def end_to_end(clock: Clock, passes: list[Pass], setups, in_process: bool) -> dict:
    """name -> (calibrated median, wall median, unit)."""
    def both(fn):
        return (statistics.median(fn(p, True) for p in passes),
                statistics.median(fn(p, False) for p in passes))

    def whole(p, cal):
        return (clock.calibrated if cal else clock.wall)(p.t0, p.t1)

    out = {"setup_s": (statistics.median(c for c, _ in setups),
                       statistics.median(w for _, w in setups), "s"),
           "pass_s": both(whole) + ("s",)}
    for label in ("reflect", "verify", "cohomology"):
        out[label + "_s"] = both(lambda p, cal: stage_seconds(clock, p, label, cal)) + ("s",)
    if in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = max(p.result["rss_kib"] for p in passes)
        commands = [(t0, t1) for p in passes for t0, t1 in p.result["commands"]]
        out["command_s"] = (statistics.median(clock.calibrated(*c) for c in commands),
                            statistics.median(clock.wall(*c) for c in commands), "s")
    out["peak_rss_mib"] = (rss_kib / 1024, rss_kib / 1024, "MiB")
    return out


def per_layer(clock: Clock, untraced, traced, counted, tracer) -> dict:
    """name -> median per pass over the traced passes (counts from ``counted``)."""
    numbers = spans.aggregate(tracer.export()) if tracer is not None else {}
    for pass_id, p in enumerate(untraced + traced + counted):
        for dump in p.result.get("dumps", ()):
            for child in spans.aggregate(dump).values():
                spans.merge(numbers.setdefault(pass_id, Counter()), child)
    first = len(untraced)
    rows = []
    for pass_id, p in enumerate(traced, start=first):
        scale = clock.calibrated(p.t0, p.t1) / clock.wall(p.t0, p.t1)
        row = {k: (v * scale if k.endswith((".s", "_s")) else v)
               for k, v in numbers.get(pass_id, {}).items()}
        for prefix in ("linalg.rref", "linalg.matmul"):
            entries = row.get(prefix + ".in_entries", 0)
            row[prefix + ".in_fill"] = row.get(prefix + ".in_nonzero", 0) / entries if entries else 0.0
        rows.append(row)
    counts = numbers.get(len(untraced) + len(traced), {})
    untraced_s = statistics.median(clock.calibrated(p.t0, p.t1) for p in untraced)
    traced_s = statistics.median(clock.calibrated(p.t0, p.t1) for p in traced)
    out = {}
    for metric in load_spec()["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_frac":
            value = traced_s / untraced_s - 1
        elif name.startswith("cyclotomic."):
            value = counts.get(name, 0)
        else:
            value = statistics.median(row.get(name, 0) for row in rows)
        out[name] = (value, metric["unit"])
    return out


def environment(seed: int, inputs: dict, nproc: int, pinned) -> dict:
    from wreathq import kernels
    digest = hashlib.sha256()
    src = os.path.join("src", "wreathq")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    revision = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
        revision = proc.stdout.strip() or None
    return {"seed": seed, "inputs": inputs, "python": platform.python_version(),
            "kernel": kernels.IMPLEMENTATION, "wreathq_pure": bool(os.environ.get("WREATHQ_PURE")),
            "git_revision": revision, "src_sha256": digest.hexdigest(),
            "nproc": nproc, "pinned_cpu": pinned}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "wreathq", "__init__.py")):
        print("error: run from the root of a wreathq checkout (no src/wreathq)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    nproc = len(os.sched_getaffinity(0))
    pinned = None
    in_process = WORKLOADS[args.workload][1]
    if not in_process:
        # commands run in children; pin them to our CPU so the probes
        # between commands see the same CPU the commands ran on
        pinned = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {pinned})

    clock = Clock(IN_PROCESS_ALPHA if in_process else 1.0)
    module, state, cal, wall = timed_setup(args.workload, args.seed, clock)
    if args.setup_only:
        print(f"{cal!r} {wall!r}")
        return 0
    setups = setup_samples(args)

    if args.trace == 0:
        passes = run_passes(module, state, clock, args.seconds, in_process)
        values = end_to_end(clock, passes, setups, in_process)
        wanted = [m["name"] for m in load_spec()["end_to_end"]]
    else:
        # in-process passes are traced here; CLI commands trace themselves
        tracer = spans.Tracer() if in_process else None
        untraced = run_passes(module, state, clock, args.seconds / 3, in_process)
        if tracer is not None:
            tracer.install_spans()
        traced = run_passes(module, state, clock, args.seconds * 2 / 3, in_process, "spans",
                            tracer, len(untraced))
        if tracer is not None:
            tracer.uninstall()
            tracer.install_counts()
        counted = run_passes(module, state, clock, 0, in_process, "count", tracer,
                             len(untraced) + len(traced), at_most=1)
        if tracer is not None:
            tracer.uninstall()
            os.makedirs(RESULTS, exist_ok=True)
            tracer.dump(os.path.join(RESULTS, f"spans-{args.workload}-s{args.seed}.json"))
        passes = untraced + traced + counted
        values = per_layer(clock, untraced, traced, counted, tracer)
        wanted = list(values)

    failed = sum(1 for p in passes if p.result["failures"])
    env = environment(args.seed, state.inputs, nproc, pinned)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} failed_frac={failed / len(passes):.4f}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, *rest) in values.items():
        wall_text = f"{rest[0]:>12.6g}" if len(rest) == 2 else " " * 12
        print(f"  {name:40s} {value:>14.6g} {wall_text}  {rest[-1]}")
    metrics = {name: {"value": values[name][0], "unit": values[name][-1]} for name in wanted}
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "trace": args.trace, "env": env,
                   "result": result, "wall": {k: v[1] for k, v in values.items() if len(v) == 3}},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
