"""The cli-samples workload: every README subcommand on ``samples/``.

Each command runs in a fresh interpreter, one after another, the way a
batch user calls the installed ``wreathq`` script.  The bytecode cache is
warmed in set-up, so a command pays interpreter start-up, imports,
argparse, JSON I/O and its (small) computation.  ``reflect --out`` writes
the module that ``cohomology`` and ``euler`` then read back.  Exit codes,
stdout and written files must match the digests in ``expected_cli.json``,
recorded at commit 34205f8.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".perfbench_work", "cli")
COMMAND_TIMEOUT_S = 60.0
ENTRY = "import sys; from wreathq.cli import main; sys.exit(main())"

Q = "samples/ahat1.quiver.json"
S1 = "samples/s1.module.json"
SQUARE = "samples/square.params.json"
REFLECTED = f"{WORK}/reflected.json"

# (name, stage, arguments, files written); stage names the end-to-end
# metric a command counts toward.
COMMANDS = (
    ("verify", "verify", ["verify", "--quiver", Q, "--module", S1], ()),
    ("reflect-vertex", "reflect",
     ["reflect", "--quiver", Q, "--module", S1, "--vertex", "0", "--out", REFLECTED],
     (REFLECTED,)),
    ("reflect-word", "reflect",
     ["reflect", "--quiver", Q, "--module", S1, "--word", "0 0",
      "--out", f"{WORK}/roundtrip.json"], (f"{WORK}/roundtrip.json",)),
    ("verify-reflected", "verify", ["verify", "--quiver", Q, "--module", REFLECTED], ()),
    ("cohomology", "cohomology",
     ["cohomology", "--quiver", Q, "--module", REFLECTED, "--vertex", "1"], ()),
    ("euler", "cohomology", ["euler", "--quiver", Q, "--module", REFLECTED, "--vertex", "1"], ()),
    ("generic", "other", ["generic", "--quiver", Q, "--params", SQUARE, "--vertex", "0"], ()),
    ("induce", "other",
     ["induce", "--quiver", Q, "--params", SQUARE, "--blocks", '[{"diagram": [2], "vertex": "1"}]',
      "--out", f"{WORK}/induced.json"], (f"{WORK}/induced.json",)),
    ("translate", "other", ["translate", "--gamma", "samples/gamma.z2.json",
                            "--sra", "samples/sra.json"], ()),
    ("conditions", "other",
     ["conditions", "--quiver", Q, "--request", "samples/conditions.request.json"], ()),
    ("word-validate", "other",
     ["word-validate", "--quiver", Q, "--params", SQUARE, "--word", "0 1"], ()),
)


@dataclass
class State:
    env: dict
    expected: dict
    inputs: dict


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def setup(name: str, seed: int) -> State:
    """The seed is unused: the inputs are the fixed files in samples/."""
    for _, _, argv, _ in COMMANDS:
        for arg in argv:
            if arg.startswith("samples/") and not os.path.isfile(arg):
                raise FileNotFoundError(arg)
    os.makedirs(WORK, exist_ok=True)
    compileall.compile_dir(os.path.join("src", "wreathq"), quiet=1)
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(os.path.join(HERE, "expected_cli.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    # one cold import of the CLI, so every timed command finds its bytecode
    subprocess.run([sys.executable, "-c", "import wreathq.cli"], env=env, check=True,
                   timeout=COMMAND_TIMEOUT_S)
    return State(env, expected, {})


def _run(state: State, argv: list, out_path: str) -> tuple[int, bytes, int]:
    """Run one command; returns (exit code, stdout, peak RSS in KiB)."""
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=state.env)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    with open(out_path, "rb") as fh:
        return proc.returncode, fh.read(), usage.ru_maxrss


def run_pass(state: State, clock, mode=None) -> dict:
    """One sweep over COMMANDS.  ``mode`` "spans" or "count" runs each
    command under the tracer (see cli_child.py) and collects its dump."""
    for _, _, _, writes in COMMANDS:
        for path in writes:
            if os.path.exists(path):
                os.remove(path)
    stages, commands, failures, dumps = [], [], [], []
    rss = 0
    for k, (name, label, args, writes) in enumerate(COMMANDS):
        if mode is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            dump = os.path.join(WORK, f"trace-{k}.json")
            if os.path.exists(dump):
                os.remove(dump)
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), mode, dump, *args]
        clock.probes(2)
        t0 = time.perf_counter()
        code, stdout, rss_kib = _run(state, argv, os.path.join(WORK, "stdout.txt"))
        t1 = time.perf_counter()
        clock.probes(2)
        stages.append((label, t0, t1))
        commands.append((t0, t1))
        rss = max(rss, rss_kib)
        want = state.expected[name]
        got = {"exit": code, "stdout_sha256": _sha256(stdout),
               "writes": {os.path.basename(p): _file_sha256(p) for p in writes
                          if os.path.exists(p)}}
        if got != want:
            failures.append(f"{name}: got {got}, expected {want}")
        if mode is not None and os.path.exists(dump):
            with open(dump, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
    return {"stages": stages, "failures": failures, "commands": commands,
            "rss_kib": rss, "dumps": dumps}
