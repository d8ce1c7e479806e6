"""Run one wreathq CLI command under the tracer and dump what it recorded.

usage: python3 perfbench/cli_child.py spans|count DUMP.json ARGS...

Stdout and the exit code are the command's own.  The dump holds the
spans or scalar counts (see spans.py) plus ``cli.import_s``, the time
to import ``wreathq.cli`` in this fresh interpreter.
"""

import sys
import time


def main() -> int:
    mode, dump, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import wreathq.cli
    import_s = time.perf_counter() - t0

    from spans import Tracer
    tracer = Tracer()
    if mode == "spans":
        tracer.install_spans()
    else:
        tracer.install_counts()
    tracer.begin_pass(0)
    tracer.cur["cli.import_s"] += import_s
    try:
        return wreathq.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
