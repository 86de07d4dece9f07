"""One repetition, in a fresh process: ``enslab.cli.main`` under a Tracer.

    python3 perfbench/child.py --result R.json --trace 0|1 <enslab arguments>

Writes to R.json the command's exit code, every recorded span, targets the
program no longer has, the process's CPU time and peak resident memory, and
the Python, numpy and scipy versions.  Exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys

from tracer import ALWAYS, LAYERS, Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, argv = parser.parse_known_args()

    import numpy
    import scipy

    from enslab import cli

    tracer = Tracer(ALWAYS + (LAYERS if args.trace else ()))
    tracer.install()
    code = cli.main(argv)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "code": code,
        "spans": tracer.spans,
        "missing": tracer.missing,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
