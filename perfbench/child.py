"""One scenario process: import qemlab, run one config, report timings.

Usage: child.py ROOT CONFIG OUT_DIR SIDECAR TRACE

Runs ``qemlab run --config CONFIG --out-dir OUT_DIR`` in this process through
``qemlab.cli.main`` and then writes SIDECAR, a JSON object with monotonic
clock readings (the parent compares them with its own spawn time), the peak
resident set size, the baseline values the run computed and, if TRACE is 1,
the per-layer span totals.  The exit code is the CLI's.
"""

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    root, config, out_dir, sidecar, trace = argv
    sys.path.insert(0, os.path.join(root, "src"))
    import qemlab.cli
    t_import = time.monotonic()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer, install
    tracer = Tracer(full=trace == "1")
    install(tracer)

    rc = qemlab.cli.main(["run", "--config", config, "--out-dir", out_dir])
    t_done = time.monotonic()
    report = {
        "rc": rc,
        "t_import": t_import,
        "t_done": t_done,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": tracer.stats,
        "counts": tracer.counts,
        "distinct_circuits": len(tracer.circuits_seen),
        "captured": tracer.captured,
    }
    with open(sidecar, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
