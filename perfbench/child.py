"""Run one ``icsel`` command in this interpreter and report what it cost.

    python3 child.py <icsel arguments...>
    python3 child.py --trace-to TRACE.json <icsel arguments...>
    python3 child.py --import-only

The parent passes its CLOCK_MONOTONIC reading at spawn time in
PERFBENCH_SPAWNED; set-up is the time from then until ``icsel.cli`` is
imported. The command itself is timed from argument parsing to written
outputs. CPU time covers this process and every worker it waited for; peak
RSS is the largest of any of them. With ``--trace-to`` every layer is wrapped
first (see spans.py) and the spans are written to TRACE.json. One JSON line
goes to standard output.
"""

import os
import sys
import time

import_start = time.monotonic()
import icsel.cli  # noqa: E402

ready = time.monotonic()
import json  # noqa: E402
import resource  # noqa: E402

report = {
    "setup_s": ready - float(os.environ["PERFBENCH_SPAWNED"]),
    "import_s": ready - import_start,
}
argv = sys.argv[1:]
if argv != ["--import-only"]:
    tracer = None
    if argv[0] == "--trace-to":
        import spans

        trace_path, argv = argv[1], argv[2:]
        tracer = spans.Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    rc = icsel.cli.main(argv)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    report.update(
        rc=rc,
        wall_s=wall,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        + workers.ru_utime + workers.ru_stime,
        peak_rss_mb=max(after.ru_maxrss, workers.ru_maxrss) / 1024.0,
    )
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(trace_path, command=argv, wall_s=wall)
print(json.dumps(report), flush=True)
