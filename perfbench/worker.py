"""One pass of one workload in a fresh interpreter; ``run.py`` starts it.

The worker imports ``isodimer.cli`` from the checkout's ``src`` and prints
``ready``; the time from process start to that line is the set-up time a CLI
user pays on every call.  With ``--probe`` it stops there.  Otherwise it runs
the workload once, with or without tracing, and prints one JSON line with the
pass's wall and CPU time, peak resident memory, gate tally and, when traced,
the per-layer metrics.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probe", action="store_true", help="import, report ready, exit")
    ap.add_argument("--workload")
    ap.add_argument("--inputs", help="workload inputs as JSON")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--out-dir", help="directory for the CLI artifacts")
    ap.add_argument("--spans", help="where a traced pass writes its spans (.npz)")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import isodimer.cli  # noqa: F401  (the set-up being measured)
    import isodimer

    if os.path.dirname(os.path.dirname(os.path.abspath(isodimer.__file__))) != SRC:
        print(f"isodimer imported from {isodimer.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.probe:
        return 0

    sys.path.insert(0, ROOT)
    from perfbench import tracing, workloads

    inputs = json.loads(args.inputs)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.pass_id)
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    tally = workloads.WORKLOADS[args.workload](inputs, args.out_dir)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    result = {"wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    result.update(tally.as_dict())
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(tally.outputs.get("artifact_bytes", 0))
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
