"""isodimer benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload battery --seed 0 --seconds 40 --trace 0

Each pass of the workload runs in a fresh interpreter (``worker.py``): the CLI
pays that cold start on every call, and a fresh process drops the package's
in-process caches between passes.  Passes run one after another until the
next one would end after ``--seconds``; at least one pass runs, and with
``--trace 1`` untraced and traced passes alternate, at least one of each.
BLAS and OpenMP run single-threaded (see ``BLAS_THREADS``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the details: machine fingerprint, calibration timings,
inputs, every pass and the recorded (ungated) outputs.  Scratch files and the
spans of traced passes go to ``.perfbench/`` in the checkout.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread.  With two on a 2-CPU machine the battery's CPU time ran 20%
# above its wall time (a thread spin-waiting on 124 x 124 matrices), so the
# pass competed for both CPUs; one thread costs bulk about 5 s more in its
# dense inverses.  Passes run one at a time, so the load never uses more
# threads than CPUs.
BLAS_THREADS = 1
SETUP_SAMPLES = 9        # at least this many set-up timings per run
RUN_LIMIT_S = 165        # a pass still running then is killed and fails
# The CLI records its --out path in the artifact, so every pass writes to this
# one path, relative to the checkout root, and artifacts compare byte for byte.
OUT_DIR = os.path.join(".perfbench", "out")
SCRATCH = os.path.join(ROOT, ".perfbench")
ERR_PATH = os.path.join(SCRATCH, "worker.err")

sys.path.insert(0, ROOT)
from perfbench import tracing, workloads  # noqa: E402


class PassError(Exception):
    """A worker process that did not report."""


def worker(argv, env, deadline):
    """Start a worker; return (set-up seconds, its JSON result or None)."""
    with open(ERR_PATH, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER] + argv, env=env,
                                cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out = proc.communicate()[0]
        finally:
            killer.cancel()
        if ready.strip() != "ready" or proc.returncode != 0:
            err.seek(0)
            raise PassError(f"worker exit {proc.returncode}: {err.read()[-2000:]}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def worker_env():
    """Environment of the worker processes; also pins this process's BLAS."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        os.environ[var] = env[var] = str(BLAS_THREADS)
    return env


def _fingerprint():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        pass
    from importlib.metadata import version

    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": BLAS_THREADS, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy")}


def _calibrate():
    """Fixed kernels timed on each run, so machine drift between runs shows."""
    import numpy as np

    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i & 7
    py_loop = time.perf_counter() - t
    a = np.random.default_rng(0).standard_normal((300, 300))
    t = time.perf_counter()
    for _ in range(10):
        a = a @ a
        a /= np.abs(a).max()
    matmul = time.perf_counter() - t
    return {"py_loop_s": py_loop, "matmul_300x10_s": matmul}


def _median(values):
    return statistics.median(values) if values else 0.0


def _measure(args, env, inputs, start):
    """Run the passes of one run; return set-up samples, passes, pass failures."""
    hard_deadline = start + RUN_LIMIT_S
    setups, passes, failures = [], [], []
    deadline = start + args.seconds
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 1
        argv = ["--workload", args.workload, "--inputs", json.dumps(inputs),
                "--pass-id", str(i), "--out-dir", OUT_DIR]
        if traced:
            argv += ["--trace", "1", "--spans",
                     os.path.join(SCRATCH, f"spans-{args.workload}-pass{i}.npz")]
        try:
            setup, res = worker(argv, env, hard_deadline)
        except PassError as exc:
            failures.append(f"pass {i}: {exc}")
            break
        setups.append(setup)
        res.update(traced=traced, setup_s=setup)
        passes.append(res)
        need_traced = args.trace and not any(p["traced"] for p in passes)
        per_pass = _median([p["wall_s"] + p["setup_s"] for p in passes])
        if not need_traced and time.monotonic() + per_pass > deadline:
            break
    # more set-up samples, but none later than 30 s after --seconds
    while passes and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline + 30:
        setups.append(worker(["--probe"], env, hard_deadline)[0])
    return setups, passes, failures


def run(args):
    src = os.path.join(ROOT, "src", "isodimer", "__init__.py")
    if not os.path.isfile(src):
        print(f"no isodimer package at {src}: run from a full checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    env = worker_env()
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    details = {"fingerprint": _fingerprint(), "calibration": _calibrate()}
    inputs = workloads.make_inputs(args.workload, args.seed, args.small)
    details["inputs"] = inputs

    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    try:
        setups, passes, failures = _measure(args, env, inputs, start)
    except PassError as exc:
        print(f"isodimer does not start: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, OUT_DIR), ignore_errors=True)
        if os.path.exists(ERR_PATH):
            os.remove(ERR_PATH)
    if not passes:
        print("no pass completed: " + "; ".join(failures), file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes) + len(failures)
    failed = sum(p["failed"] for p in passes) + len(failures)
    failures += [f"pass {i}: {f}" for i, p in enumerate(passes) for f in p["failures"]]

    # the CLI artifacts of every pass must match the first pass byte for byte
    for i, p in enumerate(passes[1:], 1):
        attempted += 1
        if p["artifacts"] != passes[0]["artifacts"]:
            failed += 1
            failures.append(f"pass {i}: artifacts differ from pass 0")

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = {}
        for name, unit, _better, _moves, _where in tracing.METRICS:
            if name == "trace.overhead_s":
                value = (_median([p["wall_s"] for p in traced])
                         - _median([p["wall_s"] for p in plain]))
            else:
                value = _median([p["layers"][name] for p in traced])
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": _median([p["wall_s"] for p in plain]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
            "residual_digits": _median([p["residual_digits"] for p in plain]),
            # the worst pass, so one failed check shows in a long run
            "passed_frac": min([1.0 - failed / attempted]
                               + [1.0 - p["failed"] / p["attempted"] for p in passes]),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "residual_digits": "digits", "passed_frac": "ratio"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": time.monotonic() - start,
        "setup_samples": setups, "failures": failures[:50],
        "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s", "cpu_s",
                                      "peak_rss_mb", "attempted", "failed",
                                      "worst_residual")} for p in passes],
        "outputs": passes[0]["outputs"],
    })
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest input of the workload (self-test)")
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
