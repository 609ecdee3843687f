"""Self-test of the benchmark, at the smallest input of each workload.

    python3 perfbench/selftest.py

Checks that
* every workload passes its gates at its smallest input;
* a traced pass gives the same tally, residuals, outputs and CLI artifacts
  as an untraced one, so tracing does not change what it measures;
* every count metric of the trace repeats exactly between two traced passes;
* ``BENCHMARK.json`` names the workloads and metrics the benchmark reports,
  and ``run.py`` prints exactly those metrics in its result line;
* ``run.py`` fails, printing no result, in a directory holding only
  ``BENCHMARK.json`` and the benchmark.

Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
from perfbench import run, tracing, workloads  # noqa: E402

SAME = ("attempted", "failed", "worst_residual", "outputs", "artifacts")
TIMED_UNITS = ("s",)
E2E = ("wall_s", "setup_s", "peak_rss_mb", "residual_digits", "passed_frac")


def _pass(env, workload, inputs, traced):
    argv = ["--workload", workload, "--inputs", json.dumps(inputs),
            "--out-dir", run.OUT_DIR]
    if traced:
        argv += ["--trace", "1"]
    return run.worker(argv, env, time.monotonic() + 170)[1]


def check_workloads(problems):
    env = run.worker_env()
    os.makedirs(os.path.join(ROOT, run.OUT_DIR), exist_ok=True)
    try:
        for w in sorted(workloads.WORKLOADS):
            inputs = workloads.make_inputs(w, seed=1, small=True)
            plain = _pass(env, w, inputs, traced=False)
            first = _pass(env, w, inputs, traced=True)
            second = _pass(env, w, inputs, traced=True)
            if plain["failed"]:
                problems.append(f"{w}: gates failed: {plain['failures']}")
            for key in SAME:
                if not plain[key] == first[key] == second[key]:
                    problems.append(f"{w}: {key} differs with tracing on")
            for name, unit, *_ in tracing.METRICS:
                if unit in TIMED_UNITS:
                    continue
                if first["layers"][name] != second["layers"][name]:
                    problems.append(f"{w}: count {name} does not repeat: "
                                    f"{first['layers'][name]} vs {second['layers'][name]}")
            print(f"{w}: {plain['attempted']} gated operations, "
                  f"{plain['failed']} failed", flush=True)
    finally:
        shutil.rmtree(os.path.join(ROOT, run.OUT_DIR), ignore_errors=True)
        if os.path.exists(run.ERR_PATH):
            os.remove(run.ERR_PATH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_manifest(problems):
    spec = _spec()
    if [w["name"] for w in spec["workloads"]] != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if tuple(m["name"] for m in spec["end_to_end"]) != E2E:
        problems.append("BENCHMARK.json end_to_end metrics differ from run.py's")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layer != [m[:3] for m in tracing.METRICS]:
        problems.append("BENCHMARK.json per_layer metrics differ from tracing.METRICS")


def check_result_lines(problems):
    """run.py's last line has the result keys and the metrics BENCHMARK.json names."""
    spec = _spec()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        names = sorted(m["name"] for m in spec[kind])
        for w in sorted(workloads.WORKLOADS):
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w,
                                   "--seed", "1", "--seconds", "1", "--trace",
                                   str(trace), "--small"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"run.py {w} --trace {trace} exited {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"run.py {w}: result keys {sorted(result)}")
            elif sorted(result["metrics"]) != names or not result["correct"]:
                problems.append(f"run.py {w} --trace {trace}: wrong metrics or "
                                f"not correct: {lines[-1][:300]}")


def check_bare_directory(problems):
    """Without the package source the benchmark must fail and print no result."""
    bare = os.path.join(run.SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "battery", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=170)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("run.py reports a result without the package source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    problems = []
    check_manifest(problems)
    check_result_lines(problems)
    check_bare_directory(problems)
    check_workloads(problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
