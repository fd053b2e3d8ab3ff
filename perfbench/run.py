"""minimanip benchmark: one workload run, printed as one JSON result line.

    python3 perfbench/run.py --workload generate|train|simulate|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Every workload runs in a fresh worker process (``worker.py``) with
the BLAS thread count fixed before numpy is imported, so the process's peak
RSS is that workload's alone.

``--trace 0`` times the workload untraced, repeating it until S seconds have
passed, and reports the end-to-end metrics of ``BENCHMARK.json``: ``run_s``
(median seconds of one repeat), ``peak_rss_mb`` and ``setup_s``.
``--trace 1`` runs one untraced and one traced repeat, each in its own
process, and reports the ``per_layer`` metrics; the difference of the two
``run_s`` is the tracing overhead.

``--workload all`` runs the three workloads one after another and prints a
last line whose metric names are prefixed with the workload's name.

Lines before the last give provenance, work counts and the outputs digest.
The exit code is non-zero, and no result line is printed, when a worker
fails; it is non-zero after the result line when an output check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("generate", "train", "simulate")
BLAS_THREADS = 1          # steadier than 2 on a shared 2-core box; <= nproc
DEADLINE_S = 170.0        # the whole run, both workers included
IMPORT_PROBES = 4         # extra processes that only start and import


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported source tree; do not report an enclosing repository
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def worker_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env, int(threads)


def run_worker(workload, args, trace, reps, workdir, deadline, extra=()):
    """Start one worker, wait for it, and return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--reps", str(reps),
           "--workdir", workdir, *extra]
    env, _ = worker_env()
    spawned_at = time.time()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric_value(name, report):
    """A per-layer metric by name: a derived value, a counter or '<span>.<stat>'."""
    for table in (report["derived"], report["counts"]):
        if name in table:
            return table[name]
    if name in report["spans"]:  # training steps timed through the hook
        return report["spans"][name]["p50_ms"]
    span, _, stat = name.rpartition(".")
    return report["spans"].get(span, {}).get(stat, 0)  # 0: the span never ran


def run_workload(workload, args, spec):
    """Run one workload in fresh workers, print its report lines, return its result.

    Returns None, after printing the reason to stderr, if a worker failed.
    """
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        if args.trace:
            base = run_worker(workload, args, 0, 1, os.path.join(workdir, "untraced"), deadline)
            rep = run_worker(workload, args, 1, 1, os.path.join(workdir, "traced"), deadline)
            rep["derived"]["trace.overhead_s"] = rep["run_s"] - base["run_s"]
            reports, wanted = (base, rep), spec["per_layer"]
        else:
            probes = [run_worker(workload, args, 0, 0, workdir, deadline,
                                 ["--imports-only"])["import_s"]
                      for _ in range(IMPORT_PROBES)]
            rep = run_worker(workload, args, 0, 0, os.path.join(workdir, "untraced"), deadline)
            reports, wanted = (rep,), spec["end_to_end"]
            # set-up: process start to imports done (median over the worker and
            # the probes), plus the median of the worker's set-ups
            rep["import_s"] = statistics.median(probes + [rep["import_s"]])
            rep["setup_s"] = rep["import_s"] + rep["setup_once_s"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{workload}: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _, threads = worker_env()
    provenance = {
        "git_commit": git_commit(), "python": rep["python"], "numpy": rep["numpy"],
        "blas": rep["blas"], "blas_threads": threads, "nproc": nproc(),
        "seed": args.seed, "workload": workload,
        "definition_hash": rep["definition_hash"],
    }
    failures = [f for r in reports for f in r["failures"]]
    failed = sum(r["failed"] for r in reports)
    for bad, msg in (
            (rep["package_file"] != os.path.join(ROOT, "src", "minimanip", "__init__.py"),
             f"imported minimanip from {rep['package_file']}, not this checkout"),
            (len({r["outputs_digest"] for r in reports}) != 1,
             "traced and untraced runs produced different outputs")):
        if bad:
            failed += 1
            failures.append(msg)
    if args.trace:
        metrics = {m["name"]: {"value": metric_value(m["name"], rep), "unit": m["unit"]}
                   for m in wanted}
    else:
        metrics = {m["name"]: {"value": rep[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"outputs_digest": rep["outputs_digest"], "work": reports[0]["work"]}))
    if args.trace:
        print(json.dumps({"spans": rep["spans"], "counts": rep["counts"],
                          "derived": rep["derived"]}))
    base = reports[0]
    print(f"{workload}: run_s {base['run_s']:.4f} s (median of {len(base['reps_s'])} repeats: "
          f"{', '.join(f'{x:.3f}' for x in base['reps_s'])} s); peak_rss_mb "
          f"{base['peak_rss_mb']:.1f} MB; set-up {base['setup_s']:.4f} s "
          f"(imports {base['import_s']:.3f} s); work {json.dumps(base['work'], sort_keys=True)}")
    if args.trace:
        d = rep["derived"]
        print(f"{workload}: traced run_s {d['trace.run_s']:.4f} s, tracing overhead "
              f"{d['trace.overhead_s']:.4f} s, unattributed {d['trace.unattributed_s']:.4f} s, "
              f"tracemalloc repeat {d['trace.memory_pass_s']:.3f} s")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']} {m['unit']}")
    for f in failures:
        print(f"{workload}: CHECK FAILED: {f}", file=sys.stderr)
    return {"correct": not failures, "attempted": sum(r["attempted"] for r in reports),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "minimanip", "__init__.py")):
        print(f"no minimanip sources under {ROOT}/src", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:  # one at a time: each worker's peak RSS is its own
        results[name] = run_workload(name, args, spec)
        if results[name] is None:
            return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
