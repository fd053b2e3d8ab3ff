"""One workload run in a fresh process: set up, time, check, report.

Started by ``run.py``, which fixes the BLAS thread count in the environment
before this process imports numpy, and passes the wall-clock time at which
it started the process. Prints one JSON object as the last line of stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --reps R --spawned-at T --workdir DIR [--imports-only]

Untraced, the timed phase repeats the workload until ``--seconds`` have
passed and it ran at least twice (``--reps 0``), or exactly R times.
Traced, it runs one repeat under spans and one under tracemalloc.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from time import perf_counter

import numpy as np

import minimanip
from minimanip import data, diffusion, env, nn, pipeline, policies, prompts, storage
from minimanip import inverse_dynamics

import tracer as tracing
from workloads import WORKLOADS

SETUP_REPS = 5
MIN_REPS = 2   # untraced: at least this many repeats, even past --seconds

MODULES = {"env": env, "data": data, "prompts": prompts, "diffusion": diffusion,
           "inverse_dynamics": inverse_dynamics, "policies": policies,
           "pipeline": pipeline, "nn": nn, "storage": storage}


def blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return {"name": "unknown", "version": "unknown"}


def ratio(num, den):
    return num / den if den else 0.0


def traced_derived(tr, run_s):
    c, st = tr.counts, tr.stats
    label = st.get("inverse_dynamics.label_video")
    return {
        "data.collect.success_ratio": ratio(c.get("data.episodes_succeeded", 0),
                                            c.get("data.episodes_attempted", 0)),
        "pipeline.demo_keep_ratio": ratio(c.get("pipeline.demos_kept", 0),
                                          c.get("pipeline.demos_generated", 0)),
        "inverse_dynamics.frames_encoded_per_video": ratio(
            c.get("inverse_dynamics.frames_encoded_in_label", 0), label.calls if label else 0),
        "policies.rt1.frames_encoded_per_step": ratio(
            c.get("policies.rt1.frames_encoded_in_act", 0), c.get("policies.rt1.act_rows", 0)),
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - tr.top_level_s,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--imports-only", action="store_true",
                    help="print the seconds from process start to here, and exit")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reps", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    import_s = time.time() - args.spawned_at
    if args.imports_only:
        sys.stdout.write(json.dumps({"import_s": import_s}) + "\n")
        return 0
    wl = WORKLOADS[args.workload]

    setup_reps_s = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = perf_counter()
        inputs = wl.setup(args.seed)
        setup_reps_s.append(perf_counter() - t0)

    tr = counters = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install(MODULES)
    else:
        counters = tracing.install_counters(MODULES)

    reps_s, digests, works, failures, attempted, failed = [], [], [], [], 0, 0
    spans = None
    t_begin = perf_counter()
    while True:
        # A traced run makes two repeats: spans and counts come from the
        # first; the second runs under tracemalloc, whose per-allocation cost
        # would distort span times, and gives only the stages' peak memory.
        memory_pass = tr is not None and len(reps_s) == 1
        repdir = os.path.join(args.workdir, f"rep{len(reps_s)}")
        os.makedirs(repdir)
        before = dict(counters) if counters is not None else None
        gc.collect()
        if memory_pass:
            spans, counts = tr.span_table(), dict(tr.counts)
            derived = traced_derived(tr, reps_s[0])
            tr.reset()
            tracemalloc.start()
        t0 = perf_counter()
        out = wl.run(inputs, repdir)
        dt = perf_counter() - t0
        if memory_pass:
            tracemalloc.stop()
            derived["trace.memory_pass_s"] = dt
            for name, st in tr.stats.items():
                if st.peak:
                    spans[name]["peak_traced_mb"] = st.peak / 2**20
        else:
            reps_s.append(dt)
        n, fails = wl.check(out)
        attempted += n
        failed += len({item for item, _ in fails})
        failures.extend(f"repeat {len(digests)}: {item}: {msg}" for item, msg in fails)
        digests.append(wl.digest(out))
        work = wl.work(out)
        if counters is not None:
            work.update({k: counters[k] - before[k] for k in counters})
        works.append(work)
        del out
        shutil.rmtree(repdir)
        if memory_pass:
            break
        if tr is None and (len(reps_s) >= args.reps if args.reps else
                           len(reps_s) >= MIN_REPS and perf_counter() - t_begin >= args.seconds):
            break
    for bad, msg in ((len(set(digests)) != 1, f"outputs differ between repeats: {digests}"),
                     (any(w != works[0] for w in works), "work counts differ between repeats")):
        if bad:
            failed += 1
            failures.append(msg)

    run_s = statistics.median(reps_s)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "definition_hash": storage.config_hash(wl.definition),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "package_file": minimanip.__file__,
        "import_s": import_s,
        "setup_reps_s": setup_reps_s,
        "setup_once_s": statistics.median(setup_reps_s),
        "setup_s": import_s + statistics.median(setup_reps_s),
        "reps_s": reps_s,
        "run_s": run_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "outputs_digest": digests[0],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "work": works[0],
    }
    if tr is not None:
        report.update(spans=spans, counts=counts, derived=derived)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
