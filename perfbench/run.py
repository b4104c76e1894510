"""Run one rfdm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {pipeline,loocv,infer} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout holding `src/rfdm`. With `--trace 0` the
last line of standard output is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with `--trace 1` they are its
per-layer metrics, from a separate traced run. The line before it is a JSON
report: host record, the workload's own named figures, quality outputs and,
when traced, the tracing overhead. Both are also kept under
`.perfbench_out/` in the checkout, with the spans of a traced run.
"""

import os

# One BLAS thread and one fold worker: all load comes from this process, and
# the timings do not depend on how busy the other core is. Set before numpy
# is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["RFDM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, per_layer_metrics  # noqa: E402
from workloads import PACKAGE, ROOT, WORKLOADS, Sizes  # noqa: E402

OUT = ROOT / ".perfbench_out"


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def host_record():
    cpu = platform.processor()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "fold_workers": int(os.environ["RFDM_THREADS"]),
            "numba_importable": importlib.util.find_spec("numba") is not None}


def peak_rss_mb():
    # ru_maxrss is the high-water mark of this whole process, in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_ops(wl, seconds, min_ops):
    """Timed operations until `seconds` of measured time and at least
    `min_ops` of them; returns the measured time. An operation that raises
    counts as `wl.checks` failed checks."""
    measured, i = 0.0, 0
    while measured < seconds or i < min_ops:
        start = time.perf_counter()
        try:
            measured += wl.op(i)
        except Exception:
            traceback.print_exc()
            wl.count(wl.checks, wl.checks)
            measured += time.perf_counter() - start
        i += 1
    return measured


def timed_setups(wl, reps):
    times = []
    for rep in range(reps):
        wl.clean()
        start = time.perf_counter()
        wl.setup(rep)
        times.append(time.perf_counter() - start)
    return times


def run_untraced(wl, seconds):
    setups = timed_setups(wl, wl.sizes.setup_reps)
    wl.prepare()
    run_ops(wl, seconds, wl.min_ops())
    info = {"setup_s_each": setups, "peak_rss_mb": [peak_rss_mb(), "MB"]}
    if not wl.walls:  # every operation failed: nothing to measure
        return {}, info
    metrics = {**wl.metrics(), "setup_s": statistics.median(setups),
               "peak_rss_mb": info["peak_rss_mb"][0]}
    return metrics, info


def run_traced(wl, spans_path):
    """One traced set-up, then the same operations untraced and traced."""
    tracer = Tracer(PACKAGE)
    n = wl.traced_ops()
    with tracer.installed():
        timed_setups(wl, 1)
    wl.prepare()
    untraced = run_ops(wl, 0, n)
    first = len(tracer.spans)
    with tracer.installed():
        traced = run_ops(wl, 0, n)
    tracer.write(spans_path)
    pass_stats = tracer.aggregate(first)
    self_sum = sum(s[2] for s in pass_stats.values())
    overhead = traced - untraced
    info = {"traced_wall_s": traced, "untraced_wall_s": untraced,
            "tracing_overhead_s": overhead,
            "top_level_self_sum_s": self_sum,
            "unattributed_s": traced - self_sum,
            "self_sum_within_overhead": traced - self_sum <= abs(overhead),
            "waiting": "absent: one thread, fold workers = 1, no queue or lock",
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return per_layer_metrics(tracer.aggregate(), tracer.computed), info


def run(name, seed, seconds, trace, sizes=Sizes()):
    """Run one workload; returns (result line dict, report dict)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, sizes, work)
        if trace:
            values, info = run_traced(wl, OUT / f"spans-{tag}.jsonl")
        else:
            values, info = run_untraced(wl, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # a layer the workload does not reach has no spans: it reads 0; a run in
    # which no operation completed reports no metrics, and is not correct
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if trace else values[m["name"]],
                           "unit": m["unit"]} for m in wanted if wl.walls}
    result = {"correct": wl.failed == 0 and bool(wl.walls), "attempted": wl.attempted,
              "failed": wl.failed, "metrics": metrics}
    report = {"workload": name, "seed": seed, "trace": int(trace), "host": host_record(),
              "error_rate": wl.failed / max(wl.attempted, 1), **info,
              **(wl.report() if wl.walls else {"completed_ops": 0})}
    (OUT / f"report-{tag}.json").write_text(json.dumps({"report": report, "result": result},
                                                       indent=1))
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
