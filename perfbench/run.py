"""Benchmark of lattisketch: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload {train,heal,embed-edges,all} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in its own process. ``--smoke``
uses the tiny model and a few operations, for the benchmark's own tests.
Result and trace files go to ``perfbench/out/``. See README.md.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads, so figures do not depend
# on a machine's core count or on what runs on its other cores.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import json
import resource
import shutil
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sketch_data.rasterize_ms": "ms",
    "lattice.sample_ms": "ms",
    "trainer.prepare_items_ms": "ms",
    "params.save_ms": "ms",
    "params.load_ms": "ms",
    "bench.setup_other_ms": "ms",
    "lattice.mask_ms": "ms",
    "lattice.sample_op_ms": "ms",
    "graph_builder.build_ms": "ms",
    "graph_builder.calls": "count/op",
    "graph_builder.stored_entries": "count/op",
    "graph_builder.edge_fraction": "ratio",
    "encoder.forward_ms": "ms",
    "encoder.backward_ms": "ms",
    "encoder.latent_ms": "ms",
    "decoder.teacher_forced_ms": "ms",
    "decoder.teacher_forced_backward_ms": "ms",
    "decoder.generate_ms": "ms",
    "decoder.step_us": "us",
    "decoder.sampled_steps": "count/op",
    "trainer.clip_ms": "ms",
    "trainer.adam_ms": "ms",
    "trainer.step_self_ms": "ms",
    "pipeline_eval.heal_self_ms": "ms",
    "pipeline_eval.encode_raster_self_ms": "ms",
    "bench.op_self_ms": "ms",
    "trace.count_ms": "ms",
    "trace.op_ms_p50": "ms",
    "trace.overhead_ms": "ms",
}
MIN_TIMED_OPS = 110   # at least ten timed operations lie beyond the 90th percentile
SMOKE_TIMED_OPS = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def timed_op_count(wl, seconds: float, smoke: bool) -> int:
    if smoke:
        return SMOKE_TIMED_OPS
    return max(MIN_TIMED_OPS, round(seconds * wl.ops_per_s))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, run the fixed operation list, check it; returns the result object."""
    from lattisketch.errors import LattisketchError

    import tracing
    import workloads

    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    try:
        setup_times, setup_ids = [], []

        def set_up():
            """One timed set-up of a fresh workload object; returns the object."""
            fresh = workloads.WORKLOADS[name](seed, smoke, workdir)
            if trace:
                tracer.op = f"setup{len(setup_ids)}"
                setup_ids.append(tracer.op)
                tracer.install()
            t0 = perf_counter()
            tracer.call("setup", fresh.setup) if trace else fresh.setup()
            setup_times.append(perf_counter() - t0)
            tracer.uninstall()
            return fresh

        wl = set_up()
        ops = wl.op_list(wl.warmup + timed_op_count(wl, seconds, smoke))
        # The median of several set-ups is reported. The repeats are spread
        # over the run and their results dropped, so one slow moment of the
        # machine does not set the figure.
        repeat_at = {len(ops) * r // wl.setups for r in range(1, wl.setups)}
        outputs, untraced, traced, traced_ids = [], [], [], []
        failed = 0
        for k, op in enumerate(ops):
            if k in repeat_at:
                set_up()
            # the traced run alternates traced and untraced operations, so the
            # tracing overhead is measured on the same operation list
            on = trace and k >= wl.warmup and (k - wl.warmup) % 2 == 1
            if on:
                tracer.op = k
                traced_ids.append(k)
                tracer.install()
            t0 = perf_counter()
            try:
                out = tracer.call("op", wl.run, op) if on else wl.run(op)
            except LattisketchError as exc:
                print(f"op {k} failed: {exc.code}: {exc}", file=sys.stderr)
                failed += 1
                out = None
            dt = perf_counter() - t0
            tracer.uninstall()
            outputs.append(out)
            if k >= wl.warmup and out is not None:
                (traced if on else untraced).append(dt)
        # taken before the checks, whose reference computations are not the program's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = wl.check(ops, outputs)
        for text in problems:
            print(f"check failed: {text}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = tracer.summarize(traced_ids, setup_ids)
        metrics["trace.op_ms_p50"] = 1000.0 * statistics.median(traced)
        metrics["trace.overhead_ms"] = metrics["trace.op_ms_p50"] - 1000.0 * statistics.median(untraced)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_ms_p50": 1000.0 * statistics.median(untraced),
            "op_ms_p90": 1000.0 * statistics.quantiles(untraced, n=10)[-1],
            "items_per_s": wl.items_per_op * len(untraced) / sum(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": float(metrics[m]), "unit": u} for m, u in units.items()},
    }
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
               "smoke": smoke, "threads": THREADS, "nproc": os.cpu_count(),
               "setup_times_s": setup_times, "op_ms": [1000.0 * t for t in untraced],
               "problems": problems, **result}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")
    return result


def run_all(args) -> int:
    """Each workload in its own process; one JSON line per workload."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "exit_code": proc.returncode}))
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(json.dumps({"workload": name, **result}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lattisketch" / "__init__.py").is_file():
        print(f"no lattisketch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
