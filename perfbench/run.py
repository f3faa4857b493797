"""Performance benchmark of i2vmatch: one workload per run, one process.

    python3 perfbench/run.py --workload train-t4 --seed 0 --seconds 30 --trace 0

Run from the repository root (or any copy of it holding ``src/``). The
program is imported from ``src/`` beside this directory, never from an
installed copy. ``--trace 0`` measures the end-to-end metrics with no
wrappers in place; ``--trace 1`` spends a third of the time untraced and the
rest with per-module spans, and reports the per-layer metrics. The last line
of standard output is one JSON object; the lines before it print every
metric by name and unit, the environment and the determinism fingerprint.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-t4", "train-t16", "eval-gallery", "gradcheck")
# pinned before numpy is imported: OpenBLAS would otherwise thread the
# 256-row matmuls of train-t16 against the single Python thread
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# counters that must read the same in every traced unit
EXACT_COUNTERS = ("encoders.encode_video", "encoders.nonlocal", "losses.triplet",
                  "autodiff.pairwise_euclidean.fwd", "autodiff.tape_entries",
                  "autodiff.fd_evals")
# counted and kept in the report line, but not in the result line: only the
# gradcheck workload, which BENCHMARK.json does not list, runs the
# finite-difference harness
REPORT_ONLY = ("autodiff.fd_evals",)


def import_program():
    package = SRC / "i2vmatch"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no i2vmatch sources at {package}")
    sys.path.insert(0, str(SRC))
    import i2vmatch
    if Path(i2vmatch.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported i2vmatch from {i2vmatch.__file__}, not {package}")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": {k: os.environ[k] for k in BLAS_THREADS},
        "commit": git_commit(),
    }


def measure(workload, seconds: float, trace: bool):
    """Warm up, then run units back to back until ``seconds`` would be
    exceeded. Returns (tally, {phase: iteration seconds}, traced windows,
    tracer)."""
    from tracing import Tracer
    from workloads import Tally

    tally = Tally()
    tracer = Tracer() if trace else None
    iters: dict[str, list[float]] = {"untraced": [], "traced": []}
    windows = []
    # with tracing on, set-up and warm-up are traced too, so that the
    # per-call cost of dataset generation is seen on every workload
    phases = [("untraced", seconds / 3), ("traced", seconds)] if trace else [("untraced", seconds)]
    try:
        if tracer:
            tracer.install()
        workload.prepare(tally)
        workload.run_unit(tally, tracer, warm=True)
        if tracer:
            tracer.restore()
        start = perf_counter()
        for phase, until in phases:
            active = tracer if phase == "traced" else None
            if active:
                active.install()
            while True:  # at least one unit; stop before one more would overrun
                t0 = perf_counter()
                unit = workload.run_unit(tally, active)
                iters[phase] += unit.iter_s
                if unit.window:
                    windows.append(unit.window)
                now = perf_counter()
                if now - start + (now - t0) > until:
                    break
    finally:
        if tracer:
            tracer.restore()
    return tally, iters, windows, tracer


def end_to_end(workload, tally, iters) -> tuple[dict, dict]:
    """Gated metrics (generic across workloads) and the same figures under
    the workload's own names."""
    import numpy as np

    x = np.asarray(iters)
    p50 = float(np.median(x))
    items_per_s = workload.items_per_iter * x.size / float(x.sum())
    gated = {
        # the upper quartile, like iterations: see README.md
        "setup_s": (float(np.percentile(tally.setup_s, 75)), "s"),
        "iter_ms_p75": (1000.0 * float(np.percentile(x, 75)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if workload.units == "steps":
        named = {
            "train_step_ms_p50": (1000.0 * p50, "ms"),
            "train_step_ms_p99": (1000.0 * float(np.percentile(x, 99)), "ms"),
            "train_clips_per_s": (items_per_s, "1/s"),
        }
    elif workload.item == "videos":
        named = {
            "eval_pass_ms_p50": (1000.0 * p50, "ms"),
            "eval_pass_ms_p90": (1000.0 * float(np.percentile(x, 90)), "ms"),
            "eval_videos_per_s": (items_per_s, "1/s"),
        }
    else:
        named = {
            "gradcheck_s": (p50, "s"),
            "gradcheck_evals_per_s": (items_per_s, "1/s"),
        }
    named = {"setup_s": gated["setup_s"], **named, "peak_rss_mb": gated["peak_rss_mb"],
             "error_rate": (tally.failed / tally.attempted, "ratio")}
    return gated, named


def per_layer(workload, tracer, iters, windows) -> tuple[dict, bool]:
    """Per-layer metrics per step or pass over the traced windows, and
    whether every exact counter read the same in each traced unit."""
    traced = iters["traced"]
    n, busy = len(traced), sum(traced)
    sec: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    top = 0.0
    unit_counts = set()
    for (s0, c0, t0), (s1, c1, t1) in windows:
        for k, v in s1.items():
            sec[k] += v - s0.get(k, 0.0)
        for k, v in c1.items():
            calls[k] += v - c0.get(k, 0)
        top += t1 - t0
        unit_counts.add(tuple(c1.get(k, 0) - c0.get(k, 0) for k in EXACT_COUNTERS))

    def ms(name):
        return (1000.0 * sec[name] / n, "ms")

    def count(name):
        return (calls[name] / n, "count")

    generate_calls = tracer.calls.get("data.generate", 0)
    metrics = {
        "data.sample_ms": ms("data.sample"),
        "data.generate_s": (tracer.seconds["data.generate"] / generate_calls
                            if generate_calls else 0.0, "s"),
        "encoders.encode_clip_batch_ms": ms("encoders.encode_clip_batch"),
        "encoders.encode_video_ms": ms("encoders.encode_video"),
        "encoders.encode_video_calls": count("encoders.encode_video"),
        "encoders.nonlocal_ms": ms("encoders.nonlocal"),
        "encoders.nonlocal_calls": count("encoders.nonlocal"),
        "encoders.encode_image_ms": ms("encoders.encode_image"),
        "losses.loss_terms_ms": ms("losses.loss_terms"),
        "losses.triplet_ms": ms("losses.triplet"),
        "losses.triplet_calls": count("losses.triplet"),
        "losses.transfer_dist_ms": ms("losses.transfer_dist"),
        "losses.pairwise_euclidean_ms": ms("autodiff.pairwise_euclidean.fwd"),
        "losses.pairwise_euclidean_calls": count("autodiff.pairwise_euclidean.fwd"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.tape_entries": count("autodiff.tape_entries"),
        "autodiff.fd_evals": count("autodiff.fd_evals"),
    }
    from tracing import PRIMITIVES
    for op in PRIMITIVES:
        metrics[f"autodiff.{op}.fwd_ms"] = ms(f"autodiff.{op}.fwd")
        metrics[f"autodiff.{op}.calls"] = count(f"autodiff.{op}.fwd")
    metrics.update({
        "training.adam_ms": ms("training.adam"),
        # the training loop's own code: zero_grad, term sum, item, JSON log
        "training.loop_self_ms": (1000.0 * (busy - top) / n if workload.units == "steps"
                                  else 0.0, "ms"),
        "evaluation.extract_gallery_ms": ms("evaluation.extract_gallery"),
        "evaluation.rank_ms": ms("evaluation.rank"),
        "evaluation.cmc_ms": ms("evaluation.cmc"),
        "evaluation.map_ms": ms("evaluation.map"),
        "trace.untraced_iter_ms_p50": (1000.0 * statistics.median(iters["untraced"]), "ms"),
        "trace.traced_iter_ms_p50": (1000.0 * statistics.median(traced), "ms"),
        "trace.span_coverage_pct": (100.0 * top / busy, "%"),
    })
    return metrics, len(unit_counts) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="i2vmatch performance benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    os.environ.update(BLAS_THREADS)
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tally, iters, windows, tracer = measure(workload, args.seconds, bool(args.trace))
    if not iters["untraced"] or (args.trace and not iters["traced"]):
        print("perfbench: no unit completed; " + "; ".join(tally.problems), file=sys.stderr)
        return 1

    gated, named = end_to_end(workload, tally, iters["untraced"])
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(),
              f"{workload.units}_timed": len(iters["untraced"]),
              "setups_timed": len(tally.setup_s),
              "problems": tally.problems}
    fingerprint = getattr(workload, "fingerprint", None)
    if fingerprint:
        report["fingerprint"] = fingerprint
    if args.trace:
        metrics, report["counters_exact"] = per_layer(workload, tracer, iters, windows)
        report[f"{workload.units}_traced"] = len(iters["traced"])
    else:
        metrics = gated
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in {**named, **metrics}.items()}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(iters['untraced'])} {workload.units} timed")
    print("env " + json.dumps(report["env"]))
    if fingerprint:
        print("fingerprint " + json.dumps(fingerprint))
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in REPORT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
