"""Closed-loop dual tube MPC benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload dual_track --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's ``src/``.  A run sets the
workload up several times (``setup_s`` is the median), draws a fixed set of
episodes from ``--seed``, runs them once, then replays the same episodes as
often as fits in ``--seconds``; every replay must repeat the first pass's
counts exactly, or the run fails.  Step, loop, set-up and span times are the
process's CPU time (``time.process_time``), put on a reference machine by the
reference kernels timed next to them (bench/calibration.py); the CPU times
as measured are printed too.  Only the run's length is wall time.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs each episode untraced and then traced, and reports the
per-layer metrics.  Spans go to
``bench/out/<workload>-<seed>.spans.jsonl``; what native code prints (LAPACK
errors) goes to ``bench/out/<workload>-<seed>.native.log`` and is counted.

Standard output: JSON lines describing the run (environment, episodes and
crashes, extra counts), then, as the last line, the result object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A step is
attempted when it is scheduled and failed when it does not complete; the
result is correct when every completed step passed the output checks.

Seeds 1 to 10 were used to tune the benchmark; check a claim on a seed
outside that range too.  Smoke test: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import platform
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibration  # noqa: E402
import dualmpc  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

if not Path(dualmpc.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"dualmpc comes from {dualmpc.__file__}, not from {ROOT / 'src'}")

# Set-up runs at least SETUPS times and for at least SETUP_MIN_S seconds.
SETUPS = 3
SETUP_MIN_S = 1.0
MIN_TIMED_STEPS = 200
# Step, loop, set-up and span times are this process's CPU time: the run is
# one process with one BLAS thread, and CPU time leaves out the time other
# processes on the machine hold the processor.  The run's length is wall time.
CLOCK = time.process_time
WALL = time.perf_counter
# Reference kernels timed before and after every set-up.
SETUP_CAL_KERNELS = 20

# Per-layer metric -> the end-to-end metric and workload it should move.
PER_LAYER_MOVES = {
    "qp.solve.tube.ms": "steps_per_s, loop.step_ms_p50 on tube_track",
    "qp.solve.tube.iters": "steps_per_s, loop.step_ms_p50 on tube_track",
    "tmpc.solve_tmpc.self_ms": "steps_per_s on tube_track",
    "rci.rci_constraint_block.ms": "steps_per_s on tube_track",
    "qp.validate.ms": "steps_per_s on all workloads",
    "qp.project_weighted.ms": "steps_per_s, step_ms_p95 on dual_track and twomass_track; "
                              "flat on tube_track",
    "qp.solve.projection.iters": "steps_per_s, step_ms_p95 on dual_track and twomass_track",
    "qp.solve.projection.max_iter": "steps_per_s, step_ms_p95 and loop.fail_ratio on "
                                    "dual_track and twomass_track",
    "polytope.barycentric_lambda.ms": "loop.step_ms_p50 on tube_track",
    "qp.solve.lambda.iters": "loop.step_ms_p50 on tube_track",
    "polytope.lambda_relaxed": "loop.degraded_ratio on tube_track",
    "estimator.build_theta_polytope.ms": "steps_per_s on dual_track",
    "estimator.constrained_correct.self_ms": "steps_per_s on dual_track",
    "estimator.fallback": "loop.degraded_ratio on dual_track",
    "estimator.predict.ms": "steps_per_s on all workloads",
    "qlpv.jacobians.ms": "steps_per_s on all workloads",
    "qlpv.jacobians.calls": "steps_per_s on all workloads",
    "sysid.mse_and_gradient.calls": "setup_s on twomass_track",
    "sysid.mse_and_gradient.setup_share": "setup_s on twomass_track",
    "sysid.simulate_mse.calls": "setup_s on twomass_track",
    "sysid.simulate_mse.setup_share": "setup_s on twomass_track",
    "sysid.epochs": "setup_s on twomass_track",
    "qp.solve.rci.iters": "setup_s; recorded so that a shift shows",
    "plant.step.ms": "steps_per_s on twomass_track; recorded so that a shift shows",
    "warnings.qp": "loop.fail_ratio on dual_track and twomass_track; RuntimeWarnings "
                   "raised in qp during the loop, per pass",
    "warnings.sysid": "setup_s on twomass_track; RuntimeWarnings raised in sysid and "
                      "qlpv during set-up, per set-up",
    "bench.trace_overhead_ms": "none; the cost of tracing",
    "bench.traced_step_ms": "none; the step time the layer self times add up to",
    "bench.unattributed_ms": "none; step time outside every traced layer",
    "loop.step_ms_p50": "untraced; too unsteady across seeds on dual_track to bound",
    "loop.fail_ratio": "the outcome of qp.solve.projection.max_iter and warnings.qp",
    "loop.degraded_ratio": "the outcome of estimator.fallback and polytope.lambda_relaxed",
    "loop.y_viol_ratio": "track_rmse on every workload",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself, not the program under test, went wrong."""


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "epochs": wl.TWOMASS_EPOCHS if workload == "twomass_track" else 0,
        "episodes": wl.EPISODES[workload], "steps": wl.STEPS[workload],
    }


class WarningCounts:
    """Counts warnings by phase (``phase``: "setup" or "loop") and by the
    package module whose line raised them, instead of printing them, and the
    LAPACK error lines OpenBLAS writes straight to file descriptors 1 and 2,
    which would otherwise mix with the result."""

    def __init__(self):
        self.by_module: Counter = Counter()
        self.lapack = 0
        self.phase = "setup"

    @contextlib.contextmanager
    def capture(self, path: Path):
        sys.stdout.flush()
        sys.stderr.flush()
        saved = [os.dup(1), os.dup(2)]
        with warnings.catch_warnings(), open(path, "w+") as sink:
            warnings.simplefilter("always")
            warnings.showwarning = self._count
            os.dup2(sink.fileno(), 1)
            os.dup2(sink.fileno(), 2)
            try:
                yield
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                ctypes.CDLL(None).fflush(None)  # C stdio buffers of native code
                for fd, copy in zip((1, 2), saved):
                    os.dup2(copy, fd)
                    os.close(copy)
                sink.seek(0)
                lines = sink.read().splitlines()
        self.lapack += sum("On entry to" in line for line in lines)
        rest = [line for line in lines if "On entry to" not in line]
        if rest:
            sys.stderr.write("\n".join(rest) + "\n")

    def _count(self, message, category, filename, lineno, file=None, line=None):
        path = Path(filename)
        module = path.stem if path.parent.name == "dualmpc" else "other"
        self.by_module[f"{self.phase}:{category.__name__}:{module}"] += 1

    def runtime(self, phase: str, *modules: str) -> int:
        return sum(self.by_module[f"{phase}:RuntimeWarning:{m}"] for m in modules)


def set_up(workload: str) -> tuple[wl.Setup, list[float], list[float]]:
    """The set-up, and the time of each repetition on the reference machine
    (scaled by the reference kernels timed before and after it) and as
    measured."""
    scaled, raw, setup = [], [], None
    ref = calibration.timed(CLOCK, SETUP_CAL_KERNELS)
    while len(raw) < SETUPS or sum(raw) < SETUP_MIN_S:
        t0 = CLOCK()
        setup = wl.set_up(workload)
        raw.append(CLOCK() - t0)
        ref_after = calibration.timed(CLOCK, SETUP_CAL_KERNELS)
        scaled.append(raw[-1] * calibration.REF_S * 2 * SETUP_CAL_KERNELS / (ref + ref_after))
        ref = ref_after
    return setup, scaled, raw


def run_pass(setup, episodes) -> list:
    return [wl.run_episode(setup, ep, CLOCK) for ep in episodes]


def run_paired_pass(setup, episodes, tracer, label: str) -> tuple[list, list]:
    """Each episode untraced, then traced right after, so that the tracing
    overhead is taken between runs made under the same machine load."""
    untraced, traced = [], []
    for e, ep in enumerate(episodes):
        untraced.append(wl.run_episode(setup, ep, CLOCK))
        tracer.where = f"{label}e{e}"
        with tracer:
            traced.append(wl.run_episode(setup, ep, CLOCK, tracer.span))
    return untraced, traced


def check_repeats(first: list, again: list) -> None:
    for e, (a, b) in enumerate(zip(first, again)):
        if a.counts() != b.counts():
            raise BenchmarkError(f"episode {e} did not repeat: {a.counts()} != {b.counts()}")


def digest(results: list) -> str:
    return hashlib.sha256(repr([r.counts() for r in results]).encode()).hexdigest()[:16]


def rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else float("nan")


def quality(results: list, setup: wl.Setup) -> dict:
    """Per-pass outcome figures; they repeat exactly for the same seed."""
    scheduled = sum(r.scheduled for r in results)
    completed = sum(r.completed for r in results)
    clean = completed - sum(r.degraded for r in results)
    join = lambda attr: [v for r in results for v in getattr(r, attr)]  # noqa: E731
    theta_err = join("theta_err")
    return {
        "scheduled": scheduled, "completed": completed,
        "fail_ratio": 1.0 - completed / scheduled,
        "degraded_ratio": (completed - clean) / max(completed, 1),
        "y_viol_ratio": sum(r.y_viol for r in results) / max(completed, 1),
        "track_rmse": rms(join("y_err")),
        "est_y_rmse": rms(join("est_err")),
        "theta_err_rms": rms(theta_err) if theta_err else None,
        "fit_mse": setup.fit_mse,
        "fallback": sum(r.fallback for r in results),
        "lambda_relaxed": sum(r.relaxed for r in results),
        "u_out_of_box": sum(r.u_out_of_box for r in results),
        "infeasible_estimate": sum(r.infeasible_estimate for r in results),
        "tube_iters": sum(r.tube_iters for r in results),
        "crashes": [dict(episode=e, **r.crash) for e, r in enumerate(results) if r.crash],
    }


def pooled(passes: list, scaled: bool = True) -> tuple[list, float]:
    """(step ms of every completed step, summed loop seconds) over all passes,
    on the reference machine unless ``scaled`` is false."""
    results = [r for rs in passes for r in rs]
    step_ms = [v * (f if scaled else 1.0) for r in results
               for v, f in zip(r.step_ms, r.step_scales())]
    if len(step_ms) < 2:
        raise BenchmarkError(f"{len(step_ms)} completed steps are too few to time")
    return step_ms, sum(r.loop_s * (r.scale if scaled else 1.0) for r in results)


def quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list, setup_times: list, setup_raw: list,
               q: dict) -> tuple[dict, dict]:
    step_ms, loop_s = pooled(passes)
    metrics = {
        "steps_per_s": q["completed"] * len(passes) / loop_s,
        "step_ms_p95": quantile(step_ms, 95),
        "track_rmse": q["track_rmse"],
        "est_y_rmse": q["est_y_rmse"],
        "setup_s": statistics.median(setup_times),
    }
    raw_ms, raw_loop_s = pooled(passes, scaled=False)
    measured = {"steps_per_s": q["completed"] * len(passes) / raw_loop_s,
                "step_ms_p95": quantile(raw_ms, 95),
                "setup_s": statistics.median(setup_raw)}
    return metrics, {"step_ms_p50": quantile(step_ms, 50), "step_samples": len(step_ms),
                     "setup_s_all": setup_times, "measured_cpu": measured,
                     "scale": loop_s / raw_loop_s}


def per_layer(tracer, setup_raw: list, untraced: list, traced: list,
              counts: WarningCounts, q: dict) -> tuple[dict, dict]:
    steps = spans.reduce(tracer.spans, setup=False)
    setups = spans.reduce(tracer.spans, setup=True)
    n = steps["bench.step"]["calls"]
    n_setups = len(setup_raw)
    # Every episode run repeats the first pass's counts, warnings included,
    # so loop warnings are taken per pass: the untraced and the traced runs
    # of the episodes make two passes.
    n_passes = len(untraced) + len(traced)
    setup_total = sum(setup_raw)
    traced_ms, untraced_ms = pooled(traced)[0], pooled(untraced)[0]
    # Span times are measured; this puts them on the reference machine.
    scale = sum(traced_ms) / sum(pooled(traced, scaled=False)[0])

    def ms(name, key="total_s"):
        return 1e3 * scale * steps[name][key] / n

    def count(name, key):
        return steps[name]["counts"][key] / n

    iterations = list(spans.qp_iterations(tracer.spans).values())
    if any(it != iterations[0] for it in iterations):
        raise BenchmarkError(f"QP iteration totals differ between passes: {iterations}")
    attributed = sum(s["self_s"] for s in steps.values())
    if abs(attributed - steps["bench.step"]["total_s"]) > 1e-6:
        raise BenchmarkError("layer self times do not add up to the traced step time")
    metrics = {
        "qp.solve.tube.ms": ms("qp.solve.tube"),
        "qp.solve.tube.iters": count("qp.solve.tube", "iters"),
        "tmpc.solve_tmpc.self_ms": ms("tmpc.solve_tmpc", "self_s"),
        "rci.rci_constraint_block.ms": ms("rci.rci_constraint_block"),
        "qp.validate.ms": ms("qp.validate"),
        "qp.project_weighted.ms": ms("qp.project_weighted"),
        "qp.solve.projection.iters": count("qp.solve.projection", "iters"),
        "qp.solve.projection.max_iter": count("qp.solve.projection", "max_iter"),
        "polytope.barycentric_lambda.ms": ms("polytope.barycentric_lambda"),
        "qp.solve.lambda.iters": count("qp.solve.lambda", "iters"),
        "polytope.lambda_relaxed": count("polytope.barycentric_lambda", "lambda_relaxed"),
        "estimator.build_theta_polytope.ms": ms("estimator.build_theta_polytope"),
        "estimator.constrained_correct.self_ms": ms("estimator.constrained_correct", "self_s"),
        "estimator.fallback": count("estimator.constrained_correct", "fallback"),
        "estimator.predict.ms": ms("estimator.predict"),
        "qlpv.jacobians.ms": ms("qlpv.jacobians"),
        "qlpv.jacobians.calls": steps["qlpv.jacobians"]["calls"] / n,
        "sysid.mse_and_gradient.calls": setups["sysid.mse_and_gradient"]["calls"] / n_setups,
        "sysid.mse_and_gradient.setup_share":
            setups["sysid.mse_and_gradient"]["total_s"] / setup_total,
        "sysid.simulate_mse.calls": setups["sysid.simulate_mse"]["calls"] / n_setups,
        "sysid.simulate_mse.setup_share": setups["sysid.simulate_mse"]["total_s"] / setup_total,
        "sysid.epochs": setups["sysid.fit_initial_model"]["counts"]["epochs"] / n_setups,
        "qp.solve.rci.iters": setups["qp.solve.rci"]["counts"]["iters"] / n_setups,
        "plant.step.ms": ms("bench.plant_step"),
        "warnings.qp": counts.runtime("loop", "qp") / n_passes,
        "warnings.sysid": counts.runtime("setup", "sysid", "qlpv") / n_setups,
        "bench.trace_overhead_ms": statistics.fmean(traced_ms) - statistics.fmean(untraced_ms),
        "bench.traced_step_ms": statistics.fmean(traced_ms),
        "bench.unattributed_ms": ms("bench.step", "self_s"),
        "loop.step_ms_p50": quantile(untraced_ms, 50),
        "loop.fail_ratio": q["fail_ratio"],
        "loop.degraded_ratio": q["degraded_ratio"],
        "loop.y_viol_ratio": q["y_viol_ratio"],
    }
    # Self time per step of every span name; the values add up to the traced
    # step time.
    self_ms = {name: ms(name, "self_s") for name in sorted(steps)}
    return metrics, {"spans": len(tracer.spans), "self_ms_per_step": self_ms, "scale": scale}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, dict]:
    """Run one workload; returns (description lines, result object)."""
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    counts = WarningCounts()
    tracer = spans.Tracer(CLOCK)
    with counts.capture(OUT / f"{workload}-{seed}.native.log"):
        with tracer if trace else contextlib.nullcontext():
            setup, setup_times, setup_raw = set_up(workload)
        counts.phase = "loop"
        episodes = [wl.episode(workload, setup, seed, e) for e in range(wl.EPISODES[workload])]
        start = WALL()
        first, passes, untraced = None, [], []
        pass_s, timed = 0.0, 0
        # Whole passes: the first one always, then as many as fit in
        # ``seconds``, and more until the p95 step time has ten samples
        # beyond it, as long as they fit in twice ``seconds``.
        while (first is None or WALL() - start + pass_s <= seconds
               or timed < MIN_TIMED_STEPS and WALL() - start + pass_s <= 2 * seconds):
            t0 = WALL()
            if trace:
                plain, again = run_paired_pass(setup, episodes, tracer, f"p{len(passes)}")
            else:
                plain = again = run_pass(setup, episodes)
            if first is None:
                first = plain
            check_repeats(first, plain)
            check_repeats(first, again)
            untraced.append(plain)
            passes.append(again)
            pass_s = WALL() - t0
            timed += sum(r.completed for r in again)
        measured_s = WALL() - start

    q = quality(first, setup)
    if trace:
        metrics, extra = per_layer(tracer, setup_raw, untraced, passes, counts, q)
        tracer.dump(OUT / f"{workload}-{seed}.spans.jsonl")
    else:
        metrics, extra = end_to_end(passes, setup_times, setup_raw, q)
    if set(metrics) != set(declared):
        raise BenchmarkError(f"metrics {sorted(metrics)} differ from {sorted(declared)}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise BenchmarkError(f"non-finite metrics: {bad}")

    run = {**{k: (None if isinstance(v, float) and not math.isfinite(v) else v)
              for k, v in q.items()},
           **extra, "passes": len(passes), "measured_s": measured_s,
           "counts_digest": digest(first),
           "warnings": dict(counts.by_module), "lapack_errors": counts.lapack}
    result = {
        # The output checks of every completed step passed.
        "correct": q["u_out_of_box"] == 0 and q["infeasible_estimate"] == 0,
        "attempted": q["scheduled"],
        "failed": q["scheduled"] - q["completed"],
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    return [{"environment": environment(workload, seed)}, {"run": run}], result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(json.dumps(line))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
