"""Smoke tests of the benchmark itself: a few steps of every workload.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import calibration
import run
import workloads as wl
from dualmpc import qp


@pytest.fixture
def short(monkeypatch):
    """Three steps, one episode and one set-up per run; a two-epoch fit."""
    for name in wl.WORKLOADS:
        monkeypatch.setitem(wl.STEPS, name, 3)
        monkeypatch.setitem(wl.EPISODES, name, 1)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(wl, "TWOMASS_EPOCHS", 2)


def declared(kind):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(short, workload, trace):
    lines, result = run.measure(workload, seed=1, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 3 and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    assert lines[0]["environment"]["seed"] == 1
    json.dumps(result)


def test_per_layer_metrics_say_what_they_should_move():
    assert set(run.PER_LAYER_MOVES) == set(declared("per_layer"))


def test_same_seed_repeats_counts_and_other_seed_changes_inputs(short):
    digests = [run.measure("dual_track", seed, 0, False)[0][1]["run"]["counts_digest"]
               for seed in (1, 1)]
    assert digests[0] == digests[1]
    setup = wl.set_up("dual_track")
    a, b = (wl.episode("dual_track", setup, seed, 0) for seed in (1, 2))
    assert not np.array_equal(a.noise, b.noise)


def test_package_error_ends_the_episode_and_counts_remaining_steps(short, monkeypatch):
    real_solve = qp.solve
    calls = {"projection": 0}

    def failing_solve(prob, *args, **kwargs):
        # The projection QP is the only one with a 2*M Hessian over 44 variables.
        if prob.n == 44:
            calls["projection"] += 1
            if calls["projection"] == 3:
                raise np.linalg.LinAlgError("injected")
        return real_solve(prob, *args, **kwargs)

    monkeypatch.setitem(wl.STEPS, "dual_track", 10)
    monkeypatch.setattr(qp, "solve", failing_solve)
    lines, result = run.measure("dual_track", seed=1, seconds=0, trace=False)
    crash = lines[1]["run"]["crashes"][0]
    assert crash["type"] == "LinAlgError"
    assert crash["chain"].startswith("constrained_correct > project_weighted")
    assert result["attempted"] == 10
    assert result["failed"] == 10 - crash["step"] > 0


def test_reference_kernels_stay_out_of_step_and_loop_times(short, monkeypatch):
    def slow_kernel():
        t0 = run.CLOCK()
        while run.CLOCK() - t0 < 0.02:
            pass

    setup = wl.set_up("tube_track")
    ep = wl.episode("tube_track", setup, 1, 0)
    plain = wl.run_episode(setup, ep, run.CLOCK)
    monkeypatch.setattr(calibration, "kernel", slow_kernel)
    slow = wl.run_episode(setup, ep, run.CLOCK)
    assert len(slow.ref_s) == len(plain.ref_s) == 3
    assert min(slow.ref_s) >= wl.CAL_KERNELS * 0.02
    assert slow.loop_s < 0.5 * sum(slow.ref_s)
    assert max(slow.step_ms) < 1e3 * wl.CAL_KERNELS * 0.02
    assert slow.scale < plain.scale
    assert max(slow.step_scales()) < min(plain.step_scales())


def test_warnings_and_lapack_prints_are_counted_not_printed(tmp_path, capfd):
    counts = run.WarningCounts()
    with counts.capture(tmp_path / "native.log"):
        warnings.warn_explicit("overflow encountered in divide", RuntimeWarning, qp.__file__, 1)
        os.write(1, b" ** On entry to DLASCL parameter number  4 had an illegal value\n")
    assert counts.runtime("setup", "qp") == 1
    assert counts.runtime("loop", "qp") == 0
    assert counts.lapack == 1
    assert capfd.readouterr() == ("", "")


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dual_track",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
