"""Tests of the benchmark itself: inputs, checker, tracer and counts.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import calibration  # noqa: E402
import checker  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CONFIGS = workloads.load_configs(ROOT)
EXACT_COUNTS = ("hafnian.subset_terms", "sampling.outcomes", "model.grid_points", "hafnian.calls")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.canonical(workloads.generate(workload, 11, CONFIGS))
    again = workloads.canonical(workloads.generate(workload, 11, CONFIGS))
    other = workloads.canonical(workloads.generate(workload, 12, CONFIGS))
    assert first == again
    assert first != other


def test_random_models_are_stable():
    for seed in range(20):
        inputs = workloads.generate("lattice", seed, CONFIGS)
        for job in inputs["jobs"]:
            jobs.chain(job["config"], stability_check=True)


def _lattice_job(name):
    inputs = workloads.generate("lattice", 3, CONFIGS)
    if name == "random":
        # The random M = 4 model at cutoff 2: 81 outcomes.
        return next(j for j in inputs["jobs"] if j["closed_form"] is None and j["cutoff"] == 2)
    return next(j for j in inputs["jobs"] if j["closed_form"] and j["closed_form"]["kind"] == name)


def _perturbed(dist, counts, delta):
    """A copy of ``dist`` with one outcome and the captured mass shifted."""
    probs = dict(dist.probabilities)
    key = next(k for k in probs if k.key() == counts)
    probs[key] += delta
    return dataclasses.replace(
        dist, probabilities=probs, captured_mass=dist.captured_mass + delta
    )


@pytest.mark.parametrize("name, counts", [("thermal", (3,)), ("random", (0, 0, 0, 0))])
def test_checker_counts_a_perturbed_probability(name, counts):
    job = _lattice_job(name)
    output = jobs.lattice_job(job, None)
    assert checker.Checker(1).check("lattice", job, output)

    bad = dict(output, dist=_perturbed(output["dist"], counts, 1e-9))
    check = checker.Checker(1)
    assert not check.check("lattice", job, bad)
    assert len(check.failures) == 1


def test_checker_counts_a_changed_repeat():
    job = _lattice_job("random")
    output = jobs.lattice_job(job, None)
    check = checker.Checker(1)
    assert check.check("lattice", job, output)
    bad = dict(output, dist=_perturbed(output["dist"], (2, 2, 2, 2), 1e-15))
    assert not check.check("lattice", job, bad)


def test_checker_counts_a_nonzero_exit():
    job = {"id": "cli-0", "args": ["prob", "--config", "configs/cavity_condensate.json"]}
    output = {"rc": 1, "payload": b"", "manifest": None}
    check = checker.Checker(1)
    assert not check.check("cli", job, output, {"root": ROOT})
    assert check.failures == ["cli-0: exit code 1"]


def test_tail_has_ten_jobs_beyond_it():
    value, percentile = run.tail([float(i) for i in range(40)])
    assert value == 29.0
    assert percentile == 75.0


def test_scaling_cancels_the_host_speed():
    # A host twice as slow doubles both the job and the kernel times.
    quick = calibration.scale(0.5, [1e-3, 2e-3, 1.5e-3])
    slow = calibration.scale(1.0, [2e-3, 4e-3, 3e-3])
    assert quick == slow == 0.5 * calibration.REFERENCE_KERNEL_S / 1.5e-3


def test_tracer_reports_zero_for_a_removed_attribute():
    renamed = tuple(
        (module, "no_such_" + attr if attr == "hafnian" else attr, name, annotate)
        for module, attr, name, annotate in tracer.TARGETS
    )
    trace = tracer.Tracer(renamed)
    trace.install()
    try:
        with trace.span("bench.job", job="0/lattice-0"):
            jobs.lattice_job(_lattice_job("random"), None)
    finally:
        trace.uninstall()
    assert "hybrid_sampler.sampling.no_such_hafnian" in trace.missing
    metrics = tracer.layer_metrics(trace.spans, 1, [])
    assert metrics["sampling.outcomes"][0] == 81
    # The hafnian layer is still seen through its own module's routes.
    assert metrics["hafnian.calls"][0] == 81


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, "0/x", None], ["b", 1.0, 4.0, 0, "0/x", None],
             ["c", 5.0, 6.0, 0, "0/x", None]]
    assert tracer.self_times(spans) == [6.0, 3.0, 1.0]


def _traced_counts(seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "sweep",
         "--seed", "5", "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert result["correct"]
    return {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}


def test_counts_are_identical_across_runs_of_one_seed():
    # Different run lengths give different round counts; per-round counts agree.
    first = _traced_counts(0.2)
    second = _traced_counts(2.0)
    assert first == second
    assert all(value > 0 for value in first.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
