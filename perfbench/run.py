"""Benchmark of the hybrid-sampler package, driven from outside like a user.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {lattice,sweep,query,cli} \\
        --seed N --seconds S --trace {0,1}

Workloads (see workloads.py for the exact inputs):

    lattice  configs through the whole chain to enumerate_distribution
    sweep    perturbations of cavity_condensate through every upstream
             stage, enumerated at cutoff 1
    query    states enumerated once at set-up, then sampled, marginalized
             and queried for single outcomes
    cli      the hybrid-sampler command line, one subprocess per command

Each workload is a closed loop with one client: jobs run one after
another, in whole rounds of the seeded job list, until ``--seconds`` of
job time have passed.  Every output is checked outside the timed region
(checker.py).

Timings are in seconds at a fixed host speed (calibration.py).  On a
shared host other tenants' load slows every job by up to 2x for seconds at
a time, which moves the plain timings of one job mix by 20-40% from one run
to the next.  So after every job the benchmark times a fixed calibration
kernel, and each round's job latencies are divided by that round's median
kernel time and multiplied by REFERENCE_KERNEL_S.  A change to the package
changes the jobs' time but not the kernel's; a slower host changes both.
A job's latency is then the median of its scaled latencies over the
run's rounds, and the end-to-end timings are statistics over the jobs of
one round: jobs_per_s is the round's correct jobs over the sum of their
latencies, job_p50_s the median job and job_tail_s the job with
TAIL_BEYOND slower ones beyond it.  The plain wall-clock figures are
printed beside them.  setup_s is scaled the same way, by kernel calls
made just before and after each fresh set-up process.

``--trace 0`` prints the end-to-end metrics: setup_s, jobs_per_s,
job_p50_s, job_tail_s, peak_rss_mb and ok_ratio (fail_ratio is printed
beside it).  ``--trace 1`` runs half the time untraced and half traced,
records a span around every call into a layer (tracer.py), writes the
spans to .perfbench_out/ and prints the per-layer metrics, each layer's
share of job time and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, set before numpy loads, here and in every child.  With
# two, the same sweep job took 16 ms or 84 ms on a 2-core shared host,
# depending on whether the second core was free, and 2.5 ms with one: two
# threads measure the host's scheduler, not the package.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_ENV, "1"))

import calibration  # noqa: E402
import checker  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# ``jobs`` imports hybrid_sampler, so it is imported inside the functions
# that use it, after main() has put this checkout's sources on the path.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREADS_ENV = "HYBRID_SAMPLER_THREADS"

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 5
# Every job of a round runs at least this often, so that its latency is
# a median of several repeats.
MIN_ROUNDS = 3
# Calibration kernel calls timed before and after each set-up probe.
PROBE_KERNELS = 10
# job_tail_s is the latency with at least this many jobs beyond it.
TAIL_BEYOND = 10
# The command every non-cli traced run makes once, so cli.* is measured
# on every workload.
CLI_PROBE = ["covariance", "--config", "configs/cavity_condensate.json"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that sets up and reports "ready" (setup_s).
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def check_checkout():
    """None when ROOT is a checkout with the package sources, else why not."""
    if not os.path.isfile(os.path.join(SRC, "hybrid_sampler", "__init__.py")):
        return "no package sources at src/hybrid_sampler"
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        return "no configs/ directory"
    return None


def import_package():
    """Import hybrid_sampler from this checkout's sources and nowhere else."""
    sys.path.insert(0, SRC)
    import hybrid_sampler

    where = os.path.dirname(os.path.abspath(hybrid_sampler.__file__))
    if where != os.path.join(SRC, "hybrid_sampler"):
        raise RuntimeError("hybrid_sampler imported from %s, not from %s" % (where, SRC))


def prepare(workload, configs, inputs, work):
    """The workload's own set-up: warm-up plus whatever its jobs read."""
    import jobs

    jobs.warm_up(configs)
    if workload == "query":
        return jobs.prepare_query(inputs)
    if workload == "cli":
        return {"root": ROOT, "runner": jobs.CliRunner(ROOT, work)}
    return {}


def measure_setup(workload, seed):
    """Median time of fresh processes from start to ready for a job.

    Returns it scaled to the reference host speed, and plain.
    """
    import jobs

    argv = [sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    times = []
    scaled = []
    for _ in range(SETUP_PROBES):
        kernel = [calibration.timed() for _ in range(PROBE_KERNELS)]
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=jobs.child_env(ROOT), stdout=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe exited with %d" % proc.returncode)
        times.append(elapsed)
        kernel += [calibration.timed() for _ in range(PROBE_KERNELS)]
        scaled.append(calibration.scale(elapsed, kernel))
    return statistics.median(scaled), statistics.median(times)


def tail(latencies):
    """(value, percentile) with at least TAIL_BEYOND jobs beyond the value.

    With TAIL_BEYOND jobs or fewer it is the slowest job (p100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Bench:
    """One run of one workload: set-up, timed rounds, checks, report."""

    def __init__(self, args, configs, inputs, work):
        self.args = args
        self.workload = args.workload
        self.configs = configs
        self.inputs = inputs
        self.work = work
        self.checker = checker.Checker(args.seed)
        self.context = None
        self.tracer = None
        self.cli_calls = []
        self.child_rss_kb = 0
        self.attempted = 0
        self.failed = 0

    # -- the timed loop ----------------------------------------------------

    def run_rounds(self, seconds, min_rounds):
        """Whole rounds until ``seconds`` of job time.

        Returns each job's median latency over the rounds, in round order,
        scaled to the reference host speed and plain, and the number of
        rounds.
        """
        jobs = self.inputs["jobs"]
        plain = [[] for _ in jobs]
        scaled = [[] for _ in jobs]
        busy = 0.0
        rounds = 0
        while rounds < min_rounds or busy < seconds:
            latencies = []
            kernel = []
            for job in jobs:
                latencies.append(self.run_one(job, "%d/%s" % (rounds, job["id"])))
                kernel.append(calibration.timed())
            for position, latency in enumerate(latencies):
                plain[position].append(latency)
                scaled[position].append(calibration.scale(latency, kernel))
            busy += sum(latencies)
            rounds += 1
        medians = lambda table: [statistics.median(row) for row in table]
        return medians(scaled), medians(plain), rounds

    def run_one(self, job, key):
        import jobs

        tracer = self.tracer
        span_name = "cli.run" if self.workload == "cli" else "bench.job"
        scope = tracer.span(span_name, job=key) if tracer else contextlib.nullcontext()
        output = error = None
        start = time.perf_counter()
        try:
            with scope as index:
                if self.workload == "cli":
                    output = self.context["runner"].run(job["args"])
                else:
                    output = jobs.RUNNERS[self.workload](job, self.context)
        except Exception as exc:  # a failing job is counted, not fatal
            error = "%s: %s" % (type(exc).__name__, exc)
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - start

        self.attempted += 1
        if error is not None:
            self.checker.fail(job, error)
            self.failed += 1
            return latency
        if self.workload == "cli":
            self._record_cli(output, key, index)
        with tracer.paused() if tracer else contextlib.nullcontext():
            ok = self.checker.check(self.workload, job, output, self.context)
        self.failed += 0 if ok else 1
        return latency

    def _record_cli(self, output, key, index):
        if self.tracer is None:
            self.child_rss_kb = max(self.child_rss_kb, output["maxrss_kb"])
            return
        if output["spans"]:
            self.tracer.adopt(output["spans"], index)
        self.cli_calls.append(cli_call(output, key))

    # -- runs --------------------------------------------------------------

    def end_to_end(self):
        setup_s, setup_plain = measure_setup(self.workload, self.args.seed)
        self.context = prepare(self.workload, self.configs, self.inputs, self.work)
        latencies, plain, rounds = self.run_rounds(self.args.seconds, MIN_ROUNDS)
        if self.workload == "cli":
            rss_kb = self.child_rss_kb
        else:
            import jobs

            rss_kb = jobs.peak_rss_kb()
        correct = self.attempted - self.failed
        ok = correct / self.attempted
        tail_value, tail_pct = tail(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (ok * len(latencies) / sum(latencies), "1/s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_tail_s": (tail_value, "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "ok_ratio": (ok, "ratio"),
        }
        notes = [
            "job latency: median of %d rounds; job_tail_s is the p%.1f latency of the %d jobs of a round"
            % (rounds, tail_pct, len(latencies)),
            "timings at the reference host speed (calibration kernel %.6g s); plain wall clock:"
            " setup_s %.6g, jobs_per_s %.6g, job_p50_s %.6g, job_tail_s %.6g"
            % (calibration.REFERENCE_KERNEL_S, setup_plain, ok * len(plain) / sum(plain),
               statistics.median(plain), tail(plain)[0]),
            "fail_ratio = %.6g (%d of %d jobs)"
            % (self.failed / self.attempted, self.failed, self.attempted),
        ]
        return metrics, notes

    def traced(self):
        import jobs

        self.tracer = tracer = tracing.Tracer()
        tracer.install()
        with tracer.span("bench.setup", job="setup"):
            self.context = prepare(self.workload, self.configs, self.inputs, self.work)
        tracer.uninstall()
        self.tracer = None
        if self.workload != "cli":
            output = jobs.CliRunner(ROOT, self.work).run(CLI_PROBE)
            self.cli_calls.append(cli_call(output, "cli-probe"))
            if output["rc"] != 0:
                self.attempted += 1
                self.failed += 1
                self.checker.failures.append("cli probe: exit code %d" % output["rc"])

        half = self.args.seconds / 2.0
        untraced, _, _ = self.run_rounds(half, 1)
        self.tracer = tracer
        tracer.install()
        if self.workload == "cli":
            self.context["runner"].traced = True
        try:
            traced, _, rounds = self.run_rounds(half, 1)
        finally:
            tracer.uninstall()
            if self.workload == "cli":
                self.context["runner"].traced = False
            self.tracer = None

        metrics = tracing.layer_metrics(tracer.spans, rounds, self.cli_calls)
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        path = write_spans(tracer.spans, self.workload, self.args.seed)
        notes = ["spans: %d written to %s" % (len(tracer.spans), os.path.relpath(path, ROOT)),
                 "per-layer figures: set-up plus one round (mean of %d traced rounds)" % rounds,
                 "tracing overhead: traced minus untraced job_p50_s = %.6g s" % overhead]
        if tracer.missing:
            notes.append("rebinding targets missing (their metrics read 0): %s"
                         % ", ".join(tracer.missing))
        notes.append("layer metric -> end-to-end metric it should move, on workload:")
        for layer_metrics, end_metric, workload in tracing.PREDICTIONS:
            notes.append("  %s -> %s on %s" % (layer_metrics, end_metric, workload))
        return metrics, notes


def cli_call(output, key):
    manifest = output["manifest"] if isinstance(output["manifest"], dict) else {}
    return {
        "job": key,
        "wall": output["wall"],
        "handler": float(manifest.get("wall_time_s", 0.0)),
        "payload_bytes": len(output["payload"]),
        "rc": output["rc"],
    }


def write_spans(spans, workload, seed):
    path = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload, seed))
    with open(path, "w") as handle:
        for name, start, end, parent, job, attrs in spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "attrs": attrs}) + "\n")
    return path


def source_commit():
    """Commit of the checkout, or a digest of src/ where there is no git."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                h.update(handle.read())
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return commit, h.hexdigest()


def header(args, configs, inputs_digest):
    import numpy
    import scipy

    commit, src_digest = source_commit()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = " ".join("%s=%s" % (k, os.environ.get(k, "unset")) for k in BLAS_ENV)
    sizes = " ".join(
        "%s=%d" % (w, len(workloads.generate(w, args.seed, configs)["jobs"]))
        for w in workloads.WORKLOADS
    )
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    return [
        "hybrid-sampler benchmark: workload %s, seed %d, %.6g s, trace %d"
        % (args.workload, args.seed, args.seconds, args.trace),
        "commit %s; src sha256 %s" % (commit, src_digest),
        "python %s, numpy %s, scipy %s" % (platform.python_version(), numpy.__version__, scipy.__version__),
        "nproc %s (affinity %s); BLAS %s; %s; %s unset"
        % (os.cpu_count(), affinity, blas, threads, THREADS_ENV),
        "jobs per round: %s" % sizes,
        "inputs sha256 %s" % inputs_digest,
    ]


def main(argv=None):
    args = parse_args(argv)
    problem = check_checkout()
    if problem:
        print("error: %s; run from the root of a hybrid-sampler checkout" % problem, file=sys.stderr)
        return 2
    # The library default thread count is what gets measured.
    os.environ.pop(THREADS_ENV, None)
    # A terminated run still stops its children and removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_package()
    configs = workloads.load_configs(ROOT)
    inputs = workloads.generate(args.workload, args.seed, configs)
    work = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        if args.probe:
            prepare(args.workload, configs, inputs, work)
            print("ready", flush=True)
            return 0
        for line in header(args, configs, workloads.inputs_digest(args.workload, inputs, ROOT)):
            print("# " + line)
        bench = Bench(args, configs, inputs, work)
        metrics, notes = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in notes:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print("%-28s %.9g %s" % (name, value, unit))
    for failure in bench.checker.failures[:20]:
        print("FAILED %s" % failure, file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
