"""Layer spans for the traced run, and the per-layer metrics built from them.

A span is recorded at each layer boundary: name, start, end, parent span
and job id.  The calls are timed by rebinding module attributes of the
package for the duration of the traced run only; no source file changes.
That covers the benchmark's own calls into a layer and the calls one layer
makes into another (``sampling.hafnian``, ``sampling.outcome_probability``,
``bdg.bogoliubov_diagonalize`` inside ``check_stability``).  A rebinding
target that no longer exists is skipped and listed in ``missing``, so its
metrics read 0 instead of failing the run.

Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.  The
parent of a span is the innermost open span of the same thread; this
matches the library's default of serial evaluation.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Layers are the package's modules; ``pipeline`` only chains the others.
LAYERS = ("model", "bdg", "blochmessiah", "gaussian", "hafnian", "sampling", "cli")
SIGNIFICANT = 1e-15


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _grid_points(args, kwargs, result):
    """Grid points times the functions sampled on them (computed)."""
    cfg = _first_arg(args, kwargs, "cfg")
    if getattr(cfg, "direct_blocks", None) is not None:
        return {"grid_points": 0}
    # phi0, m_a excitations, the drive profile and m_ph cavity profiles.
    return {"grid_points": cfg.grid.points * (cfg.m_a + cfg.m_ph + 2)}


def _dim(args, kwargs):
    mat = _first_arg(args, kwargs, "mat")
    return len(mat)


def _matching_terms(args, kwargs, result):
    """(dim - 1)!! perfect matchings summed by the naive route."""
    dim = _dim(args, kwargs)
    terms = 1
    for k in range(dim - 1, 0, -2):
        terms *= k
    return {"dim": dim, "terms": terms}


def _subset_terms(args, kwargs, result):
    """2^(dim/2) - 1 nonempty pair subsets of the power-trace route."""
    dim = _dim(args, kwargs)
    return {"dim": dim, "terms": 2 ** (dim // 2) - 1}


def probability_values(dist):
    """All probabilities of an enumerated distribution, storage-agnostic."""
    probs = dist.probabilities
    if isinstance(probs, dict):
        return list(probs.values())
    return [float(v) for v in getattr(probs, "ravel", lambda: probs)()]


def _lattice(args, kwargs, result):
    values = probability_values(result)
    return {
        "outcomes": len(values),
        "significant": sum(1 for v in values if v >= SIGNIFICANT),
        "clamped": int(result.clamped),
    }


def _draws(args, kwargs, result):
    return {"draws": len(result)}


# (module, attribute, span name, annotator).  An annotator reads counts off
# the call's arguments and result after the span has ended.
TARGETS = (
    ("hybrid_sampler.model", "load_config", "model.config", None),
    ("hybrid_sampler.model", "config_from_dict", "model.config", None),
    ("hybrid_sampler.model", "coupling_blocks", "model.blocks", _grid_points),
    ("hybrid_sampler.bdg", "assemble_hamiltonian", "bdg.assemble", None),
    ("hybrid_sampler.bdg", "check_stability", "bdg.stability", None),
    ("hybrid_sampler.bdg", "bogoliubov_diagonalize", "bdg.diagonalize", None),
    ("hybrid_sampler.blochmessiah", "bloch_messiah", "blochmessiah.factor", None),
    ("hybrid_sampler.gaussian", "covariance", "gaussian.covariance", None),
    ("hybrid_sampler.sampling", "hafnian", "hafnian.hafnian", None),
    ("hybrid_sampler.hafnian", "hafnian_naive", "hafnian.naive", _matching_terms),
    ("hybrid_sampler.hafnian", "hafnian_powertrace", "hafnian.powertrace", _subset_terms),
    ("hybrid_sampler.cli", "hafnian_naive", "hafnian.naive", _matching_terms),
    ("hybrid_sampler.cli", "hafnian_powertrace", "hafnian.powertrace", _subset_terms),
    ("hybrid_sampler.sampling", "enumerate_distribution", "sampling.enumerate", _lattice),
    ("hybrid_sampler.sampling", "outcome_probability", "sampling.prob", None),
    ("hybrid_sampler.sampling", "sample", "sampling.sample", _draws),
    ("hybrid_sampler.sampling", "marginalize", "sampling.marginalize", None),
    ("hybrid_sampler.sampling", "chi_square", "sampling.chi_square", None),
)

# Which end-to-end metric each layer metric should move, on which workload.
PREDICTIONS = (
    ("model.config_s model.blocks_s model.blocks_calls model.grid_points", "jobs_per_s", "sweep"),
    ("bdg.assemble_s bdg.stability_s bdg.diagonalize_s bdg.calls", "jobs_per_s", "sweep"),
    ("blochmessiah.factor_s gaussian.covariance_s (negligible elsewhere)", "jobs_per_s", "sweep"),
    ("hafnian.busy_s hafnian.calls hafnian.max_dim hafnian.subset_terms", "job_p50_s jobs_per_s", "lattice"),
    ("hafnian.busy_s hafnian.calls hafnian.max_dim hafnian.subset_terms", "job_tail_s", "query"),
    ("sampling.enumerate_s sampling.outcomes sampling.outcomes_per_s "
     "sampling.significant_ratio sampling.clamped", "jobs_per_s peak_rss_mb", "lattice"),
    ("sampling.enumerate_s sampling.outcomes sampling.outcomes_per_s "
     "sampling.significant_ratio sampling.clamped", "setup_s", "query"),
    ("sampling.prob_s sampling.prob_calls sampling.sample_s sampling.draws "
     "sampling.draws_per_s sampling.chi_square_s sampling.marginalize_s", "jobs_per_s", "query"),
    ("cli.startup_s cli.handler_s cli.payload_bytes cli.exit_nonzero", "job_p50_s", "cli"),
    ("cli.startup_s", "setup_s", "every workload"),
)

# Errors an annotator may meet when a refactor changes a signature or a
# result type; the span is kept without counts.
_ANNOTATION_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    """Records spans while installed; ``paused`` hides calls it should not see."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, start, end, parent index or -1, job, attrs]
        self.job = None
        self.missing = []
        self._saved = []
        self._local = threading.local()
        self._recording = True

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        self.missing = []
        for module_name, attr, name, annotate in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append("%s.%s" % (module_name, attr))
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, annotate))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, fn, name, annotate):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            with tracer.span(name) as index:
                result = fn(*args, **kwargs)
            if annotate is not None:
                try:
                    tracer.spans[index][5] = annotate(args, kwargs, result)
                except _ANNOTATION_ERRORS:
                    pass
            return result

        return traced

    @contextmanager
    def span(self, name, job=None):
        """Record one span and yield its index; with ``job``, every span
        inside belongs to that job."""
        stack = self._stack()
        previous = self.job
        if job is not None:
            self.job = job
        index = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
        stack.append(index)
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield index
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            self.job = previous

    @contextmanager
    def paused(self):
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    def adopt(self, records, parent):
        """Attach spans recorded in a child process under span ``parent``."""
        base = len(self.spans)
        job = self.spans[parent][4]
        for name, start, end, child_parent, _, attrs in records:
            self.spans.append(
                [name, start, end, parent if child_parent < 0 else base + child_parent, job, attrs]
            )


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, job, attrs in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [max(0.0, s[2] - s[1] - covered[i]) for i, s in enumerate(spans)]


def _in_round(job):
    """Round jobs are named '<round>/<job id>'; anything else is set-up."""
    return isinstance(job, str) and "/" in job


class _Totals:
    """Sums kept apart for set-up and for the rounds, reported per round.

    Count metrics are exact: a round's count is an integer and dividing the
    sum over ``rounds`` identical rounds by ``rounds`` gives it back.
    """

    def __init__(self, rounds):
        self.rounds = rounds
        self.sums = defaultdict(lambda: [0, 0])

    def add(self, key, value, job):
        self.sums[key][1 if _in_round(job) else 0] += value

    def __getitem__(self, key):
        fixed, per_rounds = self.sums.get(key, (0, 0))
        return fixed + per_rounds / self.rounds


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, rounds, cli_calls):
    """Per-layer metrics for the set-up plus one round of jobs.

    Args:
        spans: recorded spans (see ``Tracer.spans``)
        rounds: number of whole traced rounds the round jobs span
        cli_calls: dicts with ``job``, ``wall``, ``handler``,
            ``payload_bytes`` and ``rc`` for every traced cli call
    """
    own = self_times(spans)
    totals = _Totals(rounds)
    max_dim = 0
    job_time = 0.0
    layer_time = defaultdict(float)
    for index, (name, start, end, parent, job, attrs) in enumerate(spans):
        layer = name.split(".")[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        key = name
        if name == "sampling.prob" and parent_name == "sampling.enumerate":
            # Point evaluations inside an enumeration are enumeration work.
            key = "sampling.enumerate.inner"
        totals.add(key + ":self", own[index], job)
        totals.add(key + ":calls", 1, job)
        totals.add(key + ":wall", end - start, job)
        if layer == "hafnian" and not parent_name.startswith("hafnian."):
            totals.add("hafnian:calls", 1, job)
        for attr, value in (attrs or {}).items():
            totals.add(key + ":" + attr, value, job)
        if attrs and "dim" in attrs:
            max_dim = max(max_dim, attrs["dim"])
        if _in_round(job):
            if parent < 0:
                job_time += end - start
            layer_time[layer if layer in LAYERS else "unattributed"] += own[index]

    def busy(prefix):
        return sum(totals[n + ":self"] for n in {s[0] for s in spans} if n.startswith(prefix))

    outcomes = totals["sampling.enumerate:outcomes"]
    draws = totals["sampling.sample:draws"]
    metrics = {
        "model.config_s": (totals["model.config:self"], "s"),
        "model.blocks_s": (totals["model.blocks:self"], "s"),
        "model.blocks_calls": (totals["model.blocks:calls"], "count"),
        "model.grid_points": (totals["model.blocks:grid_points"], "count"),
        "bdg.assemble_s": (totals["bdg.assemble:self"], "s"),
        "bdg.stability_s": (totals["bdg.stability:self"], "s"),
        "bdg.diagonalize_s": (totals["bdg.diagonalize:self"], "s"),
        "bdg.calls": (
            totals["bdg.assemble:calls"] + totals["bdg.stability:calls"]
            + totals["bdg.diagonalize:calls"],
            "count",
        ),
        "blochmessiah.factor_s": (totals["blochmessiah.factor:self"], "s"),
        "gaussian.covariance_s": (totals["gaussian.covariance:self"], "s"),
        "hafnian.busy_s": (busy("hafnian."), "s"),
        "hafnian.calls": (totals["hafnian:calls"], "count"),
        "hafnian.max_dim": (max_dim, "count"),
        "hafnian.subset_terms": (
            totals["hafnian.naive:terms"] + totals["hafnian.powertrace:terms"], "count"
        ),
        "sampling.enumerate_s": (
            totals["sampling.enumerate:self"] + totals["sampling.enumerate.inner:self"], "s"
        ),
        "sampling.outcomes": (outcomes, "count"),
        "sampling.outcomes_per_s": (_ratio(outcomes, totals["sampling.enumerate:wall"]), "1/s"),
        "sampling.significant_ratio": (
            _ratio(totals["sampling.enumerate:significant"], outcomes), "ratio"
        ),
        "sampling.clamped": (totals["sampling.enumerate:clamped"], "count"),
        "sampling.prob_s": (totals["sampling.prob:self"], "s"),
        "sampling.prob_calls": (totals["sampling.prob:calls"], "count"),
        "sampling.sample_s": (totals["sampling.sample:self"], "s"),
        "sampling.draws": (draws, "count"),
        "sampling.draws_per_s": (_ratio(draws, totals["sampling.sample:wall"]), "1/s"),
        "sampling.chi_square_s": (totals["sampling.chi_square:self"], "s"),
        "sampling.marginalize_s": (totals["sampling.marginalize:self"], "s"),
    }
    metrics.update(_cli_metrics(cli_calls, rounds))
    for layer in LAYERS + ("unattributed",):
        metrics["share." + layer] = (_ratio(layer_time[layer], job_time), "ratio")
    return metrics


def _cli_metrics(calls, rounds):
    totals = _Totals(rounds)
    startup, handler = [], []
    for call in calls:
        startup.append(call["wall"] - call["handler"])
        handler.append(call["handler"])
        totals.add("payload_bytes", call["payload_bytes"], call["job"])
        totals.add("exit_nonzero", int(call["rc"] != 0), call["job"])
    return {
        "cli.startup_s": (statistics.median(startup) if startup else 0.0, "s"),
        "cli.handler_s": (statistics.median(handler) if handler else 0.0, "s"),
        "cli.payload_bytes": (totals["payload_bytes"], "count"),
        "cli.exit_nonzero": (totals["exit_nonzero"], "count"),
    }
