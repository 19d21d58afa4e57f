"""Correctness checks on every job's output, run outside the timed region.

The first output of each job in a run gets the full check; a repeat of the
same job must then reproduce it exactly (same probabilities, same draws,
same payload bytes), which also checks that results are deterministic.

Checks:

* closed forms for the thermal, squeezed-vacuum and two-mode-squeezed
  states, on every outcome, to 1e-12;
* on other states, every outcome with total count <= 4 and a seeded few
  with total 5-6 against the ``hafnian_naive`` matching-sum oracle, to
  1e-12;
* captured mass <= 1 + 1e-9 and equal to the sum of the outcomes, and
  first moments against ``mean_occupations`` to 1e-6 when the captured
  mass is above 1 - 1e-8;
* identical draws for a repeated sampler key, and a chi-square p-value
  above 1e-6;
* marginal sums equal to joint sums;
* exit code 0 and byte-identical payloads for repeated cli calls.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random

import numpy as np

from workloads import closed_form_probability

TOL = 1e-12
MASS_SLACK = 1e-9
MOMENT_TOL = 1e-6
FULL_MASS = 1.0 - 1e-8
MIN_P_VALUE = 1e-6
ORACLE_ALL_TOTAL = 4
ORACLE_MAX_TOTAL = 6
ORACLE_EXTRA = 2
DRAW_STRIDE = 100


def _hafnian_naive(mat):
    # Looked up at call time: the package re-exports a function under the
    # submodule's name.
    return importlib.import_module("hybrid_sampler.hafnian").hafnian_naive(mat)


def oracle_probability(state, counts):
    """Outcome probability from the matching-sum hafnian of the base matrix."""
    c = np.asarray(state.c)
    m = c.shape[0] // 2
    idx = np.concatenate(
        [np.repeat(np.arange(m), counts), np.repeat(np.arange(m, 2 * m), counts)]
    )
    value = complex(_hafnian_naive(c[np.ix_(idx, idx)]))
    log_fact = sum(math.lgamma(n + 1) for n in counts)
    return (value * math.exp(-state.log_norm - log_fact)).real


def outcome_pairs(dist):
    """[(counts tuple, probability)] through the distribution's accessors."""
    return [(tuple(o.key()), dist.probability(o)) for o in dist.outcomes()]


def _pairs_digest(pairs):
    h = hashlib.sha256()
    h.update(repr([k for k, _ in pairs]).encode())
    h.update(np.asarray([p for _, p in pairs], dtype=float).tobytes())
    return h.hexdigest()


class Checker:
    """Counts jobs whose output is wrong; keeps the reason for each."""

    def __init__(self, seed):
        self.seed = seed
        self.memory = {}
        self.failures = []

    def check(self, workload, job, output, context=None):
        """True when the output is correct; otherwise records why."""
        try:
            problems = getattr(self, "_" + workload)(job, output, context)
        except Exception as exc:  # output the checks cannot even read
            problems = ["unreadable output (%s: %s)" % (type(exc).__name__, exc)]
        for problem in problems:
            self.failures.append("%s: %s" % (job["id"], problem))
        return not problems

    def fail(self, job, error):
        self.failures.append("%s: %s" % (job["id"], error))

    def _rng(self, job):
        return random.Random("%d:%s" % (self.seed, job["id"]))

    # -- distributions -----------------------------------------------------

    def _repeat(self, job, digest, full_check):
        """Full check the first time, exact reproduction afterwards."""
        known = self.memory.get(job["id"])
        if known is not None:
            return [] if known == digest else ["output differs from the first run of this job"]
        problems = full_check()
        if not problems:
            self.memory[job["id"]] = digest
        return problems

    def distribution_problems(self, job, state, dist, rng):
        problems = []
        pairs = outcome_pairs(dist)
        cutoff = job["cutoff"]
        if len(pairs) != (cutoff + 1) ** state.m:
            problems.append("%d outcomes, expected (%d+1)^%d" % (len(pairs), cutoff, state.m))
        values = [p for _, p in pairs]
        if min(values) < 0:
            problems.append("negative probability %.3e" % min(values))
        mass = math.fsum(values)
        if abs(mass - dist.captured_mass) > TOL:
            problems.append("captured mass %.15g != outcome sum %.15g" % (dist.captured_mass, mass))
        if mass > 1.0 + MASS_SLACK:
            problems.append("captured mass %.15g above 1 + %.0e" % (mass, MASS_SLACK))

        law = job.get("closed_form")
        if law:
            checked = [(key, p, closed_form_probability(law, key)) for key, p in pairs]
        else:
            small = [kp for kp in pairs if sum(kp[0]) <= ORACLE_ALL_TOTAL]
            middle = [kp for kp in pairs if ORACLE_ALL_TOTAL < sum(kp[0]) <= ORACLE_MAX_TOTAL]
            chosen = small + rng.sample(middle, min(ORACLE_EXTRA, len(middle)))
            checked = [(key, p, oracle_probability(state, key)) for key, p in chosen]
        worst = max(checked, key=lambda t: abs(t[1] - t[2]))
        if abs(worst[1] - worst[2]) > TOL:
            problems.append(
                "outcome %s: %.17g vs reference %.17g" % (worst[0], worst[1], worst[2])
            )

        if mass > FULL_MASS:
            means = np.zeros(state.m)
            for key, p in pairs:
                means += p * np.asarray(key, dtype=float)
            gap = float(np.max(np.abs(means - state.mean_occupations())))
            if gap > MOMENT_TOL:
                problems.append("first moments off by %.3e" % gap)
        return problems

    def _lattice(self, job, output, context):
        state, dist = output["state"], output["dist"]
        return self._repeat(
            job,
            _pairs_digest(outcome_pairs(dist)),
            lambda: self.distribution_problems(job, state, dist, self._rng(job)),
        )

    def _sweep(self, job, output, context):
        def full():
            problems = self.distribution_problems(job, output["state"], output["dist"], self._rng(job))
            dec, factors = output["dec"], output["factors"]
            a_rec, b_rec = factors.reconstruct()
            residual = max(float(np.max(np.abs(a_rec - dec.a))), float(np.max(np.abs(b_rec - dec.b))))
            if residual > MASS_SLACK:
                problems.append("Bloch-Messiah reconstruction residual %.3e" % residual)
            if not np.all(np.asarray(dec.energies) > 0):
                problems.append("non-positive quasiparticle energy")
            return problems

        return self._repeat(job, _pairs_digest(outcome_pairs(output["dist"])), full)

    # -- reads of enumerated states ----------------------------------------

    def _query(self, job, output, context):
        entry = context["states"][job["state"]]
        state, dist, law = entry["state"], entry["dist"], entry["spec"]["closed_form"]
        op = job["op"]
        if op == "sample":
            return self._sample(job, output, dist)
        if op == "marginalize":
            return self._marginals(output, dist)
        counts = tuple(job["counts"])
        p = output["p"]
        if job["id"] in self.memory:
            return [] if self.memory[job["id"]] == p else ["probability differs from the first run"]
        if sum(counts) <= ORACLE_MAX_TOTAL:
            want = oracle_probability(state, counts)
        elif law:
            want = closed_form_probability(law, counts)
        else:
            want = dict(outcome_pairs(dist))[counts]
        if abs(p - want) > TOL:
            return ["outcome %s: %.17g vs reference %.17g" % (counts, p, want)]
        self.memory[job["id"]] = p
        return []

    def _sample(self, job, output, dist):
        problems = []
        draws = output["draws"]
        if len(draws) != job["n"]:
            problems.append("%d draws, expected %d" % (len(draws), job["n"]))
        # A repeat is compared on every DRAW_STRIDE-th draw, which keeps the
        # checker's memory out of the process's peak RSS.
        spots = tuple(tuple(d.key()) for d in draws[::DRAW_STRIDE])
        known = self.memory.get(job["id"])
        if known is None:
            again = importlib.import_module("hybrid_sampler.sampling").sample(
                dist, job["n"], job["seed"]
            )
            if draws != again:
                problems.append("draws differ for a repeated sampler key")
        elif spots != known:
            problems.append("draws differ from the first run of this job")
        p_value = output["chi"].p_value
        if not p_value > MIN_P_VALUE:
            problems.append("chi-square p-value %.3e below %.0e" % (p_value, MIN_P_VALUE))
        if known is None and not problems:
            self.memory[job["id"]] = spots
        return problems

    def _marginals(self, output, dist):
        problems = []
        joint = outcome_pairs(dist)
        joint_sum = math.fsum(p for _, p in joint)
        for keep, marginal in output["marginals"]:
            want = {}
            for key, p in joint:
                sub = tuple(key[i] for i in keep)
                want[sub] = want.get(sub, 0.0) + p
            got = dict(outcome_pairs(marginal))
            if abs(math.fsum(got.values()) - joint_sum) > TOL:
                problems.append("marginal onto %s does not sum to the joint sum" % keep)
            if set(got) != set(want) or any(abs(got[k] - want[k]) > TOL for k in want):
                problems.append("marginal onto %s differs from the joint sums" % keep)
        return problems

    # -- command line ------------------------------------------------------

    def _cli(self, job, output, context):
        if output["rc"] != 0:
            return ["exit code %d" % output["rc"]]
        problems = []
        manifest = output["manifest"]
        if not isinstance(manifest, dict) or "wall_time_s" not in manifest:
            problems.append("no run manifest")
        payload = output["payload"]
        digest = hashlib.sha256(payload).hexdigest()
        known = self.memory.get(job["id"])
        if known is not None:
            if known != digest:
                problems.append("payload bytes differ from the first call")
            return problems
        problems += _payload_problems(job["args"], payload.decode(errors="replace"), context["root"])
        if not problems:
            self.memory[job["id"]] = digest
        return problems


def _payload_problems(args, text, root):
    """Format checks on the first payload of each command."""
    command = args[0]
    if not text.strip():
        return ["empty payload"]
    if command in ("build", "decompose", "covariance"):
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            return ["payload is not JSON: %s" % exc]
        return []
    lines = text.strip().split("\n")
    if command == "prob":
        p = float(lines[0])
        return [] if 0.0 <= p <= 1.0 else ["probability %r outside [0, 1]" % p]
    if command in ("pdf", "sample"):
        width = len(lines[0].split(","))
        rows = [line.split(",") for line in lines[1:]]
        if any(len(row) != width for row in rows):
            return ["ragged CSV rows"]
        if command == "sample":
            n = int(args[args.index("--n") + 1])
            return [] if len(rows) == n else ["%d sample rows, expected %d" % (len(rows), n)]
        total = math.fsum(float(row[-1]) for row in rows)
        return [] if total <= 1.0 + MASS_SLACK else ["pdf sums to %.15g" % total]
    if command == "haf":
        with open(os.path.join(root, args[args.index("--matrix") + 1])) as handle:
            data = json.load(handle)
        mat = np.asarray(data["matrix"] if isinstance(data, dict) else data, dtype=complex)
        want = complex(_hafnian_naive(mat))
        got = float(lines[0].split()[0])
        # The payload prints 12 significant digits.
        return [] if abs(got - want.real) <= 1e-11 * max(1.0, abs(want)) else [
            "hafnian %r, oracle %r" % (got, want)
        ]
    if command == "validate":
        return [] if lines[-1].startswith("validation passed") else [lines[-1]]
    return []
