"""Seeded inputs of the four benchmark workloads.

Every workload is a closed loop with one client: one process runs one
job at a time.  Jobs come in rounds.  A round is the workload's job list,
generated from the seed, and the benchmark only runs whole rounds, so the
input mix is the same in every run and for every seed.  The seed draws
the numbers (couplings, temperatures, counts, sampler keys); the shapes
(mode counts, cutoffs, operations) are fixed, because they set the cost.

The generated inputs are plain JSON values.  The program receives only
the configs and arguments built from them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

WORKLOADS = ("lattice", "sweep", "query", "cli")

# Configs under configs/ that the workloads start from.
CONFIG_FILES = (
    "cavity_condensate",
    "thermal_one_mode",
    "squeezed_vacuum",
    "two_mode_squeezed",
)
MATRIX_FILE = "configs/ones4.json"


def load_configs(root):
    """Read the example configs the workloads are built from."""
    configs = {}
    for name in CONFIG_FILES:
        with open(os.path.join(root, "configs", name + ".json")) as handle:
            configs[name] = json.load(handle)
    return configs


def canonical(value):
    """Byte-stable JSON text of a generated input."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value):
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


# -- closed forms ----------------------------------------------------------


def closed_form(name, cfg):
    """Closed-form law of a named example config, or None.

    Returns a JSON description; ``closed_form_probability`` evaluates it.
    """
    blocks = cfg.get("direct_blocks", {})
    if name == "thermal_one_mode":
        return {
            "kind": "thermal",
            "energy": blocks["eps_a"][0][0],
            "temperature": cfg["temperature"],
        }
    if name == "squeezed_vacuum" and cfg["temperature"] == 0:
        return {
            "kind": "squeezed",
            "energy": blocks["eps_a"][0][0],
            "pair": blocks["chit_aa"][0][0],
        }
    if name == "two_mode_squeezed" and cfg["temperature"] == 0:
        return {
            "kind": "two_mode_squeezed",
            "energy": blocks["eps_a"][0][0],
            "pair": blocks["chit_pha"][0][0],
        }
    return None


def closed_form_probability(law, counts):
    """Exact probability of a count vector under a closed-form law."""
    kind = law["kind"]
    if kind == "thermal":
        mean = 1.0 / math.expm1(law["energy"] / law["temperature"])
        (n,) = counts
        return mean**n / (1.0 + mean) ** (n + 1)
    # Squeeze parameter of e a^dag a + t/2 (a^dag^2 + a^2): tanh 2r = t / e.
    r = 0.5 * math.atanh(law["pair"] / law["energy"])
    if kind == "squeezed":
        (n,) = counts
        if n % 2:
            return 0.0
        k = n // 2
        return (
            math.factorial(2 * k)
            * math.tanh(r) ** (2 * k)
            / (4**k * math.factorial(k) ** 2 * math.cosh(r))
        )
    if kind == "two_mode_squeezed":
        n, q = counts
        return math.tanh(r) ** (2 * n) / math.cosh(r) ** 2 if n == q else 0.0
    raise ValueError("unknown closed form %r" % kind)


# -- random stable models --------------------------------------------------

# Every entry of a coupling block has |re|, |im| <= _COUPLING and the bare
# energies are at least 1, so by Gershgorin the dynamical matrix of a model
# with M <= 4 modes keeps its eigenvalues above 0.95 - 7 * sqrt(2) * 0.05 >
# 0.45: every generated model is stable.
_COUPLING = 0.05


def _entry(rng, real=False):
    re = rng.uniform(-_COUPLING, _COUPLING)
    return re if real else [re, rng.uniform(-_COUPLING, _COUPLING)]


def _hermitian(rng, n, diagonal=0.0):
    mat = [[None] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = diagonal + rng.uniform(0.0, 1.0) if diagonal else _entry(rng, True)
        for j in range(i + 1, n):
            re, im = _entry(rng)
            mat[i][j] = [re, im]
            mat[j][i] = [re, -im]
    return mat


def _symmetric(rng, n):
    mat = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = _entry(rng)
    return mat


def random_model(rng, m_a, m_ph):
    """A direct-blocks config with M = m_a + m_ph modes, stable by design."""
    blocks = {"eps_a": _hermitian(rng, m_a, diagonal=1.0), "chit_aa": _symmetric(rng, m_a)}
    if m_ph:
        blocks["eps_ph"] = [
            [1.0 + rng.uniform(0.0, 1.0) if i == j else 0.0 for j in range(m_ph)]
            for i in range(m_ph)
        ]
        blocks["chi_phph"] = _hermitian(rng, m_ph)
        blocks["chi_pha"] = [[_entry(rng) for _ in range(m_a)] for _ in range(m_ph)]
        # The pair coupling between atoms and photons must be real.
        blocks["chit_pha"] = [[_entry(rng, True) for _ in range(m_a)] for _ in range(m_ph)]
    return {
        "mode": "direct_blocks",
        "m_a": m_a,
        "m_ph": m_ph,
        "temperature": rng.uniform(0.3, 0.6),
        "direct_blocks": blocks,
    }


# -- generators ------------------------------------------------------------

# (m_a, m_ph, cutoff) of the random models in a lattice round, with M = 2-4
# modes: eight seeded models of each cutoff-2 shape (0.06-0.08 s each on a
# 2-core x86 box) and four of each larger one (0.08-0.12 s).  With the four
# example configs (0.08-0.17 s) a round holds 40 jobs, about 3.3 s.  The
# median job falls inside the flat cluster of cutoff-2 models and
# job_tail_s, the p75 job with ten beyond it, among the larger ones; a
# 12 s run repeats every job four times.
_LATTICE_SHAPES = ((2, 2, 2), (3, 1, 2), (1, 3, 2)) * 8 + ((2, 1, 3), (1, 2, 3), (1, 1, 5)) * 4
_LATTICE_NAMED = (
    ("cavity_condensate", 3),
    ("two_mode_squeezed", 5),
    ("squeezed_vacuum", 12),
    ("thermal_one_mode", 12),
)


def _lattice(rng, configs):
    jobs = []
    for name, cutoff in _LATTICE_NAMED:
        cfg = configs[name]
        jobs.append(
            {"config": cfg, "cutoff": cutoff, "closed_form": closed_form(name, cfg)}
        )
    for m_a, m_ph, cutoff in _LATTICE_SHAPES:
        jobs.append(
            {"config": random_model(rng, m_a, m_ph), "cutoff": cutoff, "closed_form": None}
        )
    return {"jobs": jobs}


# Five perturbations for each (m_a, m_ph) in a sweep round: 40 jobs.
_SWEEP_REPEATS = 5


def _sweep(rng, configs):
    base = configs["cavity_condensate"]
    jobs = []
    for _ in range(_SWEEP_REPEATS):
        for m_ph in (1, 2):
            for m_a in (1, 2, 3, 4):
                cfg = dict(base)
                cfg.update(
                    m_a=m_a,
                    m_ph=m_ph,
                    g_a_n0=base["g_a_n0"] * rng.uniform(0.7, 1.3),
                    mu=rng.uniform(0.3, 0.45),
                    temperature=rng.uniform(0.2, 0.4),
                    rabi_drive_amp=base["rabi_drive_amp"] * rng.uniform(0.8, 1.2),
                    delta_nu=[rng.uniform(6.0, 10.0) for _ in range(m_ph)],
                    omega_nu=[rng.uniform(1.1, 1.6) for _ in range(m_ph)],
                    rabi_mode_amp=[
                        base["rabi_mode_amp"][0] * rng.uniform(0.8, 1.2)
                        for _ in range(m_ph)
                    ],
                )
                jobs.append({"config": cfg, "cutoff": 1, "closed_form": None})
    return {"jobs": jobs}


_QUERY_NAMED = (
    ("thermal_one_mode", 8),
    ("squeezed_vacuum", 8),
    ("two_mode_squeezed", 5),
    ("cavity_condensate", 3),
)
# Two sampler keys per state, so a round holds ten sample jobs.
_QUERY_SAMPLES = 2
# Total counts of the single-outcome queries in one round.  With the ten
# sample jobs and three marginalize jobs a round holds 40 jobs, ordered by
# cost as marginals, queries by total, samples: the median job falls among
# the total-7 queries and job_tail_s (ten jobs beyond it) among the
# total-8 ones.
_QUERY_TOTALS = (4,) * 4 + (5,) * 5 + (6,) * 6 + (7,) * 6 + (8,) * 6
QUERY_DRAWS = 100000


def _split(rng, total, m, cutoff):
    """A random count vector with the given total, every count <= cutoff."""
    while True:
        counts = [0] * m
        for _ in range(total):
            counts[rng.randrange(m)] += 1
        if max(counts) <= cutoff:
            return counts


def _query(rng, configs):
    states = [
        {"config": configs[name], "cutoff": cutoff, "closed_form": closed_form(name, configs[name])}
        for name, cutoff in _QUERY_NAMED
    ]
    states.append({"config": random_model(rng, 2, 1), "cutoff": 3, "closed_form": None})

    jobs = []
    for index in list(range(len(states))) * _QUERY_SAMPLES:
        jobs.append(
            {"op": "sample", "state": index, "n": QUERY_DRAWS, "seed": rng.getrandbits(64)}
        )
    for index, state in enumerate(states):
        if state["config"]["m_a"] + state["config"]["m_ph"] > 1:
            jobs.append({"op": "marginalize", "state": index})
    for position, total in enumerate(_QUERY_TOTALS):
        # The hafnian's cost depends on the state's structure, so the state
        # of each query is fixed and the seed only splits the total among
        # its modes.  Every state's cutoff box holds outcomes of total 8.
        index = position % len(states)
        state = states[index]
        m = state["config"]["m_a"] + state["config"]["m_ph"]
        jobs.append(
            {"op": "prob", "state": index, "counts": _split(rng, total, m, state["cutoff"])}
        )
    return {"states": states, "jobs": jobs}


def _cli(rng, configs):
    counts = _split(rng, rng.randint(4, 8), 3, 3)
    commands = [
        ["build", "--config", "configs/cavity_condensate.json"],
        ["decompose", "--config", "configs/two_mode_squeezed.json"],
        ["covariance", "--config", "configs/squeezed_vacuum.json"],
        ["prob", "--config", "configs/cavity_condensate.json",
         "--counts", ",".join(str(c) for c in counts)],
        ["pdf", "--config", "configs/cavity_condensate.json", "--cutoff", "3"],
        ["pdf", "--config", "configs/two_mode_squeezed.json", "--cutoff", "5",
         "--photons-only"],
        ["sample", "--config", "configs/thermal_one_mode.json", "--cutoff", "12",
         "--n", "10000", "--seed", str(rng.getrandbits(32)), "--out", "sample.csv"],
        ["haf", "--matrix", MATRIX_FILE],
        ["validate", "--config", "configs/cavity_condensate.json"],
    ]
    return {"jobs": [{"args": args} for args in commands]}


_GENERATORS = {"lattice": _lattice, "sweep": _sweep, "query": _query, "cli": _cli}


def generate(workload, seed, configs):
    """The workload's inputs for a seed: a dict with a ``jobs`` list.

    Every job gets an ``id`` that names it within the round.  The same
    seed and configs give byte-identical ``canonical`` text.
    """
    inputs = _GENERATORS[workload](_rng(workload, seed), configs)
    for index, job in enumerate(inputs["jobs"]):
        job["id"] = "%s-%d" % (workload, index)
    return inputs


def inputs_digest(workload, inputs, root):
    """Digest of the generated inputs plus every file a cli job reads."""
    files = {}
    if workload == "cli":
        for path in sorted({a for job in inputs["jobs"] for a in job["args"] if a.startswith("configs/")}):
            with open(os.path.join(root, path), "rb") as handle:
                files[path] = hashlib.sha256(handle.read()).hexdigest()
    return digest({"inputs": inputs, "files": files})
