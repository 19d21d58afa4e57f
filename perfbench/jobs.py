"""Job bodies: how each workload drives the package's public API.

The benchmark calls the stage functions itself instead of going through
``pipeline``, which only chains them.  Stage functions are looked up on
their modules at call time, so a traced run sees every call through the
rebound module attributes.  Nothing here sets ``HYBRID_SAMPLER_THREADS`` or
passes ``workers``: the library default is what gets measured.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

from hybrid_sampler import bdg, blochmessiah, gaussian, model, sampling

# What the installed ``hybrid-sampler`` console script runs.
CLI_ENTRY = "import sys; from hybrid_sampler.cli import main; sys.exit(main())"
WARM_UP_CONFIG = "two_mode_squeezed"
WARM_UP_CUTOFF = 2


def chain(config, *, stability_check=False):
    """config -> blocks -> Hamiltonian -> Bogoliubov -> Bloch-Messiah -> state."""
    cfg = model.config_from_dict(config)
    blocks, _ = model.coupling_blocks(cfg)
    ham = bdg.assemble_hamiltonian(blocks)
    if stability_check:
        report = bdg.check_stability(ham)
        if not report.stable:
            raise RuntimeError("generated config is unstable: %s" % report.detail)
    dec = bdg.bogoliubov_diagonalize(ham)
    factors = blochmessiah.bloch_messiah(dec)
    state = gaussian.covariance(dec, cfg.temperature)
    return {"dec": dec, "factors": factors, "state": state}


def lattice_job(job, context):
    out = chain(job["config"])
    out["dist"] = sampling.enumerate_distribution(out["state"], job["cutoff"])
    return out


def sweep_job(job, context):
    out = chain(job["config"], stability_check=True)
    out["dist"] = sampling.enumerate_distribution(out["state"], job["cutoff"])
    return out


def query_job(job, context):
    entry = context["states"][job["state"]]
    state, dist = entry["state"], entry["dist"]
    if job["op"] == "sample":
        draws = sampling.sample(dist, job["n"], job["seed"])
        return {"draws": draws, "chi": sampling.chi_square(dist, draws)}
    if job["op"] == "marginalize":
        keeps = [[k] for k in range(state.m)]
        if state.m_a and state.m_ph:
            keeps.insert(0, list(range(state.m_a, state.m)))
        return {"marginals": [(keep, sampling.marginalize(dist, keep)) for keep in keeps]}
    if job["op"] == "prob":
        return {"p": sampling.outcome_probability(state, job["counts"])}
    raise ValueError("unknown query op %r" % job["op"])


def prepare_query(inputs):
    """Enumerate every query state once; the jobs then only read them."""
    states = []
    for spec in inputs["states"]:
        out = chain(spec["config"])
        out["dist"] = sampling.enumerate_distribution(out["state"], spec["cutoff"])
        out["spec"] = spec
        states.append(out)
    return {"states": states}


def warm_up(configs):
    """One small pass over every stage, so lazy set-up is done before timing."""
    out = chain(configs[WARM_UP_CONFIG], stability_check=True)
    dist = sampling.enumerate_distribution(out["state"], WARM_UP_CUTOFF)
    sampling.outcome_probability(out["state"], (1, 1))
    draws = sampling.sample(dist, 1000, 1)
    sampling.chi_square(dist, draws)
    sampling.marginalize(dist, [1])


def child_env(root):
    """Environment of a cli child: the checkout's sources, library defaults."""
    env = dict(os.environ)
    env.pop("HYBRID_SAMPLER_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class CliRunner:
    """Runs ``hybrid-sampler`` commands one at a time in the checkout.

    Payloads go to files in ``work``; a traced child runs the same entry
    point through ``cli_shim.py`` and leaves its spans in ``work``.
    """

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.traced = False

    def run(self, args):
        """Run one command; returns rc, payload, manifest, wall and peak RSS."""
        args = list(args)
        out_path = None
        if "--out" in args:
            index = args.index("--out") + 1
            out_path = args[index] = os.path.join(self.work, args[index])
            for stale in (out_path, out_path + ".manifest.json"):
                if os.path.exists(stale):
                    os.remove(stale)
        stdout_path = os.path.join(self.work, "stdout")
        stderr_path = os.path.join(self.work, "stderr")
        spans_path = os.path.join(self.work, "spans.json")
        if self.traced:
            shim = os.path.join(self.root, "perfbench", "cli_shim.py")
            argv = [sys.executable, shim, spans_path] + args
        else:
            argv = [sys.executable, "-c", CLI_ENTRY] + args
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=stdout, stderr=stderr)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)

        payload = _read(out_path or stdout_path)
        manifest_text = _read(out_path + ".manifest.json" if out_path else stderr_path)
        spans = None
        if self.traced and os.path.exists(spans_path):
            with open(spans_path) as handle:
                spans = json.load(handle)
            os.remove(spans_path)
        return {
            "rc": proc.returncode,
            "payload": payload,
            "manifest": last_json_object(manifest_text.decode(errors="replace")),
            "wall": wall,
            "maxrss_kb": usage.ru_maxrss,
            "spans": spans,
        }


def _read(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return b""


def last_json_object(text):
    """The last top-level JSON object in a stream (the run manifest)."""
    decoder = json.JSONDecoder()
    found = None
    pos = text.find("{")
    while pos >= 0:
        try:
            found, end = decoder.raw_decode(text, pos)
        except json.JSONDecodeError:
            end = pos + 1
        pos = text.find("{", end)
    return found


def peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


RUNNERS = {"lattice": lattice_job, "sweep": sweep_job, "query": query_job}
