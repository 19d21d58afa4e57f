"""Command line front end for the whole pipeline.

Subcommands mirror the pipeline stages: ``build`` (coupling blocks and
Hamiltonian), ``decompose`` (quasiparticle energies and squeeze
factors), ``covariance`` (Gaussian state), ``pdf`` / ``prob`` /
``sample`` (count statistics), ``haf`` (standalone hafnian evaluation),
``validate`` (invariant suite) and ``scatter-time``.

Count statistics come from the sampling module's Hermite recurrence,
which fills every replicated hafnian of a lattice in one pass; ``haf``
alone evaluates one hafnian directly, by the memoised recursion of the
hafnian module, and compares it with the matching sum up to 12 x 12.

Exit codes: 0 success, 1 a computation or validation failure (including
a lattice above the sampling budget), 2 a usage, schema, or missing-file
problem.  Every output is accompanied by a run manifest (a
``.manifest.json`` sidecar for file outputs, stderr otherwise) recording
the config digest, tool version, subcommand, parameters, seed and wall
time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, bdg, blochmessiah, gaussian, model, pipeline, sampling
from .hafnian import hafnian_naive, hafnian_recursive

__all__ = ["main", "RunManifest"]

# ``haf`` cross-checks its value against the matching sum up to this size;
# the matching sum takes about 0.25 s at 14 x 14 and 5 s at 16 x 16.
_AGREEMENT_MAX_DIM = 12


@dataclass
class RunManifest:
    """Reproducibility sidecar written with every CLI output."""

    config_digest: str
    version: str
    subcommand: str
    parameters: dict
    seed: int
    wall_time_s: float


def _digest(raw):
    return hashlib.sha256(raw).hexdigest()


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _load_config(path):
    raw = _read_bytes(path)
    return model.load_config(raw.decode("utf-8")), _digest(raw)


def _load_matrix_file(path):
    raw = _read_bytes(path)
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise model.ConfigError(
            "matrix parse error at line %d column %d: %s"
            % (exc.lineno, exc.colno, exc.msg)
        ) from exc
    if isinstance(data, dict):
        if "matrix" not in data:
            raise model.ConfigError("matrix file object needs a 'matrix' key")
        data = data["matrix"]
    return model.decode_matrix(data, "matrix"), _digest(raw)


def _format_complex(value):
    value = complex(value)
    sign = "+" if value.imag >= 0 else "-"
    return "%.12g %s %.12gi" % (value.real, sign, abs(value.imag))


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def _count_columns(m_a, m_ph):
    cols = ["n_%d" % (i + 1) for i in range(m_a)]
    cols += ["q_%d" % (i + 1) for i in range(m_ph)]
    return cols


def _emit(args, payload, *, digest, seed=-1, parameters=None, meta=None):
    """Write the payload (and optional metadata), then the manifest."""
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    if meta is not None:
        meta_text = _json_text(meta)
        if out:
            with open(out + ".meta.json", "w") as handle:
                handle.write(meta_text)
        else:
            sys.stderr.write(meta_text)
    manifest = RunManifest(
        config_digest=digest,
        version=__version__,
        subcommand=args.command,
        parameters=parameters or {},
        seed=seed,
        wall_time_s=round(time.perf_counter() - args.start_time, 6),
    )
    manifest_text = _json_text(asdict(manifest))
    if out:
        with open(out + ".manifest.json", "w") as handle:
            handle.write(manifest_text)
    else:
        sys.stderr.write(manifest_text)
    return 0


def _nonnegative_int(text):
    """argparse type: an integer >= 0 (argparse reports a ValueError)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _at_most(largest, name):
    """argparse type: an integer in [0, largest], refused naming ``name``."""

    def parse(text):
        value = _nonnegative_int(text)
        if value > largest:
            raise argparse.ArgumentTypeError("must be at most %s, got %d" % (name, value))
        return value

    return parse


def _parse_counts(text, m):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        counts = tuple(int(p) for p in parts)
    except ValueError:
        raise model.ConfigError(
            "counts must be a comma-separated list of integers, got %r" % text
        ) from None
    if len(counts) != m:
        raise model.ConfigError(
            "counts has %d entries, the config declares %d modes"
            % (len(counts), m)
        )
    if any(c < 0 for c in counts):
        raise model.ConfigError("counts must be nonnegative")
    return counts


def _cmd_build(args):
    cfg, digest = _load_config(args.config)
    blocks, _ = model.coupling_blocks(cfg)
    ham = bdg.assemble_hamiltonian(blocks)
    report = bdg.check_stability(ham)
    payload = {
        "mode": cfg.mode,
        "m_a": cfg.m_a,
        "m_ph": cfg.m_ph,
        "blocks": {
            "eps_a": model.encode_matrix(blocks.eps_a),
            "eps_ph": model.encode_matrix(blocks.eps_ph),
            "chi_phph": model.encode_matrix(blocks.chi_phph),
            "chi_pha": model.encode_matrix(blocks.chi_pha),
            "chit_aa": model.encode_matrix(blocks.chit_aa),
            "chit_pha": model.encode_matrix(blocks.chit_pha),
        },
        "hamiltonian": model.encode_matrix(ham.h),
        "stability": asdict(report),
    }
    return _emit(args, _json_text(payload), digest=digest)


def _cmd_decompose(args):
    cfg, digest = _load_config(args.config)
    dec = pipeline.decomposition(cfg)
    factors = pipeline.squeeze_factors(cfg, dec=dec)
    payload = {
        "m_a": cfg.m_a,
        "m_ph": cfg.m_ph,
        "energies": [float(e) for e in dec.energies],
        "squeeze": [float(r) for r in factors.r],
        "v": model.encode_matrix(factors.v),
        "w": model.encode_matrix(factors.w),
    }
    return _emit(args, _json_text(payload), digest=digest)


def _cmd_covariance(args):
    cfg, digest = _load_config(args.config)
    state = pipeline.gaussian_state(cfg)
    payload = {
        "m_a": cfg.m_a,
        "m_ph": cfg.m_ph,
        "temperature": cfg.temperature,
        "g": model.encode_matrix(state.g),
        "c": model.encode_matrix(state.c),
        "mean_occupations": [float(v) for v in state.mean_occupations()],
        "log_norm": state.log_norm,
        "fingerprint": state.fingerprint(),
    }
    return _emit(args, _json_text(payload), digest=digest)


def _distribution(args, cfg):
    state = pipeline.gaussian_state(cfg)
    return state, sampling.enumerate_distribution(state, args.cutoff)


def _count_rows(shape):
    """One CSV row of counts per lattice outcome, in flat index order; an
    object array, so draws pick their rows without a Python int each."""
    return np.array([",".join(map(str, key)) for key in np.ndindex(shape)], dtype=object)


def _pdf_csv(dist):
    lines = [",".join(_count_columns(dist.m_a, dist.m_ph) + ["probability"])]
    rows = _count_rows(dist.probabilities.shape)
    for row, value in zip(rows, dist.probabilities.ravel().tolist()):
        lines.append(row + "," + repr(value))
    return "\n".join(lines) + "\n"


def _cmd_pdf(args):
    cfg, digest = _load_config(args.config)
    if args.photons_only and cfg.m_ph == 0:
        raise model.ConfigError(
            "--photons-only needs photon modes, but the config has m_ph = 0"
        )
    _, dist = _distribution(args, cfg)
    if args.photons_only:
        dist = sampling.marginalize(dist, range(cfg.m_a, cfg.m))
    meta = {
        "captured_mass": dist.captured_mass,
        "fingerprint": dist.fingerprint,
        "cutoff": dist.cutoff,
        "clamped": dist.clamped,
        "photons_only": bool(args.photons_only),
    }
    return _emit(
        args,
        _pdf_csv(dist),
        digest=digest,
        parameters={
            "cutoff": args.cutoff,
            "photons_only": bool(args.photons_only),
        },
        meta=meta,
    )


def _cmd_prob(args):
    cfg, digest = _load_config(args.config)
    counts = _parse_counts(args.counts, cfg.m)
    value = sampling.outcome_probability(pipeline.gaussian_state(cfg), counts)
    return _emit(
        args, repr(value) + "\n", digest=digest, parameters={"counts": list(counts)}
    )


def _cmd_sample(args):
    cfg, digest = _load_config(args.config)
    _, dist = _distribution(args, cfg)
    draws = sampling.sample(dist, args.n, args.seed)
    lines = [",".join(_count_columns(dist.m_a, dist.m_ph))]
    lines.extend(_count_rows(dist.probabilities.shape)[draws.indices])
    # The empty last line ends the payload with a newline without a copy.
    lines.append("")
    meta = {
        "captured_mass": dist.captured_mass,
        "fingerprint": dist.fingerprint,
        "cutoff": dist.cutoff,
        "n_samples": args.n,
    }
    return _emit(
        args,
        "\n".join(lines),
        digest=digest,
        seed=args.seed,
        parameters={
            "cutoff": args.cutoff,
            "n": args.n,
        },
        meta=meta,
    )


def _cmd_haf(args):
    mat, digest = _load_matrix_file(args.matrix)
    value = hafnian_recursive(mat)
    dim = mat.shape[0]
    lines = [_format_complex(value)]
    if dim > _AGREEMENT_MAX_DIM:
        lines.append(
            "matching-sum agreement: skipped (size %d above the naive "
            "cross-check limit %d)" % (dim, _AGREEMENT_MAX_DIM)
        )
    elif dim >= 2:
        delta = abs(hafnian_naive(mat) - value)
        lines.append("matching-sum agreement: %.3e" % delta)
    return _emit(
        args,
        "\n".join(lines) + "\n",
        digest=digest,
        parameters={"size": dim},
    )


def _cmd_scatter_time(args):
    cfg, digest = _load_config(args.config)
    value = model.estimate_scattering_time(cfg)
    return _emit(args, repr(value) + "\n", digest=digest, parameters={})


def _within(label, residual, limit):
    """A (passed, text) check of a residual against its limit, both printed."""
    passed = residual <= limit
    return passed, "%s %.3e %s the limit %.0e" % (
        label, residual, "within" if passed else "above", limit
    )


def _validate_lines(cfg):
    """Run the invariant suite; yield (passed, text) pairs."""
    checks = []

    blocks, basis = model.coupling_blocks(cfg)
    if basis is not None:
        residual = basis.orthonormality_residual()
        checks.append(_within("mode basis orthonormality residual", residual, 1e-8))

    ham = bdg.assemble_hamiltonian(blocks)
    try:
        dec = bdg.bogoliubov_diagonalize(ham)
    except bdg.InstabilityError as exc:
        checks.append((False, "unstable: %s" % exc))
        return checks
    checks.append((True, "stable: min quasiparticle energy %.6g" % dec.energies[0]))
    checks.append(_within("symplectic identity residual", dec.symplectic_residual(), 1e-10))
    checks.append(_within("diagonalization residual", dec.diagonalization_residual(ham), 1e-9))

    jk = bdg.symplectic_metric(dec.m) @ ham.dynamical
    spec = np.sort_complex(np.linalg.eigvals(jk))[dec.m :]
    spec_delta = float(np.max(np.abs(np.sort(spec.real) - dec.energies)))
    checks.append(_within("spectrum cross-check difference", spec_delta, 1e-10))

    factors = blochmessiah.bloch_messiah(dec)
    eye = np.eye(dec.m)
    uni = max(
        float(np.max(np.abs(factors.v.conj().T @ factors.v - eye))),
        float(np.max(np.abs(factors.w.conj().T @ factors.w - eye))),
    )
    checks.append(_within("V/W unitarity residual", uni, 1e-10))
    sv = np.linalg.svd(dec.b, compute_uv=False)
    sv_delta = float(np.max(np.abs(np.sinh(factors.r) - sv))) if sv.size else 0.0
    checks.append(_within("squeeze spectrum vs singular values", sv_delta, 1e-9))

    state = gaussian.covariance(dec, cfg.temperature)
    # covariance stores 0.5 * (G + G^H): the normal block is exactly Hermitian.
    min_eig = float(np.linalg.eigvalsh(state.g[: dec.m, : dec.m])[0])
    label = "normal correlator min eigenvalue %.3e, negativity" % min_eig
    checks.append(_within(label, max(0.0, -min_eig), 1e-10))

    if cfg.temperature > 0:
        with np.errstate(over="ignore"):
            occ = 1.0 / np.expm1(dec.energies / cfg.temperature)
    else:
        occ = np.zeros(dec.m)
    r = dec.r_inverse
    direct = (r * np.concatenate([occ, occ + 1.0])[None, :]) @ r.conj().T
    direct[dec.m :, dec.m :] -= np.eye(dec.m)
    corr = float(np.max(np.abs(direct - state.g)))
    checks.append(_within("covariance vs direct correlator", corr, 1e-10))

    cutoff = sampling.recommend_cutoff(state)
    if cutoff < 1:
        checks.append((True, "distribution checks skipped (lattice budget too small for M=%d)" % dec.m))
        return checks
    dist = sampling.enumerate_distribution(state, cutoff)
    vacuum = dist.probability((0,) * dec.m)
    checks.append((True, "vacuum probability %r at cutoff %d" % (vacuum, cutoff)))
    checks.append(
        (True, "captured mass %.12g (clamped %d)" % (dist.captured_mass, dist.clamped))
    )
    if dist.captured_mass > 1.0 - 1e-8:
        # A running sum adds the outcomes one at a time in count order; the
        # printed residual is at roundoff level and a pairwise sum moves it.
        weighted = dist.probabilities * np.indices(dist.probabilities.shape)
        means = np.cumsum(weighted.reshape(dec.m, -1), axis=1)[:, -1]
        mom = float(np.max(np.abs(means - state.mean_occupations())))
        checks.append(_within("moment consistency", mom, 1e-6))
    else:
        checks.append(
            (True, "moment consistency not testable at cutoff %d (captured %.6g)"
             % (cutoff, dist.captured_mass))
        )

    if dist.captured_mass > 0.99:
        draws = sampling.sample(dist, 2000, seed=7)
        again = sampling.sample(dist, 2000, seed=7)
        checks.append((draws == again, "sampling determinism (seed 7)"))
        try:
            res = sampling.chi_square(dist, draws)
            checks.append((res.passed, "chi-square p=%.4f over %d buckets" % (res.p_value, res.n_buckets)))
        except ValueError as exc:
            checks.append((True, "chi-square skipped: %s" % exc))
    else:
        checks.append((True, "sampling skipped (captured mass %.6g <= 0.99)" % dist.captured_mass))
    return checks


def _cmd_validate(args):
    cfg, digest = _load_config(args.config)
    checks = _validate_lines(cfg)
    lines = []
    failed = 0
    for passed, text in checks:
        failed += 0 if passed else 1
        lines.append("%s: %s" % ("PASS" if passed else "FAIL", text))
    lines.append(
        "validation %s (%d/%d checks passed)"
        % ("passed" if failed == 0 else "FAILED", len(checks) - failed, len(checks))
    )
    code = _emit(args, "\n".join(lines) + "\n", digest=digest)
    return 1 if failed else code


_HANDLERS = {
    "build": _cmd_build,
    "decompose": _cmd_decompose,
    "covariance": _cmd_covariance,
    "pdf": _cmd_pdf,
    "prob": _cmd_prob,
    "sample": _cmd_sample,
    "haf": _cmd_haf,
    "validate": _cmd_validate,
    "scatter-time": _cmd_scatter_time,
}


def _add_common(sub, *, config=True):
    if config:
        sub.add_argument("--config", required=True, help="path to the JSON config")
    sub.add_argument("--out", help="write the payload to this file instead of stdout")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hybrid-sampler",
        description="Joint photon/excited-atom counting statistics of a "
        "driven cavity-condensate system.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build", help="emit coupling blocks, Hamiltonian and stability")
    _add_common(sub)

    sub = subs.add_parser("decompose", help="emit energies, squeeze spectrum, V and W")
    _add_common(sub)

    sub = subs.add_parser("covariance", help="emit G, C and mean occupations")
    _add_common(sub)

    sub = subs.add_parser("pdf", help="enumerate the joint count distribution as CSV")
    _add_common(sub)
    sub.add_argument("--cutoff", type=_nonnegative_int, required=True, help="largest count per mode")
    sub.add_argument(
        "--photons-only",
        action="store_true",
        help="marginalize the joint distribution over the photon modes",
    )

    sub = subs.add_parser("prob", help="probability of a single counts vector")
    _add_common(sub)
    sub.add_argument(
        "--counts",
        required=True,
        help="comma-separated counts, atoms then photons (e.g. '1,0,2')",
    )

    sub = subs.add_parser("sample", help="draw reproducible samples as CSV")
    _add_common(sub)
    sub.add_argument("--cutoff", type=_nonnegative_int, required=True, help="largest count per mode")
    draws = _at_most(sampling.MAX_DRAWS, "MAX_DRAWS = %d" % sampling.MAX_DRAWS)
    sub.add_argument("--n", type=draws, required=True, help="number of draws")
    seed = _at_most(2 ** 64 - 1, "2^64 - 1")
    sub.add_argument("--seed", type=seed, required=True, help="64-bit PRNG key")

    sub = subs.add_parser("haf", help="hafnian of a matrix JSON file")
    sub.add_argument("--matrix", required=True, help="path to the matrix JSON")
    _add_common(sub, config=False)

    sub = subs.add_parser("validate", help="run the invariant suite on a config")
    _add_common(sub)

    sub = subs.add_parser("scatter-time", help="characteristic scattering-time estimate")
    _add_common(sub)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.start_time = time.perf_counter()
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except (model.ConfigError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
