"""Command line front end for the whole pipeline.

Subcommands mirror the pipeline stages: ``build`` (coupling blocks and
Hamiltonian), ``decompose`` (quasiparticle energies and squeeze
factors), ``covariance`` (Gaussian state), ``pdf`` / ``prob`` /
``sample`` (count statistics), ``haf`` (standalone hafnian evaluation),
``validate`` (invariant suite) and ``scatter-time``.

Count statistics come from the sampling module's Hermite recurrence,
which fills every replicated hafnian of a lattice in one pass; ``haf``
alone evaluates hafnians directly.

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
from .hafnian import hafnian_naive, hafnian_powertrace

__all__ = ["main", "RunManifest"]

# Both hafnian routes are cross-checked on explicit request up to this
# size; the naive route gets slow beyond it.
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
    report = bdg.check_stability(ham, tol_stability=args.tol_stability)
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
        "hermiticity_residual": ham.hermiticity_residual,
        "stability": asdict(report),
    }
    return _emit(
        args,
        _json_text(payload),
        digest=digest,
        parameters={"tol_stability": args.tol_stability},
    )


def _cmd_decompose(args):
    cfg, digest = _load_config(args.config)
    dec = pipeline.decomposition(cfg, tol_stability=args.tol_stability)
    factors = pipeline.squeeze_factors(
        cfg, dec=dec, tol_reconstruction=args.tol_reconstruction
    )
    payload = {
        "m_a": cfg.m_a,
        "m_ph": cfg.m_ph,
        "energies": [float(e) for e in dec.energies],
        "squeeze": [float(r) for r in factors.r],
        "v": model.encode_matrix(factors.v),
        "w": model.encode_matrix(factors.w),
    }
    return _emit(
        args,
        _json_text(payload),
        digest=digest,
        parameters={
            "tol_stability": args.tol_stability,
            "tol_reconstruction": args.tol_reconstruction,
        },
    )


def _cmd_covariance(args):
    cfg, digest = _load_config(args.config)
    state = pipeline.gaussian_state(
        cfg, tol_stability=args.tol_stability, tol_symmetry=args.tol_symmetry
    )
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
    return _emit(
        args,
        _json_text(payload),
        digest=digest,
        parameters={
            "tol_stability": args.tol_stability,
            "tol_symmetry": args.tol_symmetry,
        },
    )


def _distribution(args, cfg):
    state = pipeline.gaussian_state(
        cfg, tol_stability=args.tol_stability, tol_symmetry=args.tol_symmetry
    )
    dist = sampling.enumerate_distribution(
        state, args.cutoff, tol_imaginary=args.tol_imaginary
    )
    return state, dist


def _pdf_csv(dist):
    lines = [",".join(_count_columns(dist.m_a, dist.m_ph) + ["probability"])]
    for counts, value in dist.probabilities.items():
        lines.append(
            ",".join([str(c) for c in counts.key()] + [repr(value)])
        )
    return "\n".join(lines) + "\n"


def _cmd_pdf(args):
    cfg, digest = _load_config(args.config)
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
            "tol_stability": args.tol_stability,
            "tol_symmetry": args.tol_symmetry,
            "tol_imaginary": args.tol_imaginary,
        },
        meta=meta,
    )


def _cmd_prob(args):
    cfg, digest = _load_config(args.config)
    state = pipeline.gaussian_state(
        cfg, tol_stability=args.tol_stability, tol_symmetry=args.tol_symmetry
    )
    counts = _parse_counts(args.counts, cfg.m)
    value = sampling.outcome_probability(
        state, counts, tol_imaginary=args.tol_imaginary
    )
    return _emit(
        args,
        repr(value) + "\n",
        digest=digest,
        parameters={
            "counts": list(counts),
            "tol_stability": args.tol_stability,
            "tol_symmetry": args.tol_symmetry,
            "tol_imaginary": args.tol_imaginary,
        },
    )


def _cmd_sample(args):
    cfg, digest = _load_config(args.config)
    _, dist = _distribution(args, cfg)
    draws = sampling.sample(dist, args.n, args.seed)
    lines = [",".join(_count_columns(dist.m_a, dist.m_ph))]
    lines.extend(",".join(str(c) for c in d.key()) for d in draws)
    meta = {
        "captured_mass": dist.captured_mass,
        "fingerprint": dist.fingerprint,
        "cutoff": dist.cutoff,
        "n_samples": args.n,
    }
    return _emit(
        args,
        "\n".join(lines) + "\n",
        digest=digest,
        seed=args.seed,
        parameters={
            "cutoff": args.cutoff,
            "n": args.n,
            "tol_stability": args.tol_stability,
            "tol_symmetry": args.tol_symmetry,
            "tol_imaginary": args.tol_imaginary,
        },
        meta=meta,
    )


def _cmd_haf(args):
    mat, digest = _load_matrix_file(args.matrix)
    dim = mat.shape[0] if mat.ndim == 2 else 0
    lines = []
    if dim <= _AGREEMENT_MAX_DIM:
        naive = hafnian_naive(mat, tol_symmetry=args.tol_symmetry)
        if dim >= 2:
            power = hafnian_powertrace(mat, tol_symmetry=args.tol_symmetry)
            delta = abs(complex(naive) - complex(power))
            lines.append(_format_complex(naive))
            lines.append("power-trace agreement: %.3e" % delta)
        else:
            lines.append(_format_complex(naive))
    else:
        value = hafnian_powertrace(mat, tol_symmetry=args.tol_symmetry)
        lines.append(_format_complex(value))
        lines.append(
            "power-trace agreement: skipped (size %d above the naive "
            "cross-check limit %d)" % (dim, _AGREEMENT_MAX_DIM)
        )
    return _emit(
        args,
        "\n".join(lines) + "\n",
        digest=digest,
        parameters={"size": dim, "tol_symmetry": args.tol_symmetry},
    )


def _cmd_scatter_time(args):
    cfg, digest = _load_config(args.config)
    value = model.estimate_scattering_time(cfg)
    return _emit(args, repr(value) + "\n", digest=digest, parameters={})


def _validate_lines(cfg, args):
    """Run the invariant suite; yield (passed, text) pairs."""
    checks = []

    blocks, basis = model.coupling_blocks(cfg)
    if basis is not None:
        residual = basis.orthonormality_residual()
        checks.append((residual < 1e-8, "mode basis orthonormality residual %.3e" % residual))

    ham = bdg.assemble_hamiltonian(blocks)
    checks.append((True, "hamiltonian assembled, layout residual %.3e" % ham.hermiticity_residual))

    report = bdg.check_stability(ham, tol_stability=args.tol_stability)
    if report.stable:
        checks.append(
            (True, "stable: min quasiparticle energy %.6g" % report.min_quasiparticle_energy)
        )
    else:
        checks.append((False, "unstable: %s" % report.detail))
        return checks

    dec = bdg.bogoliubov_diagonalize(ham, tol_stability=args.tol_stability)
    sym = dec.symplectic_residual()
    checks.append((sym < 1e-10, "symplectic identity residual %.3e" % sym))
    diag = dec.diagonalization_residual(ham)
    checks.append((diag < 1e-9, "diagonalization residual %.3e" % diag))

    jk = bdg.symplectic_metric(dec.m) @ ham.dynamical
    spec = np.sort_complex(np.linalg.eigvals(jk))[dec.m :]
    spec_delta = float(np.max(np.abs(np.sort(spec.real) - dec.energies)))
    checks.append(
        (spec_delta < 1e-10, "spectrum cross-check difference %.3e" % spec_delta)
    )

    factors = blochmessiah.bloch_messiah(
        dec, tol_reconstruction=args.tol_reconstruction
    )
    eye = np.eye(dec.m)
    uni = max(
        float(np.max(np.abs(factors.v.conj().T @ factors.v - eye))),
        float(np.max(np.abs(factors.w.conj().T @ factors.w - eye))),
    )
    checks.append((uni < 1e-10, "V/W unitarity residual %.3e" % uni))
    a_rec, b_rec = factors.reconstruct()
    rec = max(
        float(np.max(np.abs(a_rec - dec.a))), float(np.max(np.abs(b_rec - dec.b)))
    )
    checks.append((rec < args.tol_reconstruction, "squeeze reconstruction residual %.3e" % rec))
    sv = np.linalg.svd(dec.b, compute_uv=False)
    sv_delta = float(np.max(np.abs(np.sinh(factors.r) - sv))) if sv.size else 0.0
    checks.append(
        (sv_delta < 1e-9, "squeeze spectrum vs singular values %.3e" % sv_delta)
    )

    state = gaussian.covariance(dec, cfg.temperature, tol_symmetry=args.tol_symmetry)
    normal = state.g[: dec.m, : dec.m]
    herm = float(np.max(np.abs(normal - normal.conj().T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (normal + normal.conj().T))[0])
    checks.append(
        (herm < 1e-10 and min_eig > -1e-10,
         "normal correlator hermitian (%.3e) and nonnegative (min %.3e)" % (herm, min_eig))
    )

    if cfg.temperature > 0:
        with np.errstate(over="ignore"):
            occ = 1.0 / np.expm1(dec.energies / cfg.temperature)
    else:
        occ = np.zeros(dec.m)
    r = dec.r_inverse
    direct = (r * np.concatenate([occ, occ + 1.0])[None, :]) @ r.conj().T
    direct[dec.m :, dec.m :] -= np.eye(dec.m)
    corr = float(np.max(np.abs(direct - state.g)))
    checks.append((corr < 1e-10, "covariance vs direct correlator %.3e" % corr))

    cutoff = _validate_cutoff(state)
    if cutoff is None:
        checks.append((True, "distribution checks skipped (lattice budget too small for M=%d)" % dec.m))
        return checks
    dist = sampling.enumerate_distribution(
        state, cutoff, tol_imaginary=args.tol_imaginary
    )
    vacuum = dist.probability((0,) * dec.m)
    checks.append((True, "vacuum probability %r at cutoff %d" % (vacuum, cutoff)))
    checks.append(
        (dist.captured_mass <= 1.0 + 1e-9,
         "captured mass %.12g (clamped %d)" % (dist.captured_mass, dist.clamped))
    )
    if dist.captured_mass > 1.0 - 1e-8:
        means = np.zeros(dec.m)
        for counts, value in dist.probabilities.items():
            means += value * np.asarray(counts.key(), dtype=float)
        mom = float(np.max(np.abs(means - state.mean_occupations())))
        checks.append((mom < 1e-6, "moment consistency %.3e" % mom))
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


def _validate_cutoff(state):
    """Recommended cutoff, capped by the lattice budget; None if even 1 is over."""
    largest = 0
    while (largest + 2) ** (2 * state.m) <= sampling.MAX_BOX_ENTRIES:
        largest += 1
    if largest < 1:
        return None
    return min(sampling.recommend_cutoff(state), largest)


def _cmd_validate(args):
    cfg, digest = _load_config(args.config)
    checks = _validate_lines(cfg, args)
    lines = []
    failed = 0
    for passed, text in checks:
        failed += 0 if passed else 1
        lines.append("%s: %s" % ("PASS" if passed else "FAIL", text))
    lines.append(
        "validation %s (%d/%d checks passed)"
        % ("passed" if failed == 0 else "FAILED", len(checks) - failed, len(checks))
    )
    code = _emit(
        args,
        "\n".join(lines) + "\n",
        digest=digest,
        parameters={
            "tol_stability": args.tol_stability,
            "tol_reconstruction": args.tol_reconstruction,
            "tol_symmetry": args.tol_symmetry,
            "tol_imaginary": args.tol_imaginary,
        },
    )
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


def _add_common(sub, *, config=True, tols=()):
    if config:
        sub.add_argument("--config", required=True, help="path to the JSON config")
    sub.add_argument("--out", help="write the payload to this file instead of stdout")
    defaults = {
        "stability": 1e-10,
        "reconstruction": 1e-9,
        "symmetry": 1e-8,
        "imaginary": 1e-9,
    }
    for name in tols:
        sub.add_argument(
            "--tol-%s" % name,
            type=float,
            default=defaults[name],
            dest="tol_%s" % name,
            help="override the %s tolerance (default %g)" % (name, defaults[name]),
        )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hybrid-sampler",
        description="Joint photon/excited-atom counting statistics of a "
        "driven cavity-condensate system.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build", help="emit coupling blocks, Hamiltonian and stability")
    _add_common(sub, tols=("stability",))

    sub = subs.add_parser("decompose", help="emit energies, squeeze spectrum, V and W")
    _add_common(sub, tols=("stability", "reconstruction"))

    sub = subs.add_parser("covariance", help="emit G, C and mean occupations")
    _add_common(sub, tols=("stability", "symmetry"))

    sub = subs.add_parser("pdf", help="enumerate the joint count distribution as CSV")
    _add_common(sub, tols=("stability", "symmetry", "imaginary"))
    sub.add_argument("--cutoff", type=int, required=True, help="largest count per mode")
    sub.add_argument(
        "--photons-only",
        action="store_true",
        help="marginalize the joint distribution over the photon modes",
    )

    sub = subs.add_parser("prob", help="probability of a single counts vector")
    _add_common(sub, tols=("stability", "symmetry", "imaginary"))
    sub.add_argument(
        "--counts",
        required=True,
        help="comma-separated counts, atoms then photons (e.g. '1,0,2')",
    )

    sub = subs.add_parser("sample", help="draw reproducible samples as CSV")
    _add_common(sub, tols=("stability", "symmetry", "imaginary"))
    sub.add_argument("--cutoff", type=int, required=True, help="largest count per mode")
    sub.add_argument("--n", type=int, required=True, help="number of draws")
    sub.add_argument("--seed", type=int, required=True, help="64-bit PRNG key")

    sub = subs.add_parser("haf", help="hafnian of a matrix JSON file")
    sub.add_argument("--matrix", required=True, help="path to the matrix JSON")
    _add_common(sub, config=False, tols=("symmetry",))

    sub = subs.add_parser("validate", help="run the invariant suite on a config")
    _add_common(sub, tols=("stability", "reconstruction", "symmetry", "imaginary"))

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
