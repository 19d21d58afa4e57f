"""Stage chaining from a configuration to each pipeline product.

Every function takes a validated SystemConfig and an optional precomputed
upstream product; omitted products are rebuilt on the spot (all stages
are cheap at desk scale and fully deterministic, so recomputation is
safe).
"""

from __future__ import annotations

from . import bdg, blochmessiah, gaussian, model, sampling

__all__ = [
    "hamiltonian",
    "decomposition",
    "squeeze_factors",
    "gaussian_state",
    "distribution",
    "quasiparticle_modes",
]


def hamiltonian(cfg):
    """Coupling blocks assembled into the quadratic Hamiltonian."""
    blocks, _ = model.coupling_blocks(cfg)
    return bdg.assemble_hamiltonian(blocks)


def decomposition(cfg, *, ham=None):
    """Bogoliubov diagonalization of the configured Hamiltonian."""
    if ham is None:
        ham = hamiltonian(cfg)
    return bdg.bogoliubov_diagonalize(ham)


def squeeze_factors(cfg, *, dec=None):
    """Bloch-Messiah factors of the configured transform."""
    if dec is None:
        dec = decomposition(cfg)
    return blochmessiah.bloch_messiah(dec)


def gaussian_state(cfg, *, dec=None):
    """Quasi-equilibrium Gaussian state at the configured temperature."""
    if dec is None:
        dec = decomposition(cfg)
    return gaussian.covariance(dec, cfg.temperature)


def distribution(cfg, cutoff, *, state=None):
    """Enumerated joint count distribution up to the cutoff."""
    if state is None:
        state = gaussian_state(cfg)
    return sampling.enumerate_distribution(state, cutoff)


def quasiparticle_modes(cfg):
    """Grid-sampled eigen-squeeze and quasiparticle mode functions."""
    if cfg.mode != model.MODE_GEOMETRY:
        raise ValueError(
            "mode functions need a grid basis; they are unavailable for "
            "direct-blocks configurations"
        )
    blocks, basis = model.coupling_blocks(cfg)
    ham = bdg.assemble_hamiltonian(blocks)
    dec = bdg.bogoliubov_diagonalize(ham)
    factors = blochmessiah.bloch_messiah(dec)
    return blochmessiah.mode_functions(factors, basis, dec)
