"""Quasi-equilibrium Gaussian state of the coupled system.

The quasiparticle modes thermalize independently, so the state is fully
described by the normal/anomalous correlator matrix

    G = <(c^dag, c)^T (c, c^dag)> - vacuum part

in the bare-mode basis.  A frozen GaussianState built from G derives, once,
the base matrix C whose replicated hafnians give the joint count
distribution, together with the normalization 1 / sqrt(det(1 + G)).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .model import symmetrized

__all__ = [
    "CountsVector",
    "GaussianState",
    "covariance",
    "base_matrix",
    "extend_matrix",
    "SYMMETRY_LIMIT",
]

# Largest max|C - C^T| of the base matrix accepted, relative to
# max(1, max|C|).
SYMMETRY_LIMIT = 1e-8
# Largest imaginary part of the phase of det(1 + G) accepted.
_DET_PHASE_LIMIT = 1e-8
# E / 2T must exceed this: coth(x) = 1 / tanh(x) = 1 / x for so small an
# x, and 1 / x overflows for x <= 2^-1024.
_COTH_ARGUMENT_LIMIT = 2.0**-1024


@dataclass(frozen=True)
class CountsVector:
    """A joint outcome: per-mode atom and photon counts."""

    atoms: tuple
    photons: tuple

    @property
    def total(self):
        return sum(self.atoms) + sum(self.photons)

    def key(self):
        return self.atoms + self.photons

    def __str__(self):
        return "n=%s q=%s" % (list(self.atoms), list(self.photons))


@dataclass(frozen=True)
class GaussianState:
    """Bare-mode correlators of the quasi-equilibrium state.

    Built from G, the temperature and the partition alone: a negative mode
    count, or a G whose shape disagrees with the partition, is refused, and
    C and log_norm are derived once by ``base_matrix``, which checks them.
    G and C are read-only.

    Attributes:
        g: 2M x 2M correlator matrix, blocks [[<c^dag c>^T, <c^dag c^dag>],
            [<c c>, <c c^dag>^T]] ordered to match the (c^dag, c) vector
        temperature: quasiparticle temperature the state was built at
        m_a: number of atom modes
        m_ph: number of photon modes
        c: 2M x 2M base matrix entering the hafnian count formula
        log_norm: log sqrt(det(1 + G)), subtracted from every log weight
    """

    g: np.ndarray
    temperature: float
    m_a: int
    m_ph: int
    c: np.ndarray = field(init=False, repr=False)
    log_norm: float = field(init=False)

    def __post_init__(self):
        if min(self.m_a, self.m_ph) < 0:
            raise ValueError("m_a = %d, m_ph = %d: mode counts must be >= 0" % (self.m_a, self.m_ph))
        g = np.array(self.g, dtype=complex)
        two_m = 2 * self.m
        if g.shape != (two_m, two_m):
            raise ValueError(
                "G has shape %s, but the partition m_a = %d, m_ph = %d needs %s"
                % (g.shape, self.m_a, self.m_ph, (two_m, two_m))
            )
        c, log_norm = base_matrix(g)
        g.flags.writeable = c.flags.writeable = False
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "log_norm", log_norm)

    @property
    def m(self):
        return self.m_a + self.m_ph

    def mean_occupations(self):
        """Per-mode expected counts <c_k^dag c_k> (atoms then photons)."""
        m = self.m
        return np.ascontiguousarray(np.real(np.diag(self.g)[:m]))

    def fingerprint(self):
        """Hex digest identifying the state (correlators + partition)."""
        h = hashlib.sha256()
        h.update(self.g.tobytes())
        h.update(np.float64(self.temperature).tobytes())
        h.update(np.int64(self.m_a).tobytes())
        h.update(np.int64(self.m_ph).tobytes())
        return h.hexdigest()


def covariance(dec, temperature):
    """Build the quasi-equilibrium Gaussian state from a diagonalization.

    Each quasiparticle mode j carries the thermal factor
    Q_j = coth(E_j / 2T) (Q_j = 1 at T = 0); rotating diag(Q, Q) back
    through the inverse transform and subtracting the vacuum half gives
    the bare-mode correlator matrix.

    Args:
        dec (BogoliubovDecomposition): stable-phase diagonalization
        temperature (float): quasiparticle temperature, >= 0

    Returns:
        GaussianState

    Raises:
        ValueError: for a negative temperature, or one so high that
            coth(E / 2T) overflows at the smallest energy E (the message
            names T, E and the limit).
    """
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    m = dec.m
    energies = np.asarray(dec.energies, dtype=float)
    if temperature == 0:
        q = np.ones(m)
    else:
        e_min = float(energies.min(initial=np.inf))
        if not 0.5 * e_min / temperature > _COTH_ARGUMENT_LIMIT:
            raise ValueError(
                "temperature %r is too high for the smallest quasiparticle energy "
                "E = %r: coth(E / 2T) is finite only while E / 2T exceeds the "
                "limit 2^-1024 = %.3e, that is T < %.6e"
                % (float(temperature), e_min, _COTH_ARGUMENT_LIMIT, e_min * 2.0**1023)
            )
        # Halving E instead of doubling T keeps E / 2T finite for every
        # finite T; a tiny T overflows it to inf, where coth is exactly 1.
        with np.errstate(over="ignore"):
            q = 1.0 / np.tanh(0.5 * energies / temperature)
    r_inv = dec.r_inverse
    qq = np.concatenate([q, q])
    g = 0.5 * (r_inv * qq[None, :]) @ r_inv.conj().T
    g[np.diag_indices(2 * m)] -= 0.5
    # G is Hermitian up to roundoff by construction.
    g = 0.5 * (g + g.conj().T)

    return GaussianState(g=g, temperature=float(temperature), m_a=dec.m_a, m_ph=dec.m_ph)


def base_matrix(g):
    """Base matrix C = P G (1 + G)^-1 and the state log-normalization.

    P swaps the creation/annihilation half-blocks; the product is
    symmetric for every physical correlator matrix, which is checked
    within SYMMETRY_LIMIT here and then imposed exactly.  A G with a
    non-finite entry is refused.

    Args:
        g (array): 2M x 2M correlator matrix

    Returns:
        tuple[array, float]: the base matrix and log sqrt(det(1 + G)).
    """
    g = np.asarray(g, dtype=complex)
    two_m = g.shape[0]
    if g.ndim != 2 or g.shape[1] != two_m or two_m % 2:
        raise ValueError("correlator matrix must be square of even size")
    if not np.isfinite(g).all():
        raise ValueError("G has non-finite entries: a Gaussian state needs finite correlators")
    m = two_m // 2
    one_plus = np.eye(two_m, dtype=complex) + g
    # N = G (1 + G)^-1 solved as a right division to avoid the explicit
    # inverse.
    n = np.linalg.solve(one_plus.T, g.T).T
    c = symmetrized(np.concatenate([n[m:], n[:m]], axis=0), SYMMETRY_LIMIT, "C")

    sign, logabs = np.linalg.slogdet(one_plus)
    # Written so that a NaN phase is refused too.
    if abs(sign.imag) > _DET_PHASE_LIMIT or not sign.real > 0:
        raise ValueError(
            "det(1 + G) is not real positive: its phase is %.3e%+.3ej, and a "
            "physical Gaussian state needs a real part above 0 and |imag| "
            "within the limit %.0e" % (sign.real, sign.imag, _DET_PHASE_LIMIT)
        )
    log_norm = 0.5 * (logabs + np.log(sign.real))
    return c, log_norm


def extend_matrix(c, counts):
    """Replicate base-matrix rows/columns per requested counts.

    Mode k with count n_k contributes n_k copies of its annihilation row
    and n_k copies of its creation row; the hafnian of the result is the
    unnormalized outcome weight.

    Args:
        c (array): 2M x 2M base matrix
        counts (CountsVector): target occupation numbers

    Returns:
        array: extended matrix of size 2 * total counts.
    """
    c = np.asarray(c)
    m = c.shape[0] // 2
    reps = np.asarray(counts.key(), dtype=int)
    if reps.size != m:
        raise ValueError(
            "counts vector has %d modes, base matrix has %d" % (reps.size, m)
        )
    if np.any(reps < 0):
        raise ValueError("counts must be nonnegative")
    idx = np.concatenate(
        [np.repeat(np.arange(m), reps), np.repeat(np.arange(m, 2 * m), reps)]
    )
    return c[np.ix_(idx, idx)]
