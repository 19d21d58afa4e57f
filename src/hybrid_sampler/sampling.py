"""Joint count distribution: evaluation, enumeration, sampling, validation.

The probability of detecting atom counts N_1..N_Ma and photon counts
q_1..q_Mph is

    rho(N, q) = haf(C_ext) / (sqrt(det(1 + G)) * prod N_l! * prod q_nu!),

with C_ext the base matrix replicated per counts: n_k copies of row k and
n_k copies of row M + k.  Every such hafnian is a multidimensional
Hermite value at zero, so one recurrence over a box of the 2M replication
counts r yields all of them at once,

    G(r + e_i) = sum_j C_ij sqrt(r_j) G(r - e_j) / sqrt(r_i + 1),

with G(r) = haf(C repeated by r) / sqrt(r!) and rho(n) = G(n, n) /
sqrt(det(1 + G)) (Miatto & Quesada, Quantum 4, 366 (2020)).  The lattice
up to a per-mode cutoff reads the diagonal of the box [0, cutoff]^(2M); a
single outcome n reads the far corner of the box [0, n] x [0, n].  Both
boxes share one budget, MAX_BOX_ENTRIES.  The module also marginalizes,
draws reproducible inverse-CDF samples, and checks samples against the
enumerated distribution.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .gaussian import CountsVector

__all__ = [
    "ImaginaryResidualError",
    "TruncationError",
    "OutcomeDistribution",
    "ChiSquareResult",
    "outcome_probability",
    "enumerate_distribution",
    "marginalize",
    "sample",
    "chi_square",
    "recommend_cutoff",
    "MAX_BOX_ENTRIES",
]

# Largest recurrence box, in entries: 256 MB of complex128.
MAX_BOX_ENTRIES = 2 ** 24

_SYMMETRY_TOL = 1e-8
_CLAMP_FLOOR = -1e-12
_MASS_SLACK = 1e-9


class TruncationError(RuntimeError):
    """The enumerated distribution misses too much probability mass."""


class ImaginaryResidualError(RuntimeError):
    """A probability came out with a non-negligible imaginary part."""


@dataclass
class OutcomeDistribution:
    """Exhaustive outcome probabilities up to a per-mode cutoff.

    Attributes:
        cutoff: largest count per mode included in the lattice
        probabilities: ordered map CountsVector -> probability, outcomes
            in lexicographic count order
        captured_mass: sum of all included probabilities
        fingerprint: hex digest of the generating state
        m_a: atom modes in each outcome
        m_ph: photon modes in each outcome
        clamped: number of tiny negative probabilities snapped to zero
    """

    cutoff: int
    probabilities: dict
    captured_mass: float
    fingerprint: str
    m_a: int
    m_ph: int
    clamped: int = 0

    @property
    def m(self):
        return self.m_a + self.m_ph

    def outcomes(self):
        return list(self.probabilities.keys())

    def probability(self, counts):
        counts = _as_counts(counts, self.m_a, self.m_ph)
        return self.probabilities.get(counts, 0.0)


@dataclass
class ChiSquareResult:
    """Pearson goodness-of-fit verdict for a sample batch."""

    statistic: float
    dof: int
    p_value: float
    n_buckets: int
    significance: float = 0.01

    @property
    def passed(self):
        return self.p_value > self.significance

    @property
    def p_bucket(self):
        return "pass" if self.passed else "fail"


def _as_counts(counts, m_a, m_ph):
    if isinstance(counts, CountsVector):
        vec = counts
    else:
        flat = tuple(int(c) for c in counts)
        if len(flat) != m_a + m_ph:
            raise ValueError(
                "counts vector has %d entries, state has %d modes"
                % (len(flat), m_a + m_ph)
            )
        vec = CountsVector(atoms=flat[:m_a], photons=flat[m_a:])
    if len(vec.atoms) != m_a or len(vec.photons) != m_ph:
        raise ValueError(
            "counts partition (%d, %d) does not match state partition (%d, %d)"
            % (len(vec.atoms), len(vec.photons), m_a, m_ph)
        )
    if any(c < 0 for c in vec.key()):
        raise ValueError("counts must be nonnegative")
    return vec


def _checked_base_matrix(state):
    """The state's base matrix, checked symmetric and then symmetrized."""
    c = np.asarray(state.c, dtype=complex)
    residual = float(np.max(np.abs(c - c.T)))
    scale = max(1.0, float(np.max(np.abs(c))))
    if residual > _SYMMETRY_TOL * scale:
        raise ValueError(
            "base matrix is not symmetric: max |C - C^T| = %.3e" % residual
        )
    return 0.5 * (c + c.T)


def _check_budget(entries, quantity, remedy):
    """Refuse a recurrence box above MAX_BOX_ENTRIES before allocating it."""
    if entries > MAX_BOX_ENTRIES:
        raise ValueError(
            "lattice budget exceeded: %s = %d box entries is above the "
            "limit %d; %s" % (quantity, entries, MAX_BOX_ENTRIES, remedy)
        )


def _hermite_box(c, extents):
    """G(r) = haf(C repeated by r) / sqrt(r!) for every r below ``extents``.

    Axes are filled in order.  An entry whose last nonzero index lies on
    axis i follows from the recurrence along axis i, which reads only
    entries whose later axes are zero as well and so are already filled.
    The arithmetic of each entry depends on r alone, not on the extents,
    so every box containing r yields the same G(r) bit for bit.
    """
    g = np.zeros(extents, dtype=complex)
    g.flat[0] = 1.0
    roots = [np.sqrt(np.arange(1, e)) for e in extents]
    for i, extent in enumerate(extents):
        head = (slice(None),) * i
        # The trailing Ellipsis keeps a fully indexed slice a writable view.
        tail = (0,) * (len(extents) - i - 1) + (Ellipsis,)
        # C_ij sqrt(r_j), laid along axis j of a slice over axes 0..i-1.
        weights = [
            (c[i, j] * roots[j]).reshape((-1,) + (1,) * (i - 1 - j))
            for j in range(i)
        ]
        for k in range(1, extent):
            out = g[head + (k,) + tail]
            if k >= 2:
                out += (c[i, i] * roots[i][k - 2]) * g[head + (k - 2,) + tail]
            prev = g[head + (k - 1,) + tail]
            for j, weight in enumerate(weights):
                lead = (slice(None),) * j
                out[lead + (slice(1, None),)] += (
                    weight * prev[lead + (slice(None, -1),)]
                )
            out /= math.sqrt(k)
    return g


def _probabilities(state, values, outcomes, tol_imaginary):
    """Python-float probabilities from box values, and the clamped count.

    Each outcome's imaginary residual must stay within ``tol_imaginary``
    of its weight (or 1e-12); negatives down to the roundoff floor are
    snapped to zero, anything below it is refused.
    """
    weights = values * math.exp(-state.log_norm)
    limits = np.maximum(tol_imaginary * np.abs(weights), 1e-12)
    bad = np.flatnonzero(np.abs(weights.imag) > limits)
    if bad.size:
        i = bad[0]
        raise ImaginaryResidualError(
            "outcome %s has imaginary residual %.3e (limit %.3e); the "
            "base matrix is not a valid state kernel"
            % (outcomes[i], abs(weights[i].imag), limits[i])
        )
    real = weights.real
    bad = np.flatnonzero(real < _CLAMP_FLOOR)
    if bad.size:
        i = bad[0]
        raise ValueError(
            "outcome %s has probability %.3e below the roundoff floor "
            "%.1e; the state is invalid" % (outcomes[i], real[i], _CLAMP_FLOOR)
        )
    negative = real < 0
    return np.where(negative, 0.0, real).tolist(), int(np.count_nonzero(negative))


def outcome_probability(state, counts, *, tol_imaginary=1e-9):
    """Probability of one joint count outcome.

    Runs the recurrence on the box [0, n] x [0, n], so the result equals
    the enumerated lattice's entry for n bit for bit.

    Args:
        state (GaussianState): state built by the gaussian module
        counts: CountsVector or flat count sequence (atoms then photons)
        tol_imaginary (float): relative bound on the imaginary residual

    Returns:
        float

    Raises:
        ImaginaryResidualError: imaginary part above tolerance, which
            signals an invalid base matrix.
        ValueError: the box prod (n_k + 1)^2 exceeds MAX_BOX_ENTRIES, or
            the probability is below the roundoff floor.
    """
    counts = _as_counts(counts, state.m_a, state.m_ph)
    extents = tuple(n + 1 for n in counts.key()) * 2
    _check_budget(math.prod(extents), "prod (n_k+1)^2", "lower the counts")
    box = _hermite_box(_checked_base_matrix(state), extents)
    (value,), _ = _probabilities(
        state, box.reshape(-1)[-1:], [counts], tol_imaginary
    )
    return value


def enumerate_distribution(state, cutoff, *, tol_imaginary=1e-9):
    """Evaluate every outcome with all counts <= cutoff.

    One recurrence fills the box [0, cutoff]^(2M); the outcomes are its
    diagonal, in lexicographic count order.

    Args:
        state (GaussianState): state built by the gaussian module
        cutoff (int): largest per-mode count, >= 0
        tol_imaginary (float): per-outcome imaginary residual bound

    Returns:
        OutcomeDistribution

    Raises:
        ValueError: the box (cutoff + 1)^(2M) exceeds MAX_BOX_ENTRIES (the
            message names the entry count and the limit), an outcome is
            below the roundoff floor, or the captured mass exceeds 1.
    """
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    m = state.m
    _check_budget(
        (cutoff + 1) ** (2 * m),
        "(cutoff+1)^(2M)",
        "lower the cutoff or the mode count",
    )
    box = _hermite_box(_checked_base_matrix(state), (cutoff + 1,) * (2 * m))
    side = (cutoff + 1) ** m
    outcomes = [
        CountsVector(atoms=key[: state.m_a], photons=key[state.m_a :])
        for key in itertools.product(range(cutoff + 1), repeat=m)
    ]
    values, clamped = _probabilities(
        state, box.reshape(side, side).diagonal(), outcomes, tol_imaginary
    )
    captured = math.fsum(values)
    if captured > 1.0 + _MASS_SLACK:
        raise ValueError(
            "captured mass %.12f exceeds 1 by more than %.1e; the state "
            "is invalid" % (captured, _MASS_SLACK)
        )
    return OutcomeDistribution(
        cutoff=cutoff,
        probabilities=dict(zip(outcomes, values)),
        captured_mass=captured,
        fingerprint=state.fingerprint(),
        m_a=state.m_a,
        m_ph=state.m_ph,
        clamped=clamped,
    )


def marginalize(dist, keep):
    """Sum the distribution over every mode not in ``keep``.

    Args:
        dist (OutcomeDistribution): joint distribution
        keep: nonempty collection of mode indices (0-based, atoms first)

    Returns:
        OutcomeDistribution over the kept modes, same captured mass.
    """
    kept = sorted(set(int(i) for i in keep))
    if not kept:
        raise ValueError("keep set must be nonempty")
    if kept[0] < 0 or kept[-1] >= dist.m:
        raise ValueError(
            "keep indices must lie in [0, %d)" % dist.m
        )
    new_m_a = sum(1 for i in kept if i < dist.m_a)
    new_m_ph = len(kept) - new_m_a

    accum = {}
    for counts, value in dist.probabilities.items():
        key = counts.key()
        sub = tuple(key[i] for i in kept)
        accum[sub] = accum.get(sub, 0.0) + value
    probabilities = {}
    for sub in sorted(accum):
        counts = CountsVector(atoms=sub[:new_m_a], photons=sub[new_m_a:])
        probabilities[counts] = accum[sub]
    return OutcomeDistribution(
        cutoff=dist.cutoff,
        probabilities=probabilities,
        captured_mass=dist.captured_mass,
        fingerprint=dist.fingerprint,
        m_a=new_m_a,
        m_ph=new_m_ph,
        clamped=dist.clamped,
    )


def sample(dist, n_samples, seed):
    """Draw reproducible outcomes by inverse CDF over the lattice.

    The generator is counter-based (Philox, 64-bit key), so a fixed
    (seed, dist) pair yields the same samples on every platform.

    Args:
        dist (OutcomeDistribution): enumerated distribution
        n_samples (int): number of draws
        seed (int): 64-bit PRNG key

    Returns:
        list[CountsVector]

    Raises:
        TruncationError: captured mass <= 0.99, too lossy to renormalize.
    """
    n_samples = int(n_samples)
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if dist.captured_mass <= 0.99:
        raise TruncationError(
            "captured mass %.6f is <= 0.99; raise the cutoff before "
            "sampling" % dist.captured_mass
        )
    outcomes = dist.outcomes()
    probs = np.fromiter(
        dist.probabilities.values(), dtype=float, count=len(outcomes)
    )
    cdf = np.cumsum(probs / dist.captured_mass)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    draws = rng.random(n_samples)
    indices = np.searchsorted(cdf, draws, side="right")
    return [outcomes[int(i)] for i in indices]


def chi_square(dist, samples, *, min_expected=20.0, significance=0.01):
    """Pearson goodness-of-fit of samples against the distribution.

    Outcomes whose expected count falls below ``min_expected`` are pooled
    into a tail bucket (merged into the last retained bucket when the
    tail itself stays below the minimum).

    Args:
        dist (OutcomeDistribution): reference distribution
        samples: list of CountsVector draws
        min_expected (float): smallest expected count per retained bucket
        significance (float): pass threshold on the p-value

    Returns:
        ChiSquareResult

    Raises:
        ValueError: no samples, or too few to form two buckets.
    """
    if not samples:
        raise ValueError("no samples given")
    n = len(samples)
    observed = Counter(samples)

    retained = []
    tail_expected = 0.0
    tail_observed = 0
    for counts, value in dist.probabilities.items():
        expected = value / dist.captured_mass * n
        if expected >= min_expected:
            retained.append([float(observed.get(counts, 0)), expected])
        else:
            tail_expected += expected
            tail_observed += observed.get(counts, 0)
    known = set(dist.probabilities)
    for counts, count in observed.items():
        if counts not in known:
            tail_observed += count

    if tail_expected > 0 or tail_observed > 0:
        if tail_expected >= min_expected:
            retained.append([float(tail_observed), tail_expected])
        elif retained:
            retained[-1][0] += tail_observed
            retained[-1][1] += tail_expected
        else:
            raise ValueError(
                "insufficient samples after pooling: no bucket reaches "
                "the minimum expected count %.1f" % min_expected
            )
    if len(retained) < 2:
        raise ValueError(
            "insufficient samples after pooling: need at least two "
            "buckets, got %d" % len(retained)
        )

    statistic = math.fsum(
        (obs - exp) ** 2 / exp for obs, exp in retained
    )
    dof = len(retained) - 1
    p_value = float(chi2.sf(statistic, dof))
    return ChiSquareResult(
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        n_buckets=len(retained),
        significance=significance,
    )


def recommend_cutoff(state, *, factor=10.0):
    """Cutoff suggestion from mean occupations (at least factor * max n)."""
    means = state.mean_occupations()
    top = float(np.max(means)) if means.size else 0.0
    return max(1, int(math.ceil(factor * top)))
