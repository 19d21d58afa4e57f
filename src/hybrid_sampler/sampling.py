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
up to a per-mode cutoff is the diagonal of the box [0, cutoff]^(2M); a
single outcome n is the far corner of the diagonal of the box [0, n] x
[0, n].  Only the diagonal's dependency cone is evaluated: a backward
pass from the diagonal lists the entries it needs at each even level
|r| (at the budget's edge, a quarter of the box at one mode and a few
percent at four to six), and a plan memoised per box shape fills them
level by level.  Both boxes share one budget, MAX_BOX_ENTRIES, which
counts every entry of the box.  The module also marginalizes, draws
reproducible inverse-CDF samples, and checks samples against the
enumerated distribution; the chi-square p-value comes from a closed
form in ``math``, so the module needs numpy and the standard library only.

``sample`` returns ``Draws``: a read-only sequence of CountsVector kept
as flat lattice indices.  ``draws.counts`` is the (n, M) int array of the
draws, and a Draws equals a list of the same CountsVectors; to
concatenate draws with a list, convert them first, ``list(draws) + more``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian import CountsVector
from .model import _read_only

__all__ = [
    "ImaginaryResidualError",
    "TruncationError",
    "OutcomeDistribution",
    "ChiSquareResult",
    "Draws",
    "outcome_probability",
    "enumerate_distribution",
    "marginalize",
    "sample",
    "chi_square",
    "recommend_cutoff",
    "MAX_BOX_ENTRIES",
    "MAX_DRAWS",
    "IMAGINARY_LIMIT",
    "MIN_EXPECTED",
    "SIGNIFICANCE",
    "CUTOFF_FACTOR",
]

# Largest recurrence box, in entries: 256 MB of complex128 if it were
# stored whole.  Only the outcome diagonal's dependency cone is stored.
MAX_BOX_ENTRIES = 2 ** 24
# Bytes of recurrence plans kept in memory, and the entries of one level a
# plan takes at once.
_PLAN_MEMO_BYTES = 2 ** 23
_PLAN_CHUNK = 2 ** 15
_plans = {}
# Most draws one sample call makes: a `hybrid-sampler sample` run holds
# about 24 B per draw besides its lattice, so at the limit the draws
# take under about 0.15 GB.
MAX_DRAWS = 2 ** 22

# Largest imaginary part of a probability accepted, relative to its
# magnitude (absolute 1e-12 near zero).
IMAGINARY_LIMIT = 1e-9
_CLAMP_FLOOR = -1e-12
_MASS_SLACK = 1e-9

# The chi-square pooling minimum (expected count per bucket) and pass
# threshold (p-value), and recommend_cutoff's multiple of the largest mean.
MIN_EXPECTED = 20.0
SIGNIFICANCE = 0.01
CUTOFF_FACTOR = 10.0


class TruncationError(RuntimeError):
    """The enumerated distribution misses too much probability mass."""


class ImaginaryResidualError(RuntimeError):
    """A probability came out with a non-negligible imaginary part."""


@dataclass
class OutcomeDistribution:
    """Exhaustive outcome probabilities up to a per-mode cutoff.

    Attributes:
        probabilities: float64 array of shape (cutoff + 1,) * M, indexed
            by counts with atoms first
        captured_mass: sum of all included probabilities
        fingerprint: hex digest of the generating state
        m_a: atom modes in each outcome
        m_ph: photon modes in each outcome
        clamped: number of tiny negative probabilities snapped to zero
    """

    probabilities: np.ndarray
    captured_mass: float
    fingerprint: str
    m_a: int
    m_ph: int
    clamped: int = 0

    @property
    def cutoff(self):
        """Largest count per mode included in the lattice."""
        return self.probabilities.shape[0] - 1

    @property
    def m(self):
        return self.m_a + self.m_ph

    def outcomes(self):
        return _outcomes(self.probabilities.shape, self.m_a)

    def probability(self, counts):
        key = _as_counts(counts, self.m_a, self.m_ph).key()
        return float(self.probabilities[key]) if max(key) <= self.cutoff else 0.0


@dataclass
class ChiSquareResult:
    """Pearson goodness-of-fit verdict for a sample batch."""

    statistic: float
    dof: int
    p_value: float
    n_buckets: int

    @property
    def passed(self):
        return self.p_value > SIGNIFICANCE

    @property
    def p_bucket(self):
        return "pass" if self.passed else "fail"


class Draws(Sequence):
    """Draws of one ``sample`` call: a read-only sequence of CountsVector.

    The draws are kept as flat (C-order) indices into the lattice of
    ``shape``.  An int index gives a CountsVector, a slice gives a Draws,
    and draws of one outcome share one CountsVector.  A Draws equals
    another over the same lattice with the same indices, and a list of
    the same CountsVectors.

    Attributes:
        indices: read-only intp array, one flat lattice index per draw
        shape: lattice shape, (cutoff + 1,) * M
        m_a: atom modes in each outcome
    """

    def __init__(self, indices, shape, m_a):
        self.indices = np.asarray(indices, dtype=np.intp)
        self.indices.flags.writeable = False
        self.shape = tuple(shape)
        self.m_a = m_a
        self._table = None
        size = math.prod(self.shape)
        if self.indices.size and not 0 <= self.indices.min() <= self.indices.max() < size:
            raise ValueError("draw indices must lie in [0, %d)" % size)

    def _outcome_table(self):
        if self._table is None:
            self._table = _outcomes(self.shape, self.m_a)
        return self._table

    @property
    def counts(self):
        """The draws as an (n, M) int array, atoms first."""
        return np.stack(np.unravel_index(self.indices, self.shape), axis=-1)

    def __len__(self):
        return self.indices.size

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Draws(self.indices[item], self.shape, self.m_a)
        return self._outcome_table()[self.indices[item]]

    def __iter__(self):
        return map(self._outcome_table().__getitem__, self.indices.tolist())

    def __eq__(self, other):
        if isinstance(other, Draws):
            return (
                self.shape == other.shape
                and self.m_a == other.m_a
                and np.array_equal(self.indices, other.indices)
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self):
        return "Draws(%d draws over the lattice %s)" % (len(self), self.shape)


def _counts_vector(key, m_a):
    key = tuple(int(k) for k in key)
    return CountsVector(atoms=key[:m_a], photons=key[m_a:])


def _outcomes(shape, m_a):
    """Every outcome of the lattice ``shape`` in lexicographic count order."""
    return [_counts_vector(key, m_a) for key in np.ndindex(shape)]


def _as_counts(counts, m_a, m_ph):
    if isinstance(counts, CountsVector):
        vec = counts
    else:
        vec = _counts_vector(counts, m_a)
        if len(vec.key()) != m_a + m_ph:
            raise ValueError(
                "counts vector has %d entries, state has %d modes"
                % (len(vec.key()), m_a + m_ph)
            )
    if len(vec.atoms) != m_a or len(vec.photons) != m_ph:
        raise ValueError(
            "counts partition (%d, %d) does not match state partition (%d, %d)"
            % (len(vec.atoms), len(vec.photons), m_a, m_ph)
        )
    if any(c < 0 for c in vec.key()):
        raise ValueError("counts must be nonnegative")
    return vec


class _Plan(NamedTuple):
    """Where the outcome diagonal of one box shape reads the recurrence.

    The store holds a zero in slot 0, then the diagonal's dependency cone
    level by level from the top, and G(0) = 1 in its last slot.  Piece
    (start, code, slot, root) fills root.size slots from ``start``: entry
    e sums weights[code[:, e]] * store[slot[:, e]] over the rows in order
    and divides by root[e].  ``diagonal`` is the slot of each outcome in
    lattice order.  Every array is read-only.
    """

    size: int
    diagonal: np.ndarray
    pieces: tuple
    nbytes: int


def _unique(values):
    """The sorted distinct values of an int array.  np.unique would import
    numpy.ma, about 21 ms a process, and the default int64 quicksort maps
    about 0.25 MB more of SIMD code into the process than the stable sort."""
    values = np.sort(values, kind="stable")
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.greater(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _terms(flat, box, strides, depth):
    """Weight codes, neighbour box indices and k of the box entries ``flat``.

    An entry r with last nonzero axis i and k = r_i follows from the
    recurrence along axis i: C_ii sqrt(k - 1) G(r - 2 e_i) when k >= 2,
    then C_ij sqrt(r_j) G(r - e_i - e_j) for each j < i with r_j >= 1.
    Row 0 holds the first term and row 1 + j the term of axis j; where an
    entry has no such term its code is 0 and its neighbour -1, and rows
    with no term at all are dropped.  Code (i * D + j) * depth + t + 1
    stands for C_ij sqrt(t).
    """
    d = len(box)
    coords = flat // strides[:, None] % box[:, None]
    pivot = np.zeros(flat.size, dtype=np.int64)
    for axis in range(1, d):
        pivot[coords[axis] > 0] = axis
    k = coords[pivot, np.arange(flat.size)]
    axes = np.arange(d - 1)[:, None]
    valid = np.concatenate([(k >= 2)[None], (axes < pivot) & (coords[:-1] > 0)])
    rows = valid.any(axis=1)
    code = np.concatenate([
        (pivot * (d + 1) * depth + k)[None],
        (pivot * d + axes) * depth + coords[:-1] + 1,
    ])
    step = flat - strides[pivot]
    neighbour = np.concatenate([(step - strides[pivot])[None], step - strides[:-1, None]])
    code[~valid] = 0
    neighbour[~valid] = -1
    return code[rows].astype(np.int32), neighbour[rows], k


def _build_plan(extents):
    """The plan of the box ``extents`` x ``extents``, by a backward pass.

    From the top level down, the entries needed at a level (its outcomes
    and the neighbours of the level above) list their terms, whose
    neighbours are the entries needed one level down.  A level is taken
    _PLAN_CHUNK entries at a time, and no array spans the box.
    """
    m = len(extents)
    shape = extents * 2
    box = np.array(shape, dtype=np.int64)
    strides = np.array([math.prod(shape[i + 1:]) for i in range(2 * m)], dtype=np.int64)
    depth = max(extents)
    lattice = np.indices(extents).reshape(m, -1)
    levels = lattice.sum(axis=0)
    # The box index of each outcome (n, n), in lattice order.
    targets = (strides[:m] + strides[m:]) @ lattice
    diagonal = np.empty(targets.size, dtype=np.intp)
    pieces = []
    top = sum(extents) - m
    start, here = 1, targets[levels == top]
    for level in range(top, 0, -1):
        outcomes = levels == level
        diagonal[outcomes] = start + np.searchsorted(here, targets[outcomes])
        chunks = [
            _terms(here[lo:lo + _PLAN_CHUNK], box, strides, depth)
            for lo in range(0, here.size, _PLAN_CHUNK)
        ]
        below = _unique(np.concatenate(
            [targets[levels == level - 1]]
            + [neighbour[neighbour >= 0] for _, neighbour, _ in chunks]
        ))
        lower = start + here.size
        for lo, (code, neighbour, k) in zip(range(start, lower, _PLAN_CHUNK), chunks):
            slot = (lower + np.searchsorted(below, neighbour)).astype(np.int32)
            slot[neighbour < 0] = 0
            root = np.sqrt(k.astype(float))
            pieces.append((lo, _read_only(code), _read_only(slot), _read_only(root)))
        start, here = lower, below
    diagonal[0] = start
    nbytes = diagonal.nbytes + sum(arr.nbytes for piece in pieces for arr in piece[1:])
    return _Plan(start + 1, _read_only(diagonal), tuple(reversed(pieces)), nbytes)


def _plan(extents):
    """The plan of the box ``extents`` x ``extents``, memoised when small.

    A plan of at most _PLAN_MEMO_BYTES / 8 is kept, and the least recently
    used go first once the kept ones exceed _PLAN_MEMO_BYTES.
    """
    plan = _plans.pop(extents, None) or _build_plan(extents)
    if plan.nbytes <= _PLAN_MEMO_BYTES // 8:
        _plans[extents] = plan
        while sum(kept.nbytes for kept in _plans.values()) > _PLAN_MEMO_BYTES:
            del _plans[next(iter(_plans))]
    return plan


def _diagonal(c, extents):
    """G(n, n) = haf(C repeated by (n, n)) / n! for every n below ``extents``.

    Only the diagonal's dependency cone is evaluated, level by level: one
    multiply makes the table C_ij sqrt(t); each piece of a level is one
    gather of weights, one of neighbours and one multiply, then a sum of
    its term rows in order from +0, as in a box filled in place (so a -0
    first term gives +0), and a division by sqrt(k).  Each entry's
    arithmetic is thus that of the axis-wise recurrence and depends on r
    alone: every box containing r gives G(r) bit for bit.  Odd levels are
    zero for any C and are never touched.
    """
    plan = _plan(extents)
    d, depth = len(c), max(extents)
    # Weight 0 is the zero of padding terms.
    weights = np.zeros(d * d * depth + 1, dtype=complex)
    np.multiply(c[:, :, None], np.sqrt(np.arange(depth)), out=weights[1:].reshape(d, d, depth))
    store = np.empty(plan.size, dtype=complex)
    store[0], store[-1] = 0.0, 1.0
    for start, code, slot, root in plan.pieces:
        terms = weights.take(code)
        terms *= store.take(slot)
        values = store[start:start + root.size]
        np.add(terms[0], 0.0, out=values)
        for term in terms[1:]:
            values += term
        values /= root
    return store[plan.diagonal].reshape(extents)


def _probabilities(state, values):
    """Float probabilities from box values, same shape, and the clamped count.

    Each outcome's imaginary residual must stay within IMAGINARY_LIMIT
    of its weight (or 1e-12); negatives down to the roundoff floor are
    snapped to zero, anything below it is refused.
    """
    weights = values * math.exp(-state.log_norm)
    limits = np.maximum(IMAGINARY_LIMIT * np.abs(weights), 1e-12)
    bad = np.flatnonzero(np.abs(weights.imag) > limits)
    if bad.size:
        i = bad[0]
        raise ImaginaryResidualError(
            "outcome %s has imaginary residual %.3e (limit %.3e); the "
            "base matrix is not a valid state kernel"
            % (_outcome_at(values, i, state.m_a), abs(weights.flat[i].imag),
               limits.flat[i])
        )
    real = weights.real
    bad = np.flatnonzero(real < _CLAMP_FLOOR)
    if bad.size:
        i = bad[0]
        raise ValueError(
            "outcome %s has probability %.3e below the roundoff floor "
            "%.1e; the state is invalid"
            % (_outcome_at(values, i, state.m_a), real.flat[i], _CLAMP_FLOOR)
        )
    negative = real < 0
    return np.where(negative, 0.0, real), int(np.count_nonzero(negative))


def _outcome_at(values, flat_index, m_a):
    return _counts_vector(np.unravel_index(flat_index, values.shape), m_a)


def _lattice(state, extents, quantity, remedy):
    """Probabilities of every outcome below ``extents``, and the clamped count.

    The outcomes are the diagonal G(n, n) of the recurrence box with
    ``extents`` for both the row and the column counts, evaluated by
    ``_diagonal`` over the diagonal's dependency cone only.  The budget
    still counts the whole box: one above MAX_BOX_ENTRIES entries is
    refused before any plan or array exists.
    """
    side = math.prod(extents)
    if side * side > MAX_BOX_ENTRIES:
        raise ValueError(
            "lattice budget exceeded: %s = %d box entries is above the "
            "limit MAX_BOX_ENTRIES = %d; %s"
            % (quantity, side * side, MAX_BOX_ENTRIES, remedy)
        )
    return _probabilities(state, _diagonal(state.c, extents))


def outcome_probability(state, counts):
    """Probability of one joint count outcome.

    Evaluates the diagonal of the box [0, n] x [0, n], over its
    dependency cone only, and reads its far corner.  An entry's
    arithmetic depends on its counts alone, so the result equals the
    enumerated lattice's entry for n bit for bit.

    Args:
        state (GaussianState): state built by the gaussian module
        counts: CountsVector or flat count sequence (atoms then photons)

    Returns:
        float

    Raises:
        ImaginaryResidualError: an imaginary part above IMAGINARY_LIMIT on
            the diagonal up to n, which signals an invalid base matrix.
        ValueError: the box prod (n_k + 1)^2 exceeds MAX_BOX_ENTRIES, or
            a probability on the diagonal up to n is below the roundoff
            floor.
    """
    key = _as_counts(counts, state.m_a, state.m_ph).key()
    extents = tuple(n + 1 for n in key)
    probabilities, _ = _lattice(state, extents, "prod (n_k+1)^2", "lower the counts")
    return float(probabilities[key])


def enumerate_distribution(state, cutoff):
    """Evaluate every outcome with all counts <= cutoff.

    The outcomes are the diagonal of the recurrence box [0, cutoff]^(2M),
    of which only the diagonal's dependency cone is evaluated.

    Args:
        state (GaussianState): state built by the gaussian module
        cutoff (int): largest per-mode count, >= 0

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
    extents = (cutoff + 1,) * state.m
    probabilities, clamped = _lattice(
        state, extents, "(cutoff+1)^(2M)", "lower the cutoff or the mode count"
    )
    captured = math.fsum(probabilities.ravel())
    if captured > 1.0 + _MASS_SLACK:
        raise ValueError(
            "captured mass %.12f exceeds 1 by more than %.1e; the state "
            "is invalid" % (captured, _MASS_SLACK)
        )
    return OutcomeDistribution(
        probabilities=probabilities,
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
    dropped = [i for i in range(dist.m) if i not in kept]
    # A running sum adds each entry's terms one at a time in lexicographic
    # count order; a pairwise .sum() would move last bits of the payloads.
    moved = dist.probabilities.transpose(dropped + kept)
    summed = np.cumsum(moved.reshape((-1,) + moved.shape[len(dropped):]), axis=0)
    return OutcomeDistribution(
        probabilities=summed[-1],
        captured_mass=dist.captured_mass,
        fingerprint=dist.fingerprint,
        m_a=new_m_a,
        m_ph=len(kept) - new_m_a,
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
        Draws, a read-only sequence of CountsVector backed by flat lattice
        indices; draws of one outcome share one CountsVector

    Raises:
        ValueError: n_samples negative or above MAX_DRAWS, before any allocation.
        TruncationError: captured mass <= 0.99, too lossy to renormalize.
    """
    n_samples = int(n_samples)
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if n_samples > MAX_DRAWS:
        raise ValueError(
            "n_samples = %d exceeds the draw limit MAX_DRAWS = %d" % (n_samples, MAX_DRAWS)
        )
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if dist.captured_mass <= 0.99:
        raise TruncationError(
            "captured mass %.6f is <= 0.99; raise the cutoff before "
            "sampling" % dist.captured_mass
        )
    cdf = np.cumsum(dist.probabilities.ravel() / dist.captured_mass)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    indices = np.searchsorted(cdf, rng.random(n_samples), side="right")
    return Draws(indices, dist.probabilities.shape, dist.m_a)


def chi_square(dist, samples):
    """Pearson goodness-of-fit of samples against the distribution.

    Outcomes whose expected count falls below MIN_EXPECTED are pooled
    into a tail bucket (merged into the last retained bucket when the
    tail itself stays below the minimum).  Draws are counted by value:
    a Draws over this lattice by its indices, any other sequence by the
    key() of each CountsVector; a draw with a count above the cutoff
    joins the tail.

    Args:
        dist (OutcomeDistribution): reference distribution
        samples: Draws, or a sequence of CountsVector

    Returns:
        ChiSquareResult, which passes when the p-value exceeds SIGNIFICANCE

    Raises:
        ValueError: no samples, draws with another mode count, or too few
            samples to form two buckets.
    """
    if not samples:
        raise ValueError("no samples given")
    n = len(samples)
    shape = dist.probabilities.shape
    size = dist.probabilities.size
    if isinstance(samples, Draws) and samples.shape == shape:
        flat = samples.indices
    else:
        keys = np.array([counts.key() for counts in samples], dtype=np.intp)
        if keys.shape[1] != dist.m:
            raise ValueError(
                "draws have %d modes, the distribution has %d" % (keys.shape[1], dist.m)
            )
        outside = np.any((keys < 0) | (keys > dist.cutoff), axis=1)
        flat = np.where(
            outside, size, np.ravel_multi_index(tuple(keys.T), shape, mode="clip")
        )
    # The last slot counts the draws outside the lattice.
    observed = np.bincount(flat, minlength=size + 1).tolist()

    retained = []
    tail_expected = 0.0
    tail_observed = observed[-1]
    for seen, value in zip(observed, dist.probabilities.ravel().tolist()):
        expected = value / dist.captured_mass * n
        if expected >= MIN_EXPECTED:
            retained.append([float(seen), expected])
        else:
            tail_expected += expected
            tail_observed += seen

    if tail_expected > 0 or tail_observed > 0:
        if tail_expected >= MIN_EXPECTED:
            retained.append([float(tail_observed), tail_expected])
        elif retained:
            retained[-1][0] += tail_observed
            retained[-1][1] += tail_expected
        else:
            raise ValueError(
                "insufficient samples after pooling: no bucket reaches "
                "the minimum expected count %.1f" % MIN_EXPECTED
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
    return ChiSquareResult(
        statistic=statistic,
        dof=dof,
        p_value=_chi2_sf(dof, statistic),
        n_buckets=len(retained),
    )


def _chi2_sf(dof, x):
    """Chi-square tail Q(dof/2, x/2) for an integer dof >= 1, with math only.

    Below the mean (x < dof) this is 1 - P from the power series of P,
    whose terms shrink there, and Q stays above about 0.3.  Otherwise the
    tail of a half-integer a = dof/2 is a finite sum (Abramowitz & Stegun
    26.4): the terms y^(a-k-1) e^-y / Gamma(a-k) summed by Horner from
    the top one, each ratio (a-k)/y <= 1, plus erfc(sqrt(y)) for odd dof.
    """
    if dof < 1:
        raise ValueError("chi-square needs dof >= 1, got %r" % dof)
    if math.isnan(x):
        return math.nan
    a, y = dof / 2, x / 2
    if y <= 0:
        return 1.0
    if y == math.inf:
        return 0.0
    if y < a:
        term = total = 1.0
        k = a
        while term > total * 1e-17:
            k += 1
            term *= y / k
            total += term
        return 1.0 - total * math.exp(a * math.log(y) - y - math.lgamma(a + 1))
    q = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    if dof > 1:
        total = 1.0
        for k in range(dof // 2 - 1, 0, -1):
            total = 1.0 + total * (a - k) / y
        q += total * math.exp((a - 1) * math.log(y) - y - math.lgamma(a))
    return q


def recommend_cutoff(state):
    """Cutoff suggestion: CUTOFF_FACTOR * the largest mean occupation, at
    least 1, capped at the largest cutoff c whose lattice fits the budget,
    (c + 1)^(2M) <= MAX_BOX_ENTRIES; 0 when only the vacuum fits."""
    means = state.mean_occupations()
    top = float(np.max(means)) if means.size else 0.0
    cutoff = max(1, int(math.ceil(CUTOFF_FACTOR * top)))
    if state.m:
        # The float root is off by far less than one; the loop settles it.
        cutoff = min(cutoff, math.floor(MAX_BOX_ENTRIES ** (0.5 / state.m)))
        while (cutoff + 1) ** (2 * state.m) > MAX_BOX_ENTRIES:
            cutoff -= 1
    return cutoff
