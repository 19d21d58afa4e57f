"""Quadratic Hamiltonian assembly and Bogoliubov diagonalization.

The Hamiltonian is stored as the matrix of the quadratic form over the
operator vector ``(c^dag, c)``:

    H = [[chi_t,        eps + chi ],
         [(eps + chi)*, chi_t*    ]]

with ``eps`` the single-particle energies, ``chi`` the number-conserving
coupling and ``chi_t`` the pair coupling.  The same form reordered over
``(c, c^dag)`` gives the Hermitian dynamical matrix ``K`` obtained by
swapping the block rows of ``H``; ``K`` is positive definite exactly when
the system is thermodynamically stable, which is what the Cholesky route
below relies on: a form whose factorization fails is refused as unstable.
``model.CouplingBlocks`` checks its symmetries when it is built, so the
assembled ``K`` is exactly Hermitian and assembly checks nothing again.

The diagonalizing transform follows the standard Cholesky method:
factor ``K = L L^dag``, diagonalize ``L^dag J L`` with ``J =
diag(I, -I)``, and rescale the positive-eigenvalue columns.  The
negative-eigenvalue family is then reconstructed from the positive one by
conjugate mirroring, which enforces the ``[[A*, -B*], [-B, A]]`` block
structure of the transform exactly.  The rescaling solves against the
upper factor ``L^dag`` with ``np.linalg.solve``: LU picks no pivots on a
triangular matrix, so this is the same triangular solve as scipy's
``solve_triangular``, bit for bit, and the module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadraticHamiltonian",
    "BogoliubovDecomposition",
    "StabilityReport",
    "InstabilityError",
    "assemble_hamiltonian",
    "check_stability",
    "bogoliubov_diagonalize",
    "symplectic_metric",
    "STABILITY_LIMIT",
]

_DEGENERACY_TOL = 1e-12

# Smallest quasiparticle energy accepted as stable, relative to ||K||_2 of
# the dynamical form.
STABILITY_LIMIT = 1e-10


class InstabilityError(RuntimeError):
    """The quadratic form has no positive quasiparticle spectrum.

    Attributes:
        eigenvalue: the offending eigenvalue: a symplectic eigenvalue, or
            the smallest eigenvalue of K when its Cholesky factorization
            fails.
    """

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


def symplectic_metric(m):
    """The bosonic metric J = diag(I_m, -I_m)."""
    return np.diag(np.concatenate([np.ones(m), -np.ones(m)]))


def _swap_blocks(mat):
    m = mat.shape[0] // 2
    return np.vstack([mat[m:], mat[:m]])


@dataclass
class QuadraticHamiltonian:
    """Assembled 2M x 2M quadratic-form matrix with its mode partition."""

    h: np.ndarray
    m_a: int
    m_ph: int

    @property
    def m(self):
        return self.m_a + self.m_ph

    @property
    def dynamical(self):
        """Hermitian reordering of the form over (c, c^dag); positive
        definite iff the system is stable."""
        return _swap_blocks(self.h)


def assemble_hamiltonian(blocks):
    """Assemble the quadratic-form matrix from coupling blocks.

    The blocks are used as given: a ``CouplingBlocks`` checked their
    symmetries when it was built, so the dynamical form of the result is
    exactly Hermitian.

    Args:
        blocks (CouplingBlocks): coupling blocks

    Returns:
        QuadraticHamiltonian
    """
    m_a, m_ph, m = blocks.m_a, blocks.m_ph, blocks.m

    eps = np.zeros((m, m), dtype=complex)
    eps[:m_a, :m_a] = blocks.eps_a
    eps[m_a:, m_a:] = blocks.eps_ph

    chi = np.zeros((m, m), dtype=complex)
    chi[:m_a, m_a:] = blocks.chi_aph
    chi[m_a:, :m_a] = blocks.chi_pha
    chi[m_a:, m_a:] = blocks.chi_phph

    chit = np.zeros((m, m), dtype=complex)
    chit[:m_a, :m_a] = blocks.chit_aa
    chit[:m_a, m_a:] = blocks.chit_aph
    chit[m_a:, :m_a] = blocks.chit_pha

    top = eps + chi
    h = np.block([[chit, top], [top.conj(), chit.conj()]])
    return QuadraticHamiltonian(h=h, m_a=m_a, m_ph=m_ph)


@dataclass
class BogoliubovDecomposition:
    """Symplectic diagonalization of a stable quadratic Hamiltonian.

    ``energies`` are the quasiparticle energies in ascending order and
    ``a``/``b`` the Bogoliubov coefficient matrices.  The bare-to-
    quasiparticle transform is ``r_tilde = [[A*, -B*], [-B, A]]`` and its
    inverse ``r_inverse = [[A^T, B^dag], [B^T, A^dag]]``; both are
    reassembled from ``a`` and ``b`` on access so extraction and
    reassembly agree bit for bit.
    """

    energies: np.ndarray
    a: np.ndarray
    b: np.ndarray
    m_a: int
    m_ph: int

    @property
    def m(self):
        return self.m_a + self.m_ph

    @property
    def r_tilde(self):
        return np.block(
            [[self.a.conj(), -self.b.conj()], [-self.b, self.a]]
        )

    @property
    def r_inverse(self):
        return np.block(
            [[self.a.T, self.b.conj().T], [self.b.T, self.a.conj().T]]
        )

    def symplectic_residual(self):
        rt = self.r_tilde
        j = symplectic_metric(self.m)
        return float(np.max(np.abs(rt @ j @ rt.conj().T - j)))

    def diagonalization_residual(self, ham):
        """Residual of the congruence that diagonalizes the form."""
        r = self.r_inverse
        target = np.diag(np.concatenate([self.energies, self.energies]))
        return float(np.max(np.abs(r.conj().T @ ham.dynamical @ r - target)))


def _fix_column_phases(t1):
    """Rotate each column so its largest-magnitude entry is real positive."""
    for col in range(t1.shape[1]):
        idx = int(np.argmax(np.abs(t1[:, col])))
        val = t1[idx, col]
        mag = abs(val)
        if mag > 0:
            t1[:, col] *= val.conjugate() / mag
    return t1


def _order_degenerate(t1, energies, scale):
    """Stable-reorder columns within degenerate energy clusters.

    Columns whose energies agree within tolerance are ordered by the row
    index of their first significant coefficient, which makes the output
    independent of backend-specific eigenvector ordering.
    """
    order = np.arange(len(energies))
    start = 0
    while start < len(energies):
        stop = start + 1
        while (
            stop < len(energies)
            and energies[stop] - energies[start] <= _DEGENERACY_TOL * max(1.0, scale)
        ):
            stop += 1
        if stop - start > 1:
            def first_significant(col):
                mags = np.abs(t1[:, col])
                peak = mags.max()
                hits = np.nonzero(mags > 1e-8 * max(peak, 1.0))[0]
                return int(hits[0]) if hits.size else 0

            cluster = sorted(order[start:stop], key=first_significant)
            order[start:stop] = cluster
        start = stop
    return t1[:, order], energies[order]


def bogoliubov_diagonalize(ham):
    """Diagonalize a stable quadratic Hamiltonian.

    Args:
        ham (QuadraticHamiltonian): assembled Hamiltonian

    Returns:
        BogoliubovDecomposition

    Raises:
        InstabilityError: when the dynamical form K fails its Cholesky
            factorization or the lowest quasiparticle energy is not above
            STABILITY_LIMIT * ||K||_2, carrying the offending eigenvalue.
    """
    m = ham.m
    k = ham.dynamical
    k = 0.5 * (k + k.conj().T)
    scale = float(np.linalg.norm(k, 2)) if m else 0.0

    try:
        chol = np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(k)[0])
        raise InstabilityError(
            "dynamical form K failed its Cholesky factorization: smallest "
            "eigenvalue %.3e with ||K||_2 = %.3e, so no positive "
            "quasiparticle spectrum exists" % (min_eig, scale),
            eigenvalue=min_eig,
        ) from None
    jl = chol.copy()
    jl[m:] *= -1.0
    core = chol.conj().T @ jl
    core = 0.5 * (core + core.conj().T)
    lam, u = np.linalg.eigh(core)
    if lam[m - 1] >= 0 or lam[m] <= 0:
        nearest = lam[int(np.argmin(np.abs(lam)))]
        raise InstabilityError(
            "symplectic spectrum does not split into %d positive and %d "
            "negative branches (eigenvalue %.3e)" % (m, m, nearest),
            eigenvalue=nearest,
        )
    energies = lam[m:]
    if energies[0] <= STABILITY_LIMIT * scale:
        raise InstabilityError(
            "quasiparticle energy %.3e is not above the stability limit "
            "%.0e * ||K||_2 = %.3e"
            % (energies[0], STABILITY_LIMIT, STABILITY_LIMIT * scale),
            eigenvalue=energies[0],
        )
    t1 = np.linalg.solve(chol.conj().T, u[:, m:])
    t1 = t1 * np.sqrt(energies)[None, :]

    t1 = _fix_column_phases(t1)
    t1, energies = _order_degenerate(t1, energies, scale)

    # Mirror the positive family to the negative one; this bakes the
    # particle-hole structure of the transform in exactly.
    x = t1[:m]
    z = t1[m:]
    return BogoliubovDecomposition(
        energies=np.asarray(energies, dtype=float),
        a=x.T.copy(),
        b=z.T.copy(),
        m_a=ham.m_a,
        m_ph=ham.m_ph,
    )


@dataclass
class StabilityReport:
    """The quasiparticle verdict of a quadratic Hamiltonian.

    ``stable`` is true when every quasiparticle energy is real and above
    the stability limit; ``min_quasiparticle_energy`` is then the lowest
    one, and ``detail`` otherwise says why the form was refused.
    """

    stable: bool
    min_quasiparticle_energy: float = None
    detail: str = ""


def check_stability(ham):
    """Assess a quadratic Hamiltonian without raising on instability."""
    try:
        dec = bogoliubov_diagonalize(ham)
    except InstabilityError as exc:
        return StabilityReport(stable=False, detail=str(exc))
    return StabilityReport(
        stable=True, min_quasiparticle_energy=float(dec.energies[0])
    )
