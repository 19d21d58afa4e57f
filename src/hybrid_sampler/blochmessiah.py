"""Bloch-Messiah reduction of a Bogoliubov transform.

Splits the coefficient pair (A, B) of a symplectic transform into
passive-squeeze-passive form,

    A = W cosh(L_r) V,    B = -W sinh(L_r) V*,

with V, W unitary and L_r = diag(r_1 >= r_2 >= ... >= 0) the squeeze
spectrum.  The construction runs through the Autonne-Takagi
factorization of Y = -B (A*)^-1 = W tanh(L_r) W^T, which is symmetric
for every valid symplectic pair; recovering V from A then makes both
reconstructions exact by construction, including inside degenerate
squeeze subspaces.

Everything runs on numpy alone.  A real symmetric kernel, which every
example config produces, is factored by its eigendecomposition; a complex
one by the eigendecomposition of a real symmetric embedding of twice its
size (see ``takagi``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import symmetrized

__all__ = [
    "BlochMessiahFactors",
    "ModeFunctions",
    "ReconstructionError",
    "bloch_messiah",
    "squeeze_spectrum",
    "mode_functions",
    "takagi",
    "RECONSTRUCTION_LIMIT",
]


class ReconstructionError(RuntimeError):
    """The factored form does not reproduce the input within its limit."""


_SQUEEZE_CLAMP = 1e-12

# Largest max|X - X^T| accepted, relative to max(1, max|X|), of a Takagi
# input N.
_TAKAGI_SYMMETRY_LIMIT = 1e-10

# Largest residual of the reconstructed A and B accepted, relative to
# max(1, max|A|).
RECONSTRUCTION_LIMIT = 1e-9

# Largest max|Y - Y^T| of the squeeze kernel accepted, relative to
# max(1, max|Y|).  Symmetrizing Y moves the reconstructed B = -Y A* by
# half that asymmetry times max|A| (exactly so for two modes), which
# the reconstruction guard refuses above 2 * RECONSTRUCTION_LIMIT once
# max|A| >= 1; at a looser limit the kernel check would never decide.
_KERNEL_SYMMETRY_LIMIT = 2 * RECONSTRUCTION_LIMIT


def takagi(mat):
    """Autonne-Takagi factorization N = U diag(d) U^T of a symmetric matrix.

    A complex N = X + iY is factored through the real symmetric embedding
    H = [[X, Y], [Y, -X]], whose eigenvalues come in pairs +-d: each +d
    eigenvector (x; y) gives a column u = x + iy with N conj(u) = d u.
    Near d = 0 the +d and -d eigenvectors mix, so a QR step
    re-orthonormalizes the columns in descending order of d.  It moves a
    column by about eps/d, so its term d u u^T by about eps, and it
    completes the columns of zero singular values to an orthonormal basis.

    Args:
        mat (array): complex matrix, symmetric within 1e-10 * max(1,
            max|N|); its symmetric part is factored

    Returns:
        tuple[array, array]: singular values in descending order and the
        unitary U.
    """
    n = np.asarray(mat, dtype=complex)
    if n.ndim != 2 or n.shape[0] != n.shape[1]:
        raise ValueError("The input matrix is not square")
    n = symmetrized(n, _TAKAGI_SYMMETRY_LIMIT, "N")
    dim = n.shape[0]
    if dim == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    if np.max(np.abs(n)) == 0:
        return np.zeros(dim), np.eye(dim, dtype=complex)

    if np.max(np.abs(n.imag)) <= 1e-14 * max(1.0, np.max(np.abs(n))):
        # Real symmetric shortcut: eigenvectors with i-phases on the
        # negative eigenvalues.
        vals, vecs = np.linalg.eigh(n.real)
        phases = np.where(vals >= 0, 1.0 + 0.0j, 1.0j)
        u = vecs.astype(complex) * phases
        mags = np.abs(vals)
        order = np.argsort(-mags, kind="stable")
        return mags[order], u[:, order]

    x, y = n.real, n.imag
    vals, vecs = np.linalg.eigh(np.block([[x, y], [y, -x]]))
    # eigh sorts ascending, so the top half holds +d in reverse order.
    d = np.maximum(vals[dim:][::-1], 0.0)
    top = vecs[:, dim:][:, ::-1]
    # LAPACK's R has a real diagonal, so Q flips a column's sign at most,
    # which keeps it a Takagi vector.
    return d, np.linalg.qr(top[:dim] + 1j * top[dim:])[0]


@dataclass
class BlochMessiahFactors:
    """Passive-squeeze-passive factors of a Bogoliubov transform."""

    v: np.ndarray
    w: np.ndarray
    r: np.ndarray
    m_a: int
    m_ph: int

    @property
    def m(self):
        return self.m_a + self.m_ph

    @property
    def max_squeeze(self):
        return float(self.r[0]) if self.r.size else 0.0

    def reconstruct(self):
        """The (A, B) pair implied by the factors."""
        cosh_r = np.cosh(self.r)
        sinh_r = np.sinh(self.r)
        a = (self.w * cosh_r[None, :]) @ self.v
        b = -(self.w * sinh_r[None, :]) @ self.v.conj()
        return a, b


def _fix_column_signs(w):
    """Flip column signs so each largest-magnitude entry leads with a
    nonnegative real part (sign flips are the phase freedom that keeps
    both reconstructions exact)."""
    for col in range(w.shape[1]):
        idx = int(np.argmax(np.abs(w[:, col])))
        val = w[idx, col]
        if val.real < 0 or (val.real == 0 and val.imag < 0):
            w[:, col] = -w[:, col]
    return w


def bloch_messiah(dec):
    """Factor a Bogoliubov decomposition into squeeze normal form.

    Args:
        dec (BogoliubovDecomposition): symplectic decomposition with
            coefficient matrices ``a`` and ``b``

    Returns:
        BlochMessiahFactors

    Raises:
        ReconstructionError: when the input pair is not symplectic enough
            for the factored form to reproduce it within
            RECONSTRUCTION_LIMIT.
    """
    a, b = dec.a, dec.b
    m = a.shape[0]
    if m == 0:
        return BlochMessiahFactors(
            v=np.zeros((0, 0), dtype=complex),
            w=np.zeros((0, 0), dtype=complex),
            r=np.zeros(0),
            m_a=dec.m_a,
            m_ph=dec.m_ph,
        )

    # Y = -B (A*)^-1 is symmetric for a symplectic pair and carries the
    # squeeze spectrum as tanh(r).
    y = -np.linalg.solve(a.conj().T, b.T).T
    y = symmetrized(y, _KERNEL_SYMMETRY_LIMIT, "Y", error=ReconstructionError)

    tanh_r, w = takagi(y)
    if tanh_r.size and tanh_r[0] >= 1.0:
        raise ReconstructionError(
            "squeeze kernel has singular value %.6f >= 1; the input pair "
            "is not a bounded Bogoliubov transform" % tanh_r[0]
        )
    r = np.arctanh(tanh_r)
    r[r < _SQUEEZE_CLAMP] = 0.0

    w = _fix_column_signs(w)
    v = (w.conj().T @ a) / np.cosh(r)[:, None]

    factors = BlochMessiahFactors(v=v, w=w, r=r, m_a=dec.m_a, m_ph=dec.m_ph)
    a_rec, b_rec = factors.reconstruct()
    residual = max(
        float(np.max(np.abs(a_rec - a))), float(np.max(np.abs(b_rec - b)))
    )
    scale = max(1.0, float(np.max(np.abs(a))))
    if residual > RECONSTRUCTION_LIMIT * scale:
        raise ReconstructionError(
            "Bloch-Messiah reconstruction residual %.3e exceeds the limit "
            "%.0e * max(1, max|A|) = %.3e"
            % (residual, RECONSTRUCTION_LIMIT, RECONSTRUCTION_LIMIT * scale)
        )
    return factors


def squeeze_spectrum(factors):
    """Squeeze parameters in descending order."""
    return factors.r.copy()


@dataclass
class ModeFunctions:
    """Grid-sampled quasiparticle mode functions.

    Atom components are functions of position; photon components are
    coefficient vectors over the cavity modes.  ``eigen_squeeze`` holds
    the passive-rotated basis, ``u``/``v`` the Bogoliubov mode functions
    built from it with the cosh/sinh squeeze weights.
    """

    x: np.ndarray
    weights: np.ndarray
    eigen_squeeze_atom: np.ndarray
    eigen_squeeze_photon: np.ndarray
    u_atom: np.ndarray
    u_photon: np.ndarray
    v_atom: np.ndarray
    v_photon: np.ndarray

    def norms(self):
        """Bosonic norms: integral of |u|^2 - |v|^2 including photon
        coefficient weight; 1 for every mode of a valid transform."""
        u2 = (np.abs(self.u_atom) ** 2 * self.weights).sum(axis=1) + (
            np.abs(self.u_photon) ** 2
        ).sum(axis=1)
        v2 = (np.abs(self.v_atom) ** 2 * self.weights).sum(axis=1) + (
            np.abs(self.v_photon) ** 2
        ).sum(axis=1)
        return u2 - v2


def mode_functions(factors, basis, dec=None):
    """Assemble eigen-squeeze and quasiparticle mode functions.

    Args:
        factors (BlochMessiahFactors): squeeze normal form
        basis (ModeBasis): grid-sampled bare modes; required, so this is
            only available for geometry configurations
        dec (BogoliubovDecomposition): optional source decomposition; when
            given, the assembled u functions are cross-checked against the
            direct A-coefficient expansion

    Returns:
        ModeFunctions
    """
    if basis is None:
        raise ValueError(
            "mode functions need a grid basis; they are unavailable for "
            "direct-blocks configurations"
        )
    m_a, m_ph = factors.m_a, factors.m_ph
    if basis.phi_l.shape[0] != m_a:
        raise ValueError(
            "basis carries %d atom modes, factors expect %d"
            % (basis.phi_l.shape[0], m_a)
        )
    npts = basis.x.size

    bare_atom = np.zeros((factors.m, npts), dtype=complex)
    bare_atom[:m_a] = basis.phi_l
    bare_photon = np.zeros((factors.m, m_ph), dtype=complex)
    bare_photon[m_a:] = np.eye(m_ph)

    es_atom = factors.v.conj() @ bare_atom
    es_photon = factors.v.conj() @ bare_photon

    cosh_r = np.cosh(factors.r)
    sinh_r = np.sinh(factors.r)
    wc = factors.w.conj()
    u_atom = (wc * cosh_r[None, :]) @ es_atom
    u_photon = (wc * cosh_r[None, :]) @ es_photon
    v_atom = -(wc * sinh_r[None, :]) @ es_atom.conj()
    v_photon = -(wc * sinh_r[None, :]) @ es_photon.conj()

    if dec is not None:
        # The u functions are also the direct A-coefficient expansion of
        # the bare modes; a large mismatch means factors and dec disagree.
        u_direct = dec.a.conj() @ bare_atom
        residual = float(np.max(np.abs(u_direct - u_atom))) if u_atom.size else 0.0
        if residual > 1e-8 * max(1.0, float(np.max(np.abs(u_atom)))):
            raise ValueError(
                "mode functions disagree with the decomposition "
                "coefficients (residual %.3e); factors were not derived "
                "from this transform" % residual
            )

    return ModeFunctions(
        x=basis.x,
        weights=basis.weights,
        eigen_squeeze_atom=es_atom,
        eigen_squeeze_photon=es_photon,
        u_atom=u_atom,
        u_photon=u_photon,
        v_atom=v_atom,
        v_photon=v_photon,
    )
