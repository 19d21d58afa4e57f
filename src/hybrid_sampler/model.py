"""Physical system description and effective coupling blocks.

The package models a driven optical cavity coupled to a trapped
quasi-condensate.  A :class:`SystemConfig` either describes a 1-D toy
geometry, whose coupling blocks are coupling constants times overlaps of
mode functions sampled on a grid, or carries the coupling blocks directly
for synthetic studies.  The overlaps are integrated once per process, for
the last grid used and each mode count.  A config checks itself
once, when it is built, and is frozen: ``config_from_dict`` only maps a
JSON document onto the constructors.

Units: hbar = k_B = 1 and the trap frequency sets the energy scale, so
lengths are in trap oscillator lengths and energies in trap quanta.  The
condensate amplitude is absorbed into the drive and cavity-mode Rabi
amplitudes, and ``n_ex`` is a relative noncondensate density, so the
Popov shift reads ``2 g_a_n0 (|phi0|^2 + n_ex)``.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "GridSpec",
    "SystemConfig",
    "ModeBasis",
    "CouplingBlocks",
    "ConfigError",
    "GridResolutionError",
    "load_config",
    "config_from_dict",
    "build_mode_basis",
    "compute_coupling_blocks",
    "estimate_scattering_time",
    "symmetrized",
]

MODE_GEOMETRY = "geometry_1d"
MODE_DIRECT = "direct_blocks"

# Largest max|X - X^T| (or X^H) of a config block accepted, relative to
# max(1, max|X|): inputs may carry roundoff-level asymmetry, which
# symmetrization removes; anything above this looks like a typo.
_INPUT_SYMMETRY_LIMIT = 1e-6
# The same for the blocks a CouplingBlocks is built from, and for the
# largest imaginary part of chit_pha.
_BLOCK_SYMMETRY_LIMIT = 1e-12
# Largest grid.points * (m_a + m_ph + 2) of a geometry config: about the
# number of float64 samples build_mode_basis allocates (the grid, its
# weights, m_a + 1 trap states, the drive envelope and m_ph standing waves).
MAX_GRID_SAMPLES = 2**24
# Largest m_a + m_ph of a config.  The stages after the blocks build 2M x
# 2M matrices and factor them: `build` at M = 256 takes about 2.5 s and
# 0.2 GB, at M = 1024 about 50 s and 2.7 GB.
MAX_MODES = 256


class ConfigError(ValueError):
    """A configuration document violates the schema or an invariant."""


class GridResolutionError(RuntimeError):
    """The quadrature grid cannot resolve the requested modes."""


_REAL_TYPES = (int, float, np.integer, np.floating)
_FLOAT_MAX = sys.float_info.max


def _number(name, value, *, integer=False):
    """``value`` as a float (an int if ``integer``), checked to be a finite
    real number, and integral if ``integer``; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        raise ConfigError("%s must be a number, got %r" % (name, value))
    # Also false for NaN, and for an int no float can hold.
    if not abs(value) <= _FLOAT_MAX:
        raise ConfigError("%s must be finite, got %r" % (name, value))
    if integer and int(value) != value:
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    return int(value) if integer else float(value)


def _refuse_unknown_keys(data, cls, where):
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError("unknown key(s) in %s: %s" % (where, ", ".join(sorted(unknown))))


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-half_length, half_length] with trapezoid weights,
    checked when built (finite half_length > 0, integer points >= 16)."""

    half_length: float = 8.0
    points: int = 16384

    def __post_init__(self):
        object.__setattr__(self, "half_length", _number("grid.half_length", self.half_length))
        object.__setattr__(self, "points", _number("grid.points", self.points, integer=True))
        if not self.half_length > 0:
            raise ConfigError("grid.half_length must be positive, got %r" % self.half_length)
        if self.points < 16:
            raise ConfigError("grid.points must be at least 16, got %r" % self.points)


def symmetrized(mat, limit, name, *, hermitian=False, error=ValueError):
    """0.5 * (X + X^T), or 0.5 * (X + X^H), of a matrix checked to be
    symmetric (or Hermitian) within ``limit * max(1, max|X|)``.

    Over the limit it raises ``error``, naming the matrix, max|X - X^T| (or
    X^H), the limit and the scaled limit.
    """
    mat = np.asarray(mat, dtype=complex)
    partner = mat.conj().T if hermitian else mat.T
    if mat.size:
        residual = abs(mat - partner).max()
        scale = max(1.0, abs(mat).max())
        if residual > limit * scale:
            kind, op = ("Hermitian", "H") if hermitian else ("symmetric", "T")
            raise error(
                "%s is not %s: max|%s - %s^%s| = %.3e exceeds the limit "
                "%.0e * max(1, max|%s|) = %.3e"
                % (name, kind, name, name, op, residual, limit, name, limit * scale)
            )
    return 0.5 * (mat + partner)


@dataclass(frozen=True)
class CouplingBlocks:
    """Blocks of the effective quadratic Hamiltonian.

    ``eps_a`` and ``eps_ph`` are the atomic and photonic single-particle
    energies, ``chi_phph`` the cavity-mediated photon-photon coupling,
    ``chi_pha``/``chit_pha`` the co- and counter-rotating photon-atom
    couplings, and ``chit_aa`` the collisional atom-atom pairing.  The
    atom-photon partners are the Hermitian conjugates, exposed as
    properties.
    Construction checks shapes and symmetries (eps_ph diagonal, chit_pha
    real) once and stores the exact parts read-only in a frozen instance.
    """

    eps_a: np.ndarray
    eps_ph: np.ndarray
    chi_phph: np.ndarray
    chi_pha: np.ndarray
    chit_aa: np.ndarray
    chit_pha: np.ndarray

    @property
    def m_a(self):
        return self.eps_a.shape[0]

    @property
    def m_ph(self):
        return self.eps_ph.shape[0]

    @property
    def m(self):
        return self.m_a + self.m_ph

    @property
    def chi_aph(self):
        return self.chi_pha.conj().T

    @property
    def chit_aph(self):
        return self.chit_pha.conj().T

    def __post_init__(self):
        m_a, m_ph = self.m_a, self.m_ph
        shapes = {
            "eps_a": (self.eps_a, (m_a, m_a)),
            "eps_ph": (self.eps_ph, (m_ph, m_ph)),
            "chi_phph": (self.chi_phph, (m_ph, m_ph)),
            "chi_pha": (self.chi_pha, (m_ph, m_a)),
            "chit_aa": (self.chit_aa, (m_a, m_a)),
            "chit_pha": (self.chit_pha, (m_ph, m_a)),
        }
        for name, (mat, want) in shapes.items():
            if mat.shape != want:
                raise ConfigError(
                    "%s has shape %s, expected %s" % (name, mat.shape, want)
                )
        limit = _BLOCK_SYMMETRY_LIMIT
        exact = {
            name: symmetrized(
                getattr(self, name), limit, name, hermitian=name != "chit_aa", error=ConfigError
            )
            for name in ("eps_a", "eps_ph", "chi_phph", "chit_aa")
        }
        eps_ph = exact["eps_ph"]
        if eps_ph.size and np.max(np.abs(eps_ph - np.diag(np.diag(eps_ph)))) > 0:
            raise ConfigError("eps_ph must be diagonal (one energy per cavity mode)")
        if self.chit_pha.size:
            # The pair coupling is symmetric only if its photon-atom block is
            # real (conjugate-pair convention).
            imag = abs(self.chit_pha.imag).max()
            scale = max(1.0, abs(self.chit_pha).max())
            if imag > limit * scale:
                raise ConfigError(
                    "chit_pha must be real: max|Im chit_pha| = %.3e exceeds the "
                    "limit %.0e * max(1, max|chit_pha|) = %.3e"
                    % (imag, limit, limit * scale)
                )
        exact["chi_pha"] = np.array(self.chi_pha, dtype=complex)
        exact["chit_pha"] = self.chit_pha.real.astype(complex)
        for name, value in exact.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, data, m_a, m_ph):
        """Build blocks from a ``direct_blocks`` JSON object."""
        _refuse_unknown_keys(data, cls, "direct_blocks")

        def block(name, shape, hermitian=None):
            if name not in data:
                return np.zeros(shape, dtype=complex)
            mat = decode_matrix(data[name], "direct_blocks.%s" % name)
            if mat.shape != shape:
                # Tolerate [] for empty blocks of any degenerate shape.
                if mat.size == 0 and 0 in shape:
                    mat = np.zeros(shape, dtype=complex)
                else:
                    raise ConfigError(
                        "direct_blocks.%s has shape %s, expected %s"
                        % (name, mat.shape, shape)
                    )
            if hermitian is None:
                return mat
            return symmetrized(
                mat, _INPUT_SYMMETRY_LIMIT, "direct_blocks.%s" % name,
                hermitian=hermitian, error=ConfigError,
            )

        return cls(
            eps_a=block("eps_a", (m_a, m_a), True),
            eps_ph=block("eps_ph", (m_ph, m_ph), True),
            chi_phph=block("chi_phph", (m_ph, m_ph), True),
            chi_pha=block("chi_pha", (m_ph, m_a)),
            chit_aa=block("chit_aa", (m_a, m_a), False),
            chit_pha=block("chit_pha", (m_ph, m_a)),
        )


def _partition(m_a, m_ph):
    """(m_a, m_ph) checked to be nonnegative integers with m_a + m_ph at
    most MAX_MODES, before any block of that size exists."""
    m_a, m_ph = _number("m_a", m_a, integer=True), _number("m_ph", m_ph, integer=True)
    if m_a < 0 or m_ph < 0:
        raise ConfigError("m_a and m_ph must be nonnegative")
    if m_a + m_ph > MAX_MODES:
        raise ConfigError(
            "m_a + m_ph = %d modes exceeds the limit MAX_MODES = %d" % (m_a + m_ph, MAX_MODES)
        )
    return m_a, m_ph


def _vector(name, value, length):
    """A read-only float vector of ``length`` finite entries (zeros if None)."""
    if value is None:
        vec = np.zeros(length)
    elif not isinstance(value, (list, tuple, np.ndarray)):
        raise ConfigError("%s must be a list of numbers, got %r" % (name, value))
    elif len(value) != length:
        raise ConfigError("%s has length %d, expected m_ph = %d" % (name, len(value), length))
    else:
        vec = np.array([_number("%s[%d]" % (name, i), v) for i, v in enumerate(value)])
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True)
class SystemConfig:
    """Checked description of one cavity/condensate instance.

    In ``geometry_1d`` mode the trap, drive and cavity-mode profiles
    define the coupling blocks; in ``direct_blocks`` mode the blocks are
    given verbatim and the geometry fields are ignored.  Construction
    checks every field once (finite numbers, temperature and n_ex >= 0,
    delta_a nonzero of either sign, read-only vectors of length m_ph, the
    grid budget, blocks of the declared partition); the instance is frozen.
    """

    mode: str
    m_a: int
    m_ph: int
    temperature: float
    g_a_n0: float = 0.0
    delta_a: float = 1.0
    delta_nu: np.ndarray = None
    omega_nu: np.ndarray = None
    rabi_drive_amp: float = 0.0
    rabi_mode_amp: np.ndarray = None
    mu: float = 0.0
    n_ex: float = 0.0
    kappa_nu: float = 0.0
    omega_r: float = 0.0
    n_atoms: float = 0.0
    grid: GridSpec = GridSpec()
    direct_blocks: CouplingBlocks = None

    def __post_init__(self):
        if self.mode not in (MODE_GEOMETRY, MODE_DIRECT):
            raise ConfigError(
                "mode must be %r or %r, got %r" % (MODE_GEOMETRY, MODE_DIRECT, self.mode)
            )
        m_a, m_ph = _partition(self.m_a, self.m_ph)
        if m_a + m_ph < 1:
            raise ConfigError("at least one mode is required (m_a + m_ph >= 1)")
        # Field annotations are strings here (postponed evaluation).
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", "float"):
                value = _number(f.name, value, integer=f.type == "int")
            elif f.type == "np.ndarray":
                value = _vector(f.name, value, m_ph)
            object.__setattr__(self, f.name, value)
        for name in ("temperature", "n_ex"):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be nonnegative, got %r" % (name, getattr(self, name)))
        if self.delta_a == 0:
            raise ConfigError("delta_a must be nonzero")
        blocks = self.direct_blocks
        if self.mode == MODE_GEOMETRY:
            if blocks is not None:
                raise ConfigError("direct_blocks is only valid when mode = %r" % MODE_DIRECT)
            samples = self.grid.points * (m_a + m_ph + 2)
            if samples > MAX_GRID_SAMPLES:
                raise ConfigError(
                    "grid.points * (m_a + m_ph + 2) = %d grid samples exceeds the "
                    "limit MAX_GRID_SAMPLES = %d" % (samples, MAX_GRID_SAMPLES)
                )
        elif blocks is None:
            raise ConfigError("direct_blocks is required when mode = %r" % MODE_DIRECT)
        elif (blocks.m_a, blocks.m_ph) != (m_a, m_ph):
            raise ConfigError(
                "direct_blocks have m_a = %d, m_ph = %d, but the config declares "
                "m_a = %d, m_ph = %d" % (blocks.m_a, blocks.m_ph, m_a, m_ph)
            )

    @property
    def m(self):
        return self.m_a + self.m_ph


def decode_scalar(value, where):
    """Decode a JSON number or [re, im] pair into a finite complex scalar."""
    try:
        if isinstance(value, list) and len(value) == 2:
            return complex(_number(where, value[0]), _number(where, value[1]))
        return complex(_number(where, value))
    except ConfigError:
        raise ConfigError(
            "%s: expected a finite number or an [re, im] pair of them, got %r" % (where, value)
        ) from None


def decode_matrix(rows, where):
    """Decode a row-major nested list with number or [re, im] entries."""
    if not isinstance(rows, list):
        raise ConfigError("%s: expected a nested list of rows" % where)
    if not rows:
        return np.zeros((0, 0), dtype=complex)
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ConfigError("%s: row %d is not a list" % (where, i))
        decoded = [decode_scalar(v, "%s[%d][%d]" % (where, i, j)) for j, v in enumerate(row)]
        if width is None:
            width = len(decoded)
        elif len(decoded) != width:
            raise ConfigError("%s: ragged rows (row %d)" % (where, i))
        out.append(decoded)
    return np.asarray(out, dtype=complex)


def encode_matrix(mat):
    """Encode a matrix into the row-major [re, im] JSON form."""
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def config_from_dict(data):
    """Build a :class:`SystemConfig` from a parsed JSON object.  Only the
    document's shape is checked here; the constructors check every value."""
    if not isinstance(data, dict):
        raise ConfigError("config document must be a single JSON object")
    _refuse_unknown_keys(data, SystemConfig, "config")
    for required in ("mode", "m_a", "m_ph", "temperature"):
        if required not in data:
            raise ConfigError("missing required key %r" % required)
    for key in ("grid", "direct_blocks"):
        if key in data and not isinstance(data[key], dict):
            raise ConfigError("%s must be an object" % key)
    kwargs = dict(data)
    if "grid" in data:
        _refuse_unknown_keys(data["grid"], GridSpec, "grid")
        kwargs["grid"] = GridSpec(**data["grid"])
    if "direct_blocks" in data:
        kwargs["direct_blocks"] = CouplingBlocks.from_dict(
            data["direct_blocks"], *_partition(data["m_a"], data["m_ph"])
        )
    return SystemConfig(**kwargs)


def load_config(text):
    """Parse a JSON config document into a checked :class:`SystemConfig`.

    Args:
        text (str | bytes): the raw document

    Raises:
        ConfigError: on parse errors (with line/column) or schema and
            invariant violations (naming the offending field).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "config parse error at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        ) from exc
    return config_from_dict(data)


@dataclass
class ModeBasis:
    """Grid-sampled mode functions of the 1-D toy geometry and their
    overlap integrals.

    ``phi0`` is the condensate orbital (trap ground state) and ``phi_l``
    the first ``m_a`` excited trap eigenfunctions; ``weights`` are
    trapezoid quadrature weights on ``x``.  With e the drive envelope and
    c_nu the cavity standing waves, the overlaps are ``gram`` = int phi_l
    phi_m, ``density`` = int phi_l phi_m phi0^2 and ``drive`` = int phi_l
    phi_m e^2 (m_a x m_a), ``waves`` = int c_nu c_mu phi0^2 (m_ph x m_ph)
    and ``cross`` = int c_nu e phi0 phi_l (m_ph x m_a).  ``gram``,
    ``density``, ``drive`` and ``waves`` are exactly symmetric.  Every
    array is read-only and shared by every basis on the same grid, the
    overlaps by those with the same m_a and m_ph too.
    """

    x: np.ndarray
    weights: np.ndarray
    phi0: np.ndarray
    phi_l: np.ndarray
    gram: np.ndarray
    density: np.ndarray
    drive: np.ndarray
    waves: np.ndarray
    cross: np.ndarray
    _residual: float = field(repr=False)

    def integrate(self, values):
        return np.dot(self.weights, values)

    def orthonormality_residual(self):
        """max|Gram - 1| of phi0 and phi_l under the quadrature weights."""
        return self._residual


def _hermite_functions(x, count):
    """First ``count`` normalized harmonic-oscillator eigenfunctions."""
    funcs = np.empty((count, x.size))
    h0 = np.pi**-0.25 * np.exp(-0.5 * x * x)
    funcs[0] = h0
    if count > 1:
        funcs[1] = np.sqrt(2.0) * x * h0
    for n in range(2, count):
        funcs[n] = np.sqrt(2.0 / n) * x * funcs[n - 1] - np.sqrt((n - 1) / n) * funcs[n - 2]
    return funcs


def _read_only(arr):
    """A read-only view of ``arr``.  A view cannot be made writeable again
    while the array owning its data is read-only, so a view (linspace
    returns one) is copied first to an owner that nothing else holds."""
    if arr.base is not None:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr.view()


def _gram(rows, root):
    """The read-only integrals int rows[i] rows[j] root^2, as S @ S.T with
    S = rows * root: numpy computes one triangle of that product (BLAS syrk)
    and mirrors it, so the result is exactly symmetric."""
    scaled = rows * root
    return _read_only(scaled @ scaled.T)


class _Grid:
    """The read-only arrays of one GridSpec that no other config field
    changes: the grid and its weights; the normalized trap functions, grown
    to the largest count asked for so far; the orthonormality residual per
    count; and the overlap integrals per (m_a, m_ph).  Each trap row and
    norm depends only on earlier rows, and each residual and overlap is
    integrated from exactly the functions asked for, never sliced from a
    larger one, so no value depends on the order of calls.
    """

    def __init__(self, spec):
        self.half_length = spec.half_length
        x = np.linspace(-spec.half_length, spec.half_length, spec.points)
        weights = np.full(spec.points, x[1] - x[0])
        weights[0] *= 0.5
        weights[-1] *= 0.5
        self.x, self.weights = _read_only(x), _read_only(weights)
        self._trap = _read_only(np.empty((0, spec.points)))
        self._residuals = {}
        self._overlaps = {}

    def trap(self, count):
        """The first ``count`` trap eigenfunctions, normalized on the grid."""
        # Sliced from a local reference, so that a concurrent call that
        # stores fewer rows cannot shorten the result.
        trap = self._trap
        if count > len(trap):
            funcs = _hermite_functions(self.x, count)
            norms = np.sqrt((funcs * funcs * self.weights).sum(axis=1))
            if np.any(norms <= 0) or not np.all(np.isfinite(norms)):
                raise GridResolutionError("grid cannot normalize the trap eigenfunctions")
            trap = self._trap = _read_only(funcs / norms[:, None])
        return trap[:count]

    def residual(self, count):
        """Orthonormality residual of the first ``count`` trap functions."""
        if count not in self._residuals:
            funcs = self.trap(count)
            gram = (funcs * self.weights) @ funcs.T
            self._residuals[count] = float(np.max(np.abs(gram - np.eye(count))))
        return self._residuals[count]

    def overlaps(self, m_a, m_ph):
        """The overlap integrals of :class:`ModeBasis` for m_a excited trap
        states and m_ph standing waves, keyed by their names."""
        if (m_a, m_ph) not in self._overlaps:
            x, w = self.x, self.weights
            trap = self.trap(m_a + 1)
            phi0, phi = trap[0], trap[1:]
            envelope = np.exp(-0.5 * x * x)
            # Cavity mode nu = i + 1 carries cos((nu + 1) pi x / L), so the
            # first is cos(2 pi x / L).
            waves = np.cos(np.arange(2, m_ph + 2)[:, None] * np.pi * x / self.half_length)
            root_w = np.sqrt(w)
            # sqrt(w phi0^2): the trap ground state is positive.
            root_density = root_w * phi0
            self._overlaps[m_a, m_ph] = {
                "gram": _gram(phi, root_w),
                "density": _gram(phi, root_density),
                "drive": _gram(phi, root_w * envelope),
                "waves": _gram(waves, root_density),
                "cross": _read_only((waves * (w * envelope * phi0)) @ phi.T),
            }
        return self._overlaps[m_a, m_ph]


# One geometry is usually swept over many parameter points, so only the
# last grid is kept: a second one would double the resident arrays.
_grid = functools.lru_cache(maxsize=1)(_Grid)


def build_mode_basis(cfg):
    """The trap eigenfunctions and overlap integrals of the config's grid
    and mode counts, from the process's cached grid.

    Args:
        cfg (SystemConfig): a ``geometry_1d`` configuration

    Returns:
        ModeBasis

    Raises:
        GridResolutionError: when the grid is too coarse for the requested
            modes (quadrature orthonormality residual above 1e-6).
    """
    if cfg.mode != MODE_GEOMETRY:
        raise ConfigError("build_mode_basis requires mode = %r" % MODE_GEOMETRY)
    grid = _grid(cfg.grid)
    count = cfg.m_a + 1
    funcs = grid.trap(count)
    residual = grid.residual(count)
    if residual > 1e-6:
        raise GridResolutionError(
            "mode basis orthonormality residual %.3e exceeds 1e-6; "
            "increase grid.points or reduce grid.half_length" % residual
        )
    return ModeBasis(
        x=grid.x,
        weights=grid.weights,
        phi0=funcs[0],
        phi_l=funcs[1:],
        _residual=residual,
        **grid.overlaps(cfg.m_a, cfg.m_ph),
    )


def compute_coupling_blocks(basis, cfg):
    """Scale the basis's overlap integrals into coupling blocks.

    Each block is linear in the config's coupling constants: the drive and
    cavity Rabi amplitudes (A0, amp), 1/delta_a, g_a_n0, mu and n_ex.  The
    atomic single-particle operator is the trap Hamiltonian plus the
    drive-induced optical potential, minus the chemical potential, plus
    the Popov mean-field shift.  The basis functions are the trap's own
    eigenfunctions, so the trap part is exactly diag(l + 1/2).  Every
    sampled function is real, so the co- and counter-rotating photon-atom
    couplings are one integral.  Scaled from exactly symmetric overlaps,
    eps_a, chi_phph and chit_aa are exactly symmetric.
    """
    g, a0, inv_da, amp = cfg.g_a_n0, cfg.rabi_drive_amp, 1.0 / cfg.delta_a, cfg.rabi_mode_amp
    chi_pha = a0 * inv_da * amp[:, None] * basis.cross
    eps_a = (
        np.diag(np.arange(1, cfg.m_a + 1) + 0.5)
        + a0**2 * inv_da * basis.drive
        + (2.0 * g * cfg.n_ex - cfg.mu) * basis.gram
        + 2.0 * g * basis.density
    )
    return CouplingBlocks(
        eps_a=eps_a,
        eps_ph=np.diag(cfg.omega_nu).astype(complex),
        chi_phph=inv_da * np.outer(amp, amp) * basis.waves,
        chi_pha=chi_pha,
        chit_aa=g * basis.density,
        chit_pha=chi_pha,
    )


def coupling_blocks(cfg):
    """Coupling blocks for either config mode, plus the basis if any."""
    if cfg.mode == MODE_DIRECT:
        return cfg.direct_blocks, None
    basis = build_mode_basis(cfg)
    return compute_coupling_blocks(basis, cfg), basis


def estimate_scattering_time(cfg):
    """Order-of-magnitude time before a spontaneous scattering event.

    Scales as ``n_atoms * kappa_nu^3 * delta_a^2 / (delta_nu[0] *
    rabi_drive_amp^2 * rabi_mode_amp[0]^2 * omega_r)``, evaluated with the
    first cavity mode's parameters.

    Raises:
        ConfigError: if there is no cavity mode or a denominator
            parameter is zero (named in the message).
    """
    if cfg.m_ph < 1:
        raise ConfigError("estimate_scattering_time requires at least one cavity mode")
    denominators = {
        "delta_nu[0]": cfg.delta_nu[0],
        "rabi_drive_amp": cfg.rabi_drive_amp,
        "rabi_mode_amp[0]": cfg.rabi_mode_amp[0],
        "omega_r": cfg.omega_r,
    }
    for name, value in denominators.items():
        if value == 0:
            raise ConfigError(
                "estimate_scattering_time: division by zero, %s is zero" % name
            )
    return float(
        cfg.n_atoms
        * cfg.kappa_nu**3
        * cfg.delta_a**2
        / (
            cfg.delta_nu[0]
            * cfg.rabi_drive_amp**2
            * cfg.rabi_mode_amp[0] ** 2
            * cfg.omega_r
        )
    )
