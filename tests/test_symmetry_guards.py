"""Every matrix symmetry guard, through ``model.symmetrized``.

Each site is fed a matrix X whose max|X - X^T| (max|X - X^H| for a
Hermitian site) is half its limit or one and a half times it, with
max|X| = 1 so the scaled limit is the limit itself.  Over the limit the
site raises its own exception type with the full message; under it, the
site hands on exactly 0.5 * (X + X^T) (or X^H).
"""

import re

import numpy as np
import pytest

from hybrid_sampler import blochmessiah, gaussian, hafnian, model
from hybrid_sampler.bdg import BogoliubovDecomposition


class _Captured(Exception):
    """Stops a site once the matrix it hands on has been recorded."""


def _matrix(delta, hermitian):
    """A 2 x 2 matrix with max|X| = 1 and an off-diagonal residual delta."""
    off = 0.5 + 0.25j
    return np.array([[1.0, off + delta], [np.conj(off) if hermitian else off, 0.75]])


def _capture(monkeypatch, module, name, seen):
    def record(mat, *args):
        seen.append(mat)
        raise _Captured

    monkeypatch.setattr(module, name, record)


def _config_block(key):
    def build(x, monkeypatch):
        data = {key: model.encode_matrix(x)}
        return lambda: getattr(model.CouplingBlocks.from_dict(data, 2, 0), key)

    return build


def _constructed_block(key):
    """The block as a CouplingBlocks built from it stores it."""

    def build(x, monkeypatch):
        m_a, m_ph = (0, 2) if key == "chi_phph" else (2, 0)
        fields = dict(
            eps_a=np.zeros((m_a, m_a)),
            eps_ph=np.zeros((m_ph, m_ph)),
            chi_phph=np.zeros((m_ph, m_ph)),
            chi_pha=np.zeros((m_ph, m_a)),
            chit_aa=np.zeros((m_a, m_a)),
            chit_pha=np.zeros((m_ph, m_a)),
        )
        fields[key] = x
        return lambda: getattr(model.CouplingBlocks(**fields), key)

    return build


def _squeeze_kernel(x, monkeypatch):
    """A = 1 and B = -X give the squeeze kernel Y = X."""
    dec = BogoliubovDecomposition(
        energies=np.ones(2), a=np.eye(2, dtype=complex), b=-x, m_a=2, m_ph=0
    )
    seen = []
    _capture(monkeypatch, blochmessiah, "takagi", seen)

    def run():
        with pytest.raises(_Captured):
            blochmessiah.bloch_messiah(dec)
        return seen[0]

    return run


# Every site that checks a matrix symmetry: (id, build, exception type,
# matrix name, limit, hermitian, how the output is compared).  ``build``
# takes X and returns a call that runs the site and returns what it hands
# on; ``view`` maps 0.5 * (X + X^T) to the output expected from it.  The
# validate-* sites are the block checks a CouplingBlocks runs when it is
# built.
SITES = [
    ("config-hermitian", _config_block("eps_a"), model.ConfigError,
     "direct_blocks.eps_a", 1e-6, True, None),
    ("config-symmetric", _config_block("chit_aa"), model.ConfigError,
     "direct_blocks.chit_aa", 1e-6, False, None),
    ("validate-eps_a", _constructed_block("eps_a"), model.ConfigError,
     "eps_a", 1e-12, True, None),
    ("validate-chi_phph", _constructed_block("chi_phph"), model.ConfigError,
     "chi_phph", 1e-12, True, None),
    ("validate-chit_aa", _constructed_block("chit_aa"), model.ConfigError,
     "chit_aa", 1e-12, False, None),
    ("takagi", lambda x, mp: lambda: blochmessiah.takagi(x), ValueError,
     "N", 1e-10, False, blochmessiah.takagi),
    ("squeeze-kernel", _squeeze_kernel, blochmessiah.ReconstructionError,
     "Y", 2e-9, False, None),
    ("base-matrix", None, ValueError, "C", 1e-8, False, None),
    ("haf", lambda x, mp: lambda: hafnian.hafnian_naive(x), ValueError,
     "A", 1e-8, False, hafnian.hafnian_naive),
]


def _base_matrix_site(delta):
    """G = diag(d, 0) gives C = [[0, 0], [d / (1 + d), 0]], with max|C| < 1.

    The C the guard sees is computed here as ``base_matrix`` does."""
    g = np.diag([delta, 0.0]).astype(complex)
    n = np.linalg.solve((np.eye(2) + g).T, g.T).T
    x = np.concatenate([n[1:], n[:1]], axis=0)
    return x, lambda: gaussian.base_matrix(g)[0]


def _site(build, hermitian, delta, monkeypatch):
    if build is None:
        return _base_matrix_site(delta)
    x = _matrix(delta, hermitian)
    return x, build(x, monkeypatch)


def _message(x, name, limit, hermitian):
    partner = x.conj().T if hermitian else x.T
    residual = float(np.max(np.abs(x - partner)))
    scale = max(1.0, float(np.max(np.abs(x))))
    kind, op = ("Hermitian", "H") if hermitian else ("symmetric", "T")
    return (
        "%s is not %s: max|%s - %s^%s| = %.3e exceeds the limit "
        "%.0e * max(1, max|%s|) = %.3e"
        % (name, kind, name, name, op, residual, limit, name, limit * scale)
    )


@pytest.mark.parametrize(
    "build, error, name, limit, hermitian, view",
    [pytest.param(*site[1:], id=site[0]) for site in SITES],
)
class TestSymmetryGuard:
    def test_over_the_limit_is_refused(
        self, monkeypatch, build, error, name, limit, hermitian, view
    ):
        x, run = _site(build, hermitian, 1.5 * limit, monkeypatch)
        want = _message(x, name, limit, hermitian)
        assert "= %.3e exceeds the limit %.0e" % (1.5 * limit, limit) in want
        with pytest.raises(error, match="^%s$" % re.escape(want)) as caught:
            run()
        assert type(caught.value) is error

    def test_under_the_limit_is_symmetrized(
        self, monkeypatch, build, error, name, limit, hermitian, view
    ):
        x, run = _site(build, hermitian, 0.5 * limit, monkeypatch)
        sym = 0.5 * (x + (x.conj().T if hermitian else x.T))
        assert np.max(np.abs(x - sym)) > 0
        got = run()
        want = view(sym) if view else sym
        if not isinstance(want, tuple):
            got, want = (got,), (want,)
        assert len(got) == len(want)
        for got_part, want_part in zip(got, want):
            np.testing.assert_array_equal(got_part, want_part)
