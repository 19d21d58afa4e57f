"""Config parsing, the 1-D mode basis and coupling-block integrals."""

import dataclasses
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from hybrid_sampler import model

from conftest import thermal_blocks

np.random.seed(7)


def geometry_dict(**over):
    base = {
        "mode": "geometry_1d",
        "m_a": 2,
        "m_ph": 1,
        "temperature": 0.0,
        "g_a_n0": 0.05,
        "delta_a": 40.0,
        "mu": 0.0,
        "delta_nu": [8.0],
        "omega_nu": [1.3],
        "rabi_mode_amp": [0.9],
        "rabi_drive_amp": 1.1,
        "kappa_nu": 0.05,
        "omega_r": 0.5,
        "n_atoms": 1e5,
    }
    base.update(over)
    return base


def geometry_config(**over):
    return model.config_from_dict(geometry_dict(**over))


class TestConfigSchema:
    """Validation and error reporting of config documents."""

    def test_minimal_document(self):
        cfg = model.config_from_dict(
            {"mode": "geometry_1d", "m_a": 1, "m_ph": 1, "temperature": 0.0}
        )
        assert cfg.m == 2
        assert cfg.temperature == 0.0
        assert cfg.direct_blocks is None

    def test_unknown_key(self):
        with pytest.raises(model.ConfigError, match="unknown key.*frobnicate"):
            model.config_from_dict(geometry_dict(frobnicate=1))

    def test_missing_required_key(self):
        doc = geometry_dict()
        del doc["temperature"]
        with pytest.raises(model.ConfigError, match="missing required key 'temperature'"):
            model.config_from_dict(doc)

    def test_no_modes(self):
        with pytest.raises(model.ConfigError, match="at least one mode"):
            model.config_from_dict(
                {"mode": "geometry_1d", "m_a": 0, "m_ph": 0, "temperature": 0.0}
            )

    def test_negative_temperature(self):
        with pytest.raises(model.ConfigError, match="temperature"):
            geometry_config(temperature=-0.1)

    def test_zero_detuning(self):
        with pytest.raises(model.ConfigError, match="delta_a"):
            geometry_config(delta_a=0.0)

    def test_bad_mode_string(self):
        with pytest.raises(model.ConfigError, match="mode must be"):
            geometry_config(mode="cavity")

    def test_bool_is_not_a_number(self):
        with pytest.raises(model.ConfigError, match="temperature must be a number"):
            geometry_config(temperature=True)

    def test_vector_length_mismatch(self):
        with pytest.raises(model.ConfigError, match="delta_nu has length 2"):
            geometry_config(delta_nu=[1.0, 2.0])

    def test_non_integer_mode_count(self):
        with pytest.raises(model.ConfigError, match="m_a must be an integer"):
            geometry_config(m_a=1.5)

    def test_grid_unknown_key(self):
        with pytest.raises(model.ConfigError, match="unknown key.*grid"):
            geometry_config(grid={"spacing": 0.1})

    def test_grid_too_few_points(self):
        with pytest.raises(model.ConfigError, match="grid.points"):
            geometry_config(grid={"points": 4})

    def test_direct_blocks_forbidden_in_geometry_mode(self):
        with pytest.raises(model.ConfigError, match="only valid"):
            geometry_config(direct_blocks={"eps_a": [[1.0, 0.0], [0.0, 1.0]]})

    def test_direct_blocks_required_in_direct_mode(self):
        with pytest.raises(model.ConfigError, match="direct_blocks is required"):
            model.config_from_dict(
                {"mode": "direct_blocks", "m_a": 1, "m_ph": 0, "temperature": 0.0}
            )

    def test_parse_error_reports_position(self):
        with pytest.raises(model.ConfigError, match="line 2 column"):
            model.load_config('{\n "mode": }')

    def test_load_config_round_trip(self):
        cfg = model.load_config(json.dumps(geometry_dict()))
        assert cfg.m_a == 2
        assert cfg.grid.points == 16384


class TestNumbers:
    """One check reads every number of a config or matrix document."""

    @pytest.mark.parametrize(
        "over, name",
        [
            ({"temperature": math.nan}, "temperature"),
            ({"temperature": math.inf}, "temperature"),
            ({"mu": -math.inf}, "mu"),
            ({"delta_nu": [math.nan]}, r"delta_nu\[0\]"),
            ({"grid": {"half_length": math.inf}}, "grid.half_length"),
            ({"m_ph": 10**400}, "m_ph"),
        ],
    )
    def test_non_finite_refused(self, over, name):
        with pytest.raises(model.ConfigError, match="^%s must be finite, got " % name):
            geometry_config(**over)

    @pytest.mark.parametrize(
        "grid, want",
        [
            ({"points": "abc"}, "grid.points must be a number, got 'abc'"),
            ({"points": 20.7}, "grid.points must be an integer, got 20.7"),
            ({"points": True}, "grid.points must be a number, got True"),
            ({"half_length": "x"}, "grid.half_length must be a number, got 'x'"),
            ({"half_length": -1}, "grid.half_length must be positive, got -1.0"),
        ],
    )
    def test_grid_numbers(self, grid, want):
        with pytest.raises(model.ConfigError, match="^%s$" % re.escape(want)):
            geometry_config(grid=grid)

    def test_integral_numbers_become_ints(self):
        cfg = geometry_config(m_a=2.0, temperature=0, grid={"points": 64.0})
        assert type(cfg.m_a) is int and type(cfg.grid.points) is int
        assert type(cfg.temperature) is float

    def test_vector_entries_are_numbers(self):
        with pytest.raises(model.ConfigError, match=r"^rabi_mode_amp\[0\] must be a number"):
            geometry_config(rabi_mode_amp=["0.9"])
        with pytest.raises(model.ConfigError, match="^omega_nu must be a list of numbers"):
            geometry_config(omega_nu=1.3)

    def test_negative_direct_mode_count(self):
        """Refused before zero blocks of that size are made."""
        with pytest.raises(model.ConfigError, match="^m_a and m_ph must be nonnegative$"):
            model.config_from_dict(
                {
                    "mode": "direct_blocks",
                    "m_a": -1,
                    "m_ph": 1,
                    "temperature": 0.0,
                    "direct_blocks": {"eps_ph": [[1.0]]},
                }
            )

    @pytest.mark.parametrize("entry", [math.nan, -math.inf, [1.0, math.nan], True, "1"])
    def test_matrix_entries_are_finite_numbers(self, entry):
        want = "x: expected a finite number or an [re, im] pair of them, got "
        with pytest.raises(model.ConfigError, match="^%s" % re.escape(want)):
            model.decode_scalar(entry, "x")


class TestConfigContract:
    """A SystemConfig and its GridSpec check themselves when built."""

    def test_fields_are_frozen(self):
        cfg = geometry_config()
        for obj in (cfg, cfg.grid):
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))

    def test_vectors_are_read_only_copies(self):
        given = np.array([8.0])
        cfg = geometry_config(delta_nu=given)
        given[0] = 9.0
        assert cfg.delta_nu[0] == 8.0
        for name in ("delta_nu", "omega_nu", "rabi_mode_amp"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cfg, name)[0] = 2.0

    def test_omitted_vectors_are_zeros(self):
        cfg = model.SystemConfig(mode=model.MODE_GEOMETRY, m_a=1, m_ph=2, temperature=0.0)
        for name in ("delta_nu", "omega_nu", "rabi_mode_amp"):
            vec = getattr(cfg, name)
            assert vec.dtype == float and vec.tolist() == [0.0, 0.0]
            assert not vec.flags.writeable

    def test_hand_built_config_is_checked(self):
        with pytest.raises(model.ConfigError, match="^temperature must be nonnegative"):
            model.SystemConfig(mode=model.MODE_GEOMETRY, m_a=1, m_ph=0, temperature=-1.0)

    def test_partition_mismatch_refused(self):
        want = (
            "direct_blocks have m_a = 1, m_ph = 0, but the config declares "
            "m_a = 2, m_ph = 0"
        )
        with pytest.raises(model.ConfigError, match="^%s$" % re.escape(want)):
            model.SystemConfig(
                mode=model.MODE_DIRECT,
                m_a=2,
                m_ph=0,
                temperature=0.0,
                direct_blocks=thermal_blocks(),
            )

    def test_there_is_no_validate(self):
        assert not hasattr(model.SystemConfig, "validate")
        assert not hasattr(model.GridSpec, "validate")


class TestGridBudget:
    """grid.points * (m_a + m_ph + 2) is checked before any grid exists."""

    def test_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(model.ConfigError) as info:
                model.config_from_dict(geometry_dict(grid={"points": 10**9}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert str(info.value) == (
            "grid.points * (m_a + m_ph + 2) = 5000000000 grid samples exceeds "
            "the limit MAX_GRID_SAMPLES = 16777216"
        )

    def test_limit_is_inclusive(self):
        """Only the configs are built: no grid of this size is sampled."""
        points = model.MAX_GRID_SAMPLES // (2 + 1 + 2)
        assert geometry_config(grid={"points": points}).grid.points == points
        with pytest.raises(model.ConfigError, match="MAX_GRID_SAMPLES"):
            geometry_config(grid={"points": points + 1})

    def test_direct_mode_ignores_the_grid(self):
        cfg = model.SystemConfig(
            mode=model.MODE_DIRECT,
            m_a=1,
            m_ph=0,
            temperature=0.0,
            grid=model.GridSpec(points=10**9),
            direct_blocks=thermal_blocks(),
        )
        assert cfg.grid.points == 10**9


class TestModeBudget:
    """m_a + m_ph is checked before any block of that size exists."""

    def test_refused_before_allocation(self):
        doc = {"mode": "direct_blocks", "m_a": 20000, "m_ph": 0, "temperature": 0.0,
               "direct_blocks": {}}
        tracemalloc.start()
        try:
            with pytest.raises(model.ConfigError) as info:
                model.config_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert str(info.value) == "m_a + m_ph = 20000 modes exceeds the limit MAX_MODES = 256"

    def test_limit_is_inclusive(self):
        """Only the configs are built: no grid or block of this size."""
        m_a = model.MAX_MODES - 1
        assert geometry_config(m_a=m_a).m == model.MAX_MODES
        with pytest.raises(model.ConfigError, match="MAX_MODES"):
            geometry_config(m_a=m_a + 1)

    def test_constructor_refuses_too(self):
        with pytest.raises(model.ConfigError, match="MAX_MODES"):
            model.SystemConfig(mode=model.MODE_GEOMETRY, m_a=0, m_ph=257, temperature=0.0)


class TestDirectBlocks:
    def test_missing_blocks_are_zero_filled(self):
        cfg = model.config_from_dict(
            {
                "mode": "direct_blocks",
                "m_a": 1,
                "m_ph": 1,
                "temperature": 0.0,
                "direct_blocks": {"eps_a": [[1.0]], "eps_ph": [[2.0]]},
            }
        )
        blocks = cfg.direct_blocks
        assert blocks.chit_aa.shape == (1, 1)
        assert np.all(blocks.chit_aa == 0)
        assert np.all(blocks.chi_pha == 0)

    def test_complex_entries_decode(self):
        cfg = model.config_from_dict(
            {
                "mode": "direct_blocks",
                "m_a": 1,
                "m_ph": 1,
                "temperature": 0.0,
                "direct_blocks": {
                    "eps_a": [[1.0]],
                    "eps_ph": [[1.0]],
                    "chi_pha": [[[0.3, 0.4]]],
                },
            }
        )
        assert cfg.direct_blocks.chi_pha[0, 0] == pytest.approx(0.3 + 0.4j)

    def test_shape_mismatch(self):
        with pytest.raises(model.ConfigError, match="direct_blocks.eps_a has shape"):
            model.config_from_dict(
                {
                    "mode": "direct_blocks",
                    "m_a": 2,
                    "m_ph": 0,
                    "temperature": 0.0,
                    "direct_blocks": {"eps_a": [[1.0]]},
                }
            )

    def test_non_hermitian_eps(self):
        want = (
            "direct_blocks.eps_a is not Hermitian: max|direct_blocks.eps_a - "
            "direct_blocks.eps_a^H| = 4.000e-01 exceeds the limit 1e-06 * "
            "max(1, max|direct_blocks.eps_a|) = 1.000e-06"
        )
        with pytest.raises(model.ConfigError, match=re.escape(want)):
            model.config_from_dict(
                {
                    "mode": "direct_blocks",
                    "m_a": 2,
                    "m_ph": 0,
                    "temperature": 0.0,
                    "direct_blocks": {"eps_a": [[1.0, 0.5], [0.1, 1.0]]},
                }
            )

    def test_asymmetric_pair_block(self):
        want = (
            "direct_blocks.chit_aa is not symmetric: max|direct_blocks.chit_aa - "
            "direct_blocks.chit_aa^T| = 1.000e+00 exceeds the limit 1e-06 * "
            "max(1, max|direct_blocks.chit_aa|) = 1.000e-06"
        )
        with pytest.raises(model.ConfigError, match=re.escape(want)):
            model.config_from_dict(
                {
                    "mode": "direct_blocks",
                    "m_a": 2,
                    "m_ph": 0,
                    "temperature": 0.0,
                    "direct_blocks": {
                        "eps_a": [[1.0, 0.0], [0.0, 1.0]],
                        "chit_aa": [[0.0, 0.5], [-0.5, 0.0]],
                    },
                }
            )

    def test_off_diagonal_cavity_energies_rejected(self):
        with pytest.raises(model.ConfigError, match="eps_ph must be diagonal"):
            model.config_from_dict(
                {
                    "mode": "direct_blocks",
                    "m_a": 0,
                    "m_ph": 2,
                    "temperature": 0.0,
                    "direct_blocks": {"eps_ph": [[1.0, 0.2], [0.2, 1.0]]},
                }
            )


class TestCouplingBlocks:
    """A CouplingBlocks checks its blocks once, when it is built."""

    @staticmethod
    def blocks(**given):
        fields = dict(
            eps_a=np.array([[1.0]], dtype=complex),
            eps_ph=np.array([[1.5]], dtype=complex),
            chi_phph=np.zeros((1, 1), dtype=complex),
            chi_pha=np.zeros((1, 1), dtype=complex),
            chit_aa=np.zeros((1, 1), dtype=complex),
            chit_pha=np.zeros((1, 1), dtype=complex),
        )
        fields.update(given)
        return model.CouplingBlocks(**fields)

    def test_real_pair_coupling_is_stored_exactly_real(self):
        """An imaginary part within the limit is dropped, not carried on."""
        blocks = self.blocks(chit_pha=np.array([[0.4 + 1e-13j]]))
        assert blocks.chit_pha.dtype == complex
        assert blocks.chit_pha[0, 0].real == 0.4
        assert blocks.chit_pha[0, 0].imag == 0.0
        assert math.copysign(1.0, blocks.chit_pha[0, 0].imag) == 1.0

    def test_complex_cavity_energy_refused(self):
        """A diagonal eps_ph must also be real: it is checked Hermitian."""
        want = (
            "eps_ph is not Hermitian: max|eps_ph - eps_ph^H| = 2.000e-03 exceeds "
            "the limit 1e-12 * max(1, max|eps_ph|) = 1.000e-12"
        )
        with pytest.raises(model.ConfigError, match="^%s$" % re.escape(want)):
            self.blocks(eps_ph=np.array([[1 + 1e-3j]]))

    def test_fields_are_frozen(self):
        blocks = self.blocks()
        for name in ("eps_a", "eps_ph", "chi_phph", "chi_pha", "chit_aa", "chit_pha"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(blocks, name, np.zeros((1, 1), dtype=complex))

    def test_checked_blocks_are_read_only(self):
        """The blocks construction checked cannot be edited in place."""
        blocks = self.blocks()
        for name in ("eps_a", "eps_ph", "chi_phph", "chit_aa", "chit_pha"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(blocks, name)[0, 0] = 2.0

    def test_co_rotating_coupling_is_a_read_only_copy(self):
        given = np.array([[0.3 + 0.1j]])
        blocks = self.blocks(chi_pha=given)
        with pytest.raises(ValueError, match="read-only"):
            blocks.chi_pha[0, 0] = 2.0
        given[0, 0] = 2.0
        assert blocks.chi_pha[0, 0] == 0.3 + 0.1j


class TestMatrixCoding:
    def test_scalar_forms(self):
        assert model.decode_scalar(2, "x") == 2.0 + 0.0j
        assert model.decode_scalar([1.0, -0.5], "x") == 1.0 - 0.5j

    def test_scalar_rejects_bool(self):
        with pytest.raises(model.ConfigError, match="x:"):
            model.decode_scalar(True, "x")

    def test_ragged_rows(self):
        with pytest.raises(model.ConfigError, match="ragged"):
            model.decode_matrix([[1.0, 2.0], [3.0]], "m")

    def test_round_trip(self):
        mat = np.array([[1.0 + 2.0j, -0.5], [0.25j, 0.0]])
        back = model.decode_matrix(model.encode_matrix(mat), "m")
        np.testing.assert_array_equal(back, mat)

    def test_empty_matrix(self):
        assert model.decode_matrix([], "m").shape == (0, 0)


class TestModeBasis:
    """Trap eigenfunctions sampled on the quadrature grid."""

    def test_orthonormality(self):
        basis = model.build_mode_basis(geometry_config(m_a=3))
        assert basis.orthonormality_residual() < 1e-8

    def test_parity(self):
        """Even and odd trap states are orthogonal by symmetry."""
        basis = model.build_mode_basis(geometry_config())
        overlap = basis.integrate(basis.phi0 * basis.phi_l[0])
        assert abs(overlap) < 1e-10

    def test_weights_cover_the_box(self):
        basis = model.build_mode_basis(geometry_config())
        assert basis.weights.sum() == pytest.approx(2 * 8.0)

    def test_coarse_grid_rejected(self):
        cfg = geometry_config(grid={"points": 16, "half_length": 20.0})
        with pytest.raises(model.GridResolutionError, match="orthonormality residual"):
            model.build_mode_basis(cfg)

    def test_wrong_mode_rejected(self):
        cfg = model.config_from_dict(
            {
                "mode": "direct_blocks",
                "m_a": 1,
                "m_ph": 0,
                "temperature": 0.0,
                "direct_blocks": {"eps_a": [[1.0]]},
            }
        )
        with pytest.raises(model.ConfigError, match="geometry_1d"):
            model.build_mode_basis(cfg)


BLOCK_NAMES = ("eps_a", "eps_ph", "chi_phph", "chi_pha", "chit_aa", "chit_pha")
BASIS_NAMES = ("x", "weights", "phi0", "phi_l", "gram", "density", "drive", "waves", "cross")
SHAPES = [(m_a, m_ph) for m_a in (1, 2, 3, 4) for m_ph in (1, 2)]
ORDERS = {
    "growing": SHAPES,
    "shrinking": SHAPES[::-1],
    "interleaved": [SHAPES[i] for i in (7, 0, 5, 2, 1, 6, 3, 4)],
}


def shaped_config(m_a, m_ph, **over):
    cavity = {
        "delta_nu": [8.0 + i for i in range(m_ph)],
        "omega_nu": [1.3 + 0.1 * i for i in range(m_ph)],
        "rabi_mode_amp": [0.9 - 0.2 * i for i in range(m_ph)],
    }
    return geometry_config(m_a=m_a, m_ph=m_ph, **{**cavity, **over})


def snapshot(cfg):
    """Shape and bytes of every block and basis array, and the residual."""
    blocks, basis = model.coupling_blocks(cfg)
    arrays = [getattr(blocks, n) for n in BLOCK_NAMES] + [getattr(basis, n) for n in BASIS_NAMES]
    return [(a.shape, a.tobytes()) for a in arrays] + [repr(basis.orthonormality_residual())]


def fresh_snapshot(cfg):
    model._grid.cache_clear()
    return snapshot(cfg)


class TestGridCache:
    """One grid's mode functions are computed once per process and reused."""

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_cached_equals_fresh(self, order):
        want = {shape: fresh_snapshot(shaped_config(*shape)) for shape in SHAPES}
        model._grid.cache_clear()
        for shape in ORDERS[order]:
            assert snapshot(shaped_config(*shape)) == want[shape], shape

    def test_grid_arrays_are_read_only(self):
        """The grid's arrays and overlaps are shared by every basis on it."""
        basis = model.build_mode_basis(shaped_config(2, 2))
        for name in BASIS_NAMES:
            with pytest.raises(ValueError, match="read-only"):
                getattr(basis, name)[0] = 0.0
            with pytest.raises(ValueError, match="WRITEABLE"):
                getattr(basis, name).flags.writeable = True

    def test_profiles_are_fresh_per_config(self):
        """The amplitude-scaled parts are made per config: another config on
        the same grid and shape, with other amplitudes, gets other blocks and
        leaves the shared basis and the first config's blocks as they were."""
        cfg = shaped_config(2, 2)
        other = shaped_config(2, 2, rabi_drive_amp=2.0, rabi_mode_amp=[0.3, 0.4], g_a_n0=0.1)
        want = snapshot(cfg)
        got = snapshot(other)
        n = len(BLOCK_NAMES)
        for name, mine, theirs in zip(BLOCK_NAMES, want[:n], got[:n]):
            if name != "eps_ph":
                assert mine != theirs, name
        assert got[n:] == want[n:]
        assert snapshot(cfg) == want

    def test_one_grid_is_kept(self):
        default = shaped_config(3, 2)
        other = shaped_config(3, 2, grid={"points": 4096, "half_length": 9.0})
        want = fresh_snapshot(default)
        snapshot(other)
        assert model._grid.cache_info().currsize == 1
        assert snapshot(default) == want

    def test_coarse_grid_refused_after_a_fine_one(self):
        snapshot(shaped_config(4, 2))
        cfg = geometry_config(grid={"points": 16, "half_length": 20.0})
        with pytest.raises(model.GridResolutionError, match="orthonormality residual"):
            model.build_mode_basis(cfg)

    def test_growing_m_a_on_a_coarse_grid_is_refused(self):
        """On 16 points over [-8, 8] two trap functions pass and three do
        not; the smaller count still passes after the larger one failed."""
        grid = {"points": 16, "half_length": 8.0}
        model._grid.cache_clear()
        want = snapshot(shaped_config(1, 1, grid=grid))
        with pytest.raises(model.GridResolutionError, match="orthonormality residual"):
            model.build_mode_basis(shaped_config(2, 1, grid=grid))
        assert snapshot(shaped_config(1, 1, grid=grid)) == want


def reference_blocks(basis, cfg):
    """The blocks integrated on the grid for one config, from the drive and
    cavity profiles scaled by its amplitudes: the route that does not go
    through the cached overlaps."""
    w, phi0, phi, x = basis.weights, basis.phi0, basis.phi_l, basis.x
    inv_da = 1.0 / cfg.delta_a
    om0 = cfg.rabi_drive_amp * np.exp(-0.5 * x * x)
    waves = [np.cos((i + 2) * np.pi * x / cfg.grid.half_length) for i in range(cfg.m_ph)]
    omnu = cfg.rabi_mode_amp[:, None] * np.reshape(waves, (cfg.m_ph, x.size))
    dens0 = phi0**2
    potential = om0**2 * inv_da - cfg.mu + 2.0 * cfg.g_a_n0 * (dens0 + cfg.n_ex)
    chi_pha = inv_da * (omnu * (w * om0 * phi0)) @ phi.T
    return {
        "eps_a": np.diag(np.arange(1, cfg.m_a + 1) + 0.5) + (phi * (w * potential)) @ phi.T,
        "chi_phph": inv_da * (omnu * (w * dens0)) @ omnu.T,
        "chi_pha": chi_pha,
        "chit_aa": cfg.g_a_n0 * (phi * w) @ (phi * dens0).T,
        "chit_pha": chi_pha,
    }


CAVITY_CONFIG = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "configs", "cavity_condensate.json"
)
# Edge cases on top of the seeded sweep parameters.
OVERLAP_CASES = ({}, {"delta_a": -40.0}, {"n_ex": 0.3}, {"rabi_drive_amp": 0.0}, {"g_a_n0": 0.0})


def overlap_configs():
    """cavity_condensate.json, and seeded configs over the ranges the
    benchmark sweeps, for each shape (with no photon or no atom mode too)
    and edge case."""
    with open(CAVITY_CONFIG, encoding="utf-8") as handle:
        configs = [model.load_config(handle.read())]
    rng = np.random.default_rng(16)
    for case in OVERLAP_CASES:
        for m_a, m_ph in SHAPES + [(3, 0), (0, 2)]:
            params = {
                "g_a_n0": 0.05 * rng.uniform(0.7, 1.3),
                "mu": rng.uniform(0.3, 0.45),
                "rabi_drive_amp": 1.1 * rng.uniform(0.8, 1.2),
                "rabi_mode_amp": list(0.9 * rng.uniform(0.8, 1.2, m_ph)),
            }
            configs.append(shaped_config(m_a, m_ph, **{**params, **case}))
    return configs


class TestCouplingIntegrals:
    """Coupling blocks against independent quadrature and closed forms."""

    def test_blocks_are_exactly_symmetric(self):
        """CouplingBlocks symmetrizes what it is given, so the overlaps the
        blocks are scaled from are checked too."""
        for cfg in overlap_configs():
            blocks, basis = model.coupling_blocks(cfg)
            arrays = [getattr(blocks, n) for n in ("eps_a", "chi_phph", "chit_aa")]
            arrays += [getattr(basis, n) for n in ("gram", "density", "drive", "waves")]
            for array in arrays:
                assert np.array_equal(array, array.T), (cfg.m_a, cfg.m_ph)

    def test_blocks_match_per_config_quadrature(self):
        """Scaled overlaps and per-config integrals differ in rounding only."""
        for cfg in overlap_configs():
            blocks, basis = model.coupling_blocks(cfg)
            for name, want in reference_blocks(basis, cfg).items():
                limit = 1e-14 * max(1.0, np.max(np.abs(want), initial=0.0))
                assert np.all(np.abs(getattr(blocks, name) - want) <= limit), name

    def test_zero_drive_decouples_light(self):
        cfg = geometry_config(rabi_drive_amp=0.0)
        blocks, _ = model.coupling_blocks(cfg)
        assert np.all(blocks.chi_pha == 0)
        assert np.all(blocks.chit_pha == 0)

    def test_zero_interaction_kills_pairing(self):
        cfg = geometry_config(g_a_n0=0.0)
        blocks, _ = model.coupling_blocks(cfg)
        assert np.all(blocks.chit_aa == 0)

    def test_pairing_integral_closed_form(self):
        """g int phi_1^2 phi_0^2 dx = g / (2 sqrt(2 pi)) for the trap."""
        g = 0.05
        cfg = geometry_config(g_a_n0=g, rabi_drive_amp=0.0, mu=0.0)
        blocks, _ = model.coupling_blocks(cfg)
        want = g / (2.0 * math.sqrt(2.0 * math.pi))
        assert blocks.chit_aa[0, 0] == pytest.approx(want, rel=1e-6)

    def test_bare_trap_spectrum(self):
        """With no drive or interaction, eps_a is diag(l + 1/2)."""
        cfg = geometry_config(
            m_a=2, g_a_n0=0.0, rabi_drive_amp=0.0, mu=0.0
        )
        blocks, _ = model.coupling_blocks(cfg)
        np.testing.assert_allclose(
            np.diag(blocks.eps_a).real, [1.5, 2.5], atol=1e-12
        )
        off = blocks.eps_a - np.diag(np.diag(blocks.eps_a))
        assert np.max(np.abs(off)) < 1e-8

    def test_cavity_energy_passthrough(self):
        blocks, _ = model.coupling_blocks(geometry_config(omega_nu=[1.3]))
        assert blocks.eps_ph[0, 0] == pytest.approx(1.3)

    def test_blocks_have_required_structure(self):
        blocks, basis = model.coupling_blocks(geometry_config(m_a=3, m_ph=1))
        assert basis is not None
        assert np.max(np.abs(blocks.eps_a - blocks.eps_a.conj().T)) < 1e-12
        assert np.max(np.abs(blocks.chit_aa - blocks.chit_aa.T)) < 1e-12

    def test_grid_refinement_converges(self):
        """The default and a 64-point grid agree with a 32768-point grid."""
        fine_blocks, _ = model.coupling_blocks(geometry_config(grid={"points": 32768}))
        for cfg in (geometry_config(), geometry_config(grid={"points": 64})):
            coarse_blocks, _ = model.coupling_blocks(cfg)
            for name in ("eps_a", "chit_aa", "chi_pha", "chit_pha", "chi_phph"):
                a = getattr(coarse_blocks, name)
                b = getattr(fine_blocks, name)
                assert np.max(np.abs(a - b)) < 1e-12

    def test_direct_mode_returns_blocks_verbatim(self):
        cfg = model.config_from_dict(
            {
                "mode": "direct_blocks",
                "m_a": 1,
                "m_ph": 0,
                "temperature": 0.0,
                "direct_blocks": {"eps_a": [[1.0]]},
            }
        )
        blocks, basis = model.coupling_blocks(cfg)
        assert basis is None
        assert blocks is cfg.direct_blocks


class TestScatteringTime:
    def test_unit_parameters(self):
        cfg = geometry_config(
            n_atoms=1.0,
            kappa_nu=1.0,
            delta_a=1.0,
            delta_nu=[1.0],
            rabi_drive_amp=1.0,
            rabi_mode_amp=[1.0],
            omega_r=1.0,
        )
        assert model.estimate_scattering_time(cfg) == 1.0

    def test_hand_value(self):
        cfg = geometry_config(
            n_atoms=1e5,
            kappa_nu=1.0,
            delta_a=1e3,
            delta_nu=[10.0],
            rabi_drive_amp=1e2,
            rabi_mode_amp=[1e2],
            omega_r=0.1,
        )
        assert model.estimate_scattering_time(cfg) == pytest.approx(1000.0)

    def test_scaling_in_detuning(self):
        base = geometry_config()
        doubled = geometry_config(delta_a=80.0)
        ratio = model.estimate_scattering_time(doubled) / model.estimate_scattering_time(base)
        assert ratio == pytest.approx(4.0)

    def test_returns_plain_float(self):
        assert type(model.estimate_scattering_time(geometry_config())) is float

    def test_zero_denominator_named(self):
        with pytest.raises(model.ConfigError, match=r"delta_nu\[0\] is zero"):
            model.estimate_scattering_time(geometry_config(delta_nu=[0.0]))
        with pytest.raises(model.ConfigError, match="omega_r is zero"):
            model.estimate_scattering_time(geometry_config(omega_r=0.0))

    def test_requires_a_cavity_mode(self):
        cfg = geometry_config(
            m_ph=0, delta_nu=[], omega_nu=[], rabi_mode_amp=[]
        )
        with pytest.raises(model.ConfigError, match="at least one cavity mode"):
            model.estimate_scattering_time(cfg)
