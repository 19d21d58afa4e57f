"""Stage chaining from configs to distributions."""

import inspect
import math

import numpy as np
import pytest

from hybrid_sampler import (
    bdg,
    blochmessiah,
    cli,
    gaussian,
    hafnian,
    model,
    pipeline,
    sampling,
)

T_HALF = 1.0 / math.log(2.0)


def thermal_config():
    return model.config_from_dict(
        {
            "mode": "direct_blocks",
            "m_a": 1,
            "m_ph": 0,
            "temperature": T_HALF,
            "direct_blocks": {"eps_a": [[1.0]]},
        }
    )


class TestPipeline:
    def test_chain_matches_manual_stages(self):
        cfg = thermal_config()
        ham = pipeline.hamiltonian(cfg)
        dec = pipeline.decomposition(cfg, ham=ham)
        manual = bdg.bogoliubov_diagonalize(ham)
        np.testing.assert_array_equal(dec.energies, manual.energies)

        state = pipeline.gaussian_state(cfg, dec=dec)
        manual_state = gaussian.covariance(dec, cfg.temperature)
        np.testing.assert_array_equal(state.g, manual_state.g)
        assert state.fingerprint() == manual_state.fingerprint()

    def test_distribution_shortcut(self):
        cfg = thermal_config()
        dist = pipeline.distribution(cfg, 10)
        state = pipeline.gaussian_state(cfg)
        manual = sampling.enumerate_distribution(state, 10)
        np.testing.assert_array_equal(dist.probabilities, manual.probabilities)

    def test_squeeze_factors_round_trip(self):
        cfg = model.config_from_dict(
            {
                "mode": "direct_blocks",
                "m_a": 1,
                "m_ph": 0,
                "temperature": 0.0,
                "direct_blocks": {"eps_a": [[1.0]], "chit_aa": [[0.6]]},
            }
        )
        factors = pipeline.squeeze_factors(cfg)
        assert factors.r[0] == pytest.approx(0.25 * math.log(4.0), abs=1e-10)

    def test_instability_propagates(self):
        cfg = model.config_from_dict(
            {
                "mode": "direct_blocks",
                "m_a": 1,
                "m_ph": 0,
                "temperature": 0.0,
                "direct_blocks": {"eps_a": [[1.0]], "chit_aa": [[1.5]]},
            }
        )
        with pytest.raises(bdg.InstabilityError):
            pipeline.decomposition(cfg)

    def test_no_function_takes_a_tolerance(self):
        """Every numerical limit is a module constant; no signature moves one."""
        for module in (bdg, blochmessiah, cli, gaussian, hafnian, pipeline, sampling):
            for name, func in inspect.getmembers(module, inspect.isfunction):
                if func.__module__ != module.__name__:
                    continue
                params = inspect.signature(func).parameters
                assert not [p for p in params if p.startswith("tol")], name
        with pytest.raises(TypeError):
            pipeline.distribution(thermal_config(), 2, tol_imaginary=1e-9)
