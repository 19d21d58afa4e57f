"""End-to-end command line tests, run in process through main()."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hybrid_sampler import bdg, gaussian, hafnian, model, pipeline, sampling
from hybrid_sampler.cli import _format_complex, main

from conftest import doctored

T_HALF = 1.0 / math.log(2.0)
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
OVERFLOWING_TEMPERATURE = (
    "error: temperature 1e+308 is too high for the smallest quasiparticle energy "
    "E = 1.0: coth(E / 2T) is finite only while E / 2T exceeds the limit "
    "2^-1024 = 5.563e-309, that is T < 8.988466e+307"
)
THERMAL_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "configs", "thermal_one_mode.json"
)
MANIFEST_FIELDS = {
    "config_digest", "version", "subcommand", "parameters", "seed", "wall_time_s"
}

THERMAL = {
    "mode": "direct_blocks",
    "m_a": 1,
    "m_ph": 0,
    "temperature": T_HALF,
    "direct_blocks": {"eps_a": [[1.0]]},
}
VACUUM = {
    "mode": "direct_blocks",
    "m_a": 1,
    "m_ph": 1,
    "temperature": 0.0,
    "direct_blocks": {"eps_a": [[1.0]], "eps_ph": [[1.2]]},
}
TWO_MODE = {
    "mode": "direct_blocks",
    "m_a": 1,
    "m_ph": 1,
    "temperature": 0.0,
    "direct_blocks": {
        "eps_a": [[1.0]],
        "eps_ph": [[1.0]],
        "chit_pha": [[0.4]],
    },
}
UNSTABLE = {
    "mode": "direct_blocks",
    "m_a": 1,
    "m_ph": 0,
    "temperature": 0.0,
    "direct_blocks": {"eps_a": [[1.0]], "chit_aa": [[1.5]]},
}
# |t|^2 > e^2 exactly, yet the eigenvalues e -+ |t| of K round to a positive
# double: only the failed Cholesky factorization shows the instability.
CRITICAL = {
    "mode": "direct_blocks",
    "m_a": 1,
    "m_ph": 0,
    "temperature": 0.0,
    "direct_blocks": {
        "eps_a": [[1.0]],
        "chit_aa": [[[0.9375047248769781, 0.34797254321762455]]],
    },
}
GEOMETRY = {
    "mode": "geometry_1d",
    "m_a": 1,
    "m_ph": 1,
    "temperature": 0.0,
    "delta_a": 1e3,
    "delta_nu": [10.0],
    "omega_nu": [1.0],
    "rabi_mode_amp": [1e2],
    "rabi_drive_amp": 1e2,
    "kappa_nu": 1.0,
    "omega_r": 0.1,
    "n_atoms": 1e5,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def json_documents(text):
    """Parse a stream of concatenated JSON documents."""
    decoder = json.JSONDecoder()
    docs = []
    idx = 0
    while idx < len(text):
        while idx < len(text) and text[idx] in " \t\r\n":
            idx += 1
        if idx >= len(text):
            break
        doc, idx = decoder.raw_decode(text, idx)
        docs.append(doc)
    return docs


class TestProb:
    def test_thermal_single_count(self, tmp_path, capsys):
        config = write_config(tmp_path, THERMAL)
        code = main(["prob", "--config", config, "--counts", "1"])
        out = capsys.readouterr()
        assert code == 0
        assert out.out == "0.25\n"

    def test_manifest_on_stderr(self, tmp_path, capsys):
        config = write_config(tmp_path, THERMAL)
        main(["prob", "--config", config, "--counts", "0"])
        err = capsys.readouterr().err
        (manifest,) = json_documents(err)
        raw = (tmp_path / "config.json").read_bytes()
        assert manifest["config_digest"] == hashlib.sha256(raw).hexdigest()
        assert manifest["subcommand"] == "prob"
        assert manifest["parameters"]["counts"] == [0]
        assert manifest["seed"] == -1
        assert set(manifest) == MANIFEST_FIELDS

    def test_large_count_within_budget(self, capsys):
        """Count 17, a 34 x 34 replicated hafnian, is within the lattice budget."""
        argv = ["prob", "--config", THERMAL_FILE, "--counts", "17"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert float(first) == pytest.approx(0.5**18, abs=1e-12)
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_budget_violation_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, THERMAL)
        assert main(["prob", "--config", config, "--counts", "5000"]) == 1
        err = capsys.readouterr().err
        assert "25010001 box entries" in err and "16777216" in err

    def test_thread_variable_is_ignored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYBRID_SAMPLER_THREADS", "abc")
        config = write_config(tmp_path, THERMAL)
        assert main(["prob", "--config", config, "--counts", "1"]) == 0
        assert capsys.readouterr().out == "0.25\n"

    def test_bad_counts_string(self, tmp_path):
        config = write_config(tmp_path, THERMAL)
        assert main(["prob", "--config", config, "--counts", "a,b"]) == 2

    def test_counts_length_mismatch(self, tmp_path):
        config = write_config(tmp_path, THERMAL)
        assert main(["prob", "--config", config, "--counts", "1,0"]) == 2

    def test_negative_counts(self, tmp_path):
        config = write_config(tmp_path, THERMAL)
        assert main(["prob", "--config", config, "--counts", "-1"]) == 2

    @pytest.mark.parametrize("counts", ["1,0", "-1"])
    def test_counts_checked_before_the_state(self, tmp_path, capsys, counts):
        """The unstable config would exit 1 if its state were built."""
        config = write_config(tmp_path, UNSTABLE)
        assert main(["prob", "--config", config, "--counts", counts]) == 2
        assert "error: counts" in capsys.readouterr().err


class TestHaf:
    def test_ones_four(self, tmp_path, capsys):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps([[1, 1, 1, 1]] * 4))
        code = main(["haf", "--matrix", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "3 + 0i"
        assert out[1] == "matching-sum agreement: 0.000e+00"

    def test_cross_check_reads_the_matching_sum(self, tmp_path, capsys):
        """At the cross-check limit the recursion's value is printed and its
        distance from the matching sum follows it."""
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        mat = mat + mat.T
        path = tmp_path / "mat.json"
        path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in mat]))
        assert main(["haf", "--matrix", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        value = hafnian.hafnian_recursive(mat)
        assert out[0] == _format_complex(value)
        assert out[1] == "matching-sum agreement: %.3e" % abs(hafnian.hafnian_naive(mat) - value)
        assert float(out[1].split(":")[1]) <= 1e-12 * abs(value)

    def test_object_form(self, tmp_path, capsys):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"matrix": [[0.0, 2.5], [2.5, 0.0]]}))
        code = main(["haf", "--matrix", str(path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "2.5 + 0i"

    def test_complex_entries(self, tmp_path, capsys):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps([[[0.0, 0.0], [1.0, 2.0]], [[1.0, 2.0], [0.0, 0.0]]]))
        code = main(["haf", "--matrix", str(path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "1 + 2i"

    def test_large_matrix_skips_cross_check(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(14, 14))
        mat = (mat + mat.T).tolist()
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(mat))
        code = main(["haf", "--matrix", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[1] == (
            "matching-sum agreement: skipped (size 14 above the naive "
            "cross-check limit 12)"
        )

    def test_asymmetric_matrix(self, tmp_path, capsys):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps([[0.0, 1.0], [2.0, 0.0]]))
        assert main(["haf", "--matrix", str(path)]) == 1
        assert "not symmetric" in capsys.readouterr().err

    def test_matrix_parse_error(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text("[[1, ]")
        assert main(["haf", "--matrix", str(path)]) == 2

    def test_missing_matrix_file(self, tmp_path):
        assert main(["haf", "--matrix", str(tmp_path / "absent.json")]) == 2


class TestPdf:
    def test_thermal_csv(self, tmp_path):
        config = write_config(tmp_path, THERMAL)
        out = tmp_path / "pdf.csv"
        code = main(
            ["pdf", "--config", config, "--cutoff", "10", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_1,probability"
        assert len(lines) == 12
        for count, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == count
            assert float(fields[1]) == pytest.approx(
                0.5 ** (count + 1), abs=1e-12
            )
        meta = json.loads((tmp_path / "pdf.csv.meta.json").read_text())
        assert meta["captured_mass"] == pytest.approx(1.0 - 2.0**-11)
        assert meta["cutoff"] == 10
        assert meta["photons_only"] is False

    def test_rows_match_library(self, tmp_path):
        config = write_config(tmp_path, TWO_MODE)
        out = tmp_path / "pdf.csv"
        main(["pdf", "--config", config, "--cutoff", "4", "--out", str(out)])
        cfg = model.load_config((tmp_path / "config.json").read_text())
        dist = pipeline.distribution(cfg, 4)
        lines = out.read_text().splitlines()
        assert lines[0] == "n_1,q_1,probability"
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert values == dist.probabilities.ravel().tolist()

    def test_photons_only_equals_marginal(self, tmp_path):
        config = write_config(tmp_path, TWO_MODE)
        out = tmp_path / "pdf.csv"
        main(
            [
                "pdf",
                "--config",
                config,
                "--cutoff",
                "6",
                "--photons-only",
                "--out",
                str(out),
            ]
        )
        cfg = model.load_config((tmp_path / "config.json").read_text())
        marginal = sampling.marginalize(pipeline.distribution(cfg, 6), [1])
        lines = out.read_text().splitlines()
        assert lines[0] == "q_1,probability"
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert values == marginal.probabilities.ravel().tolist()

    @pytest.mark.parametrize("name", ["thermal_one_mode.json", "squeezed_vacuum.json"])
    def test_photons_only_without_photon_modes(self, capsys, monkeypatch, name):
        """A usage error raised before any state is built."""

        def no_state(*args, **kwargs):
            raise AssertionError("state built")

        monkeypatch.setattr(pipeline, "gaussian_state", no_state)
        config = os.path.join(os.path.dirname(THERMAL_FILE), name)
        argv = ["pdf", "--config", config, "--cutoff", "4", "--photons-only"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--photons-only" in err and "m_ph = 0" in err

    def test_budget_violation_fails(self, tmp_path, capsys):
        """4097^2 box entries exceed the 2^24 lattice budget."""
        config = write_config(tmp_path, THERMAL)
        assert main(["pdf", "--config", config, "--cutoff", "4096"]) == 1
        err = capsys.readouterr().err
        assert "16785409 box entries" in err and "16777216" in err

    def test_large_cutoff_within_budget(self, tmp_path):
        """Cutoff 17 at one mode needs 18^2 box entries, well within the budget."""
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            argv = ["pdf", "--config", THERMAL_FILE, "--cutoff", "17", "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        lines = outs[0].read_text().splitlines()
        assert len(lines) == 19
        for count, line in enumerate(lines[1:]):
            assert float(line.split(",")[1]) == pytest.approx(
                0.5 ** (count + 1), abs=1e-12
            )


class TestSample:
    def test_reproducible(self, tmp_path):
        config = write_config(tmp_path, THERMAL)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["sample", "--config", config, "--cutoff", "10", "--n", "50"]
        assert main(argv + ["--seed", "5", "--out", str(first)]) == 0
        assert main(argv + ["--seed", "5", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        third = tmp_path / "c.csv"
        assert main(argv + ["--seed", "6", "--out", str(third)]) == 0
        assert first.read_bytes() != third.read_bytes()

    def test_csv_shape_and_manifest_seed(self, tmp_path):
        config = write_config(tmp_path, THERMAL)
        out = tmp_path / "draws.csv"
        code = main(
            [
                "sample",
                "--config",
                config,
                "--cutoff",
                "10",
                "--n",
                "20",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_1"
        assert len(lines) == 21
        assert all(int(line) >= 0 for line in lines[1:])
        manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
        assert manifest["seed"] == 9
        meta = json.loads((tmp_path / "draws.csv.meta.json").read_text())
        assert meta["n_samples"] == 20

    def test_truncation_guard(self, tmp_path, capsys):
        config = write_config(tmp_path, THERMAL)
        code = main(
            [
                "sample",
                "--config",
                config,
                "--cutoff",
                "1",
                "--n",
                "10",
                "--seed",
                "0",
            ]
        )
        assert code == 1
        assert "captured mass" in capsys.readouterr().err


class TestBuildDecomposeCovariance:
    def test_build_payload(self, tmp_path, capsys):
        config = write_config(tmp_path, THERMAL)
        assert main(["build", "--config", config]) == 0
        payload = json_documents(capsys.readouterr().out)[0]
        eps = model.decode_matrix(payload["blocks"]["eps_a"], "eps_a")
        assert eps[0, 0] == 1.0
        ham = model.decode_matrix(payload["hamiltonian"], "h")
        np.testing.assert_array_equal(ham, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert payload["stability"]["stable"] is True

    def test_decompose_payload(self, tmp_path, capsys):
        config = write_config(tmp_path, TWO_MODE)
        assert main(["decompose", "--config", config]) == 0
        payload = json_documents(capsys.readouterr().out)[0]
        want_energy = math.sqrt(1.0 - 0.16)
        np.testing.assert_allclose(
            payload["energies"], [want_energy, want_energy], atol=1e-12
        )
        want_r = 0.25 * math.log(7.0 / 3.0)
        np.testing.assert_allclose(payload["squeeze"], [want_r, want_r], atol=1e-10)
        v = model.decode_matrix(payload["v"], "v")
        np.testing.assert_allclose(
            v @ v.conj().T, np.eye(2), atol=1e-10
        )

    def test_covariance_payload(self, tmp_path, capsys):
        config = write_config(tmp_path, THERMAL)
        assert main(["covariance", "--config", config]) == 0
        payload = json_documents(capsys.readouterr().out)[0]
        np.testing.assert_allclose(payload["mean_occupations"], [1.0], atol=1e-12)
        cfg = model.load_config((tmp_path / "config.json").read_text())
        state = pipeline.gaussian_state(cfg)
        assert payload["fingerprint"] == state.fingerprint()
        g = model.decode_matrix(payload["g"], "g")
        np.testing.assert_allclose(g, state.g, atol=1e-15)


class TestValidate:
    def test_vacuum_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, VACUUM)
        code = main(["validate", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "validation passed" in out
        assert "vacuum probability 1.0" in out
        assert "FAIL" not in out
        for line in out.splitlines()[:-1]:
            assert line.startswith("PASS: ")

    def test_geometry_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, GEOMETRY)
        code = main(["validate", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode basis orthonormality" in out
        assert "validation passed" in out

    def test_chi_square_line_matches_scipy_stats(self, capsys):
        """The printed p-value is scipy.stats.chi2.sf on the same draws."""
        from scipy.stats import chi2

        config = os.path.join(os.path.dirname(THERMAL_FILE), "cavity_condensate.json")
        with open(config, encoding="utf-8") as handle:
            cfg = model.load_config(handle.read())
        state = pipeline.gaussian_state(cfg)
        dist = pipeline.distribution(cfg, sampling.recommend_cutoff(state), state=state)
        res = sampling.chi_square(dist, sampling.sample(dist, 2000, seed=7))
        expected = "PASS: chi-square p=%.4f over %d buckets" % (
            chi2.sf(res.statistic, res.dof), res.n_buckets
        )
        assert main(["validate", "--config", config]) == 0
        assert expected in capsys.readouterr().out.splitlines()

    def test_every_residual_line_names_its_limit(self, capsys):
        """Each residual is printed beside the limit it was checked against.
        There is no Hamiltonian line: the blocks make the form exactly
        Hermitian when they are built.  Nor is there a squeeze
        reconstruction line, and the captured mass is reported without a
        limit: bloch_messiah and enumerate_distribution raise at those
        limits themselves."""
        config = os.path.join(os.path.dirname(THERMAL_FILE), "squeezed_vacuum.json")
        assert main(["validate", "--config", config]) == 0
        lines = capsys.readouterr().out.splitlines()
        with open(config, encoding="utf-8") as handle:
            cfg = model.load_config(handle.read())
        state = pipeline.gaussian_state(cfg)
        dist = pipeline.distribution(cfg, sampling.recommend_cutoff(state), state=state)
        assert (
            "PASS: captured mass %.12g (clamped %d)" % (dist.captured_mass, dist.clamped)
        ) in lines
        number = r"-?\d\.\d{3}e[+-]\d{2}"
        labels = [
            (re.escape("symplectic identity residual"), "1e-10"),
            (re.escape("diagonalization residual"), "1e-09"),
            (re.escape("spectrum cross-check difference"), "1e-10"),
            (re.escape("V/W unitarity residual"), "1e-10"),
            (re.escape("squeeze spectrum vs singular values"), "1e-09"),
            ("normal correlator min eigenvalue %s, negativity" % number, "1e-10"),
            (re.escape("covariance vs direct correlator"), "1e-10"),
        ]
        for label, limit in labels:
            pattern = "PASS: %s %s within the limit %s" % (label, number, limit)
            assert len([line for line in lines if re.fullmatch(pattern, line)]) == 1, label
        assert len([line for line in lines if " the limit " in line]) == len(labels)
        for word in ("hamiltonian", "reconstruction"):
            assert not [line for line in lines if word in line.lower()]

    def test_mass_above_one_ends_validate(self, tmp_path, capsys, monkeypatch):
        """Enumeration refuses a captured mass above 1 + 1e-9 itself, so
        validate ends with its message and exit 1, not with a FAIL line."""
        build = gaussian.covariance

        def scaled_up(dec, temperature):
            state = build(dec, temperature)
            return doctored(state, log_norm=state.log_norm - 0.01)

        monkeypatch.setattr(gaussian, "covariance", scaled_up)
        config = write_config(tmp_path, THERMAL)
        assert main(["validate", "--config", config]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"error: captured mass 1\.0\d+ exceeds 1 by more than 1\.0e-09; "
            r"the state is invalid",
            captured.err.splitlines()[0],
        )
        assert captured.out == ""

    def test_failing_line_names_its_limit(self, tmp_path, capsys, monkeypatch):
        """A residual above its limit fails its line, which says so."""
        monkeypatch.setattr(model.ModeBasis, "orthonormality_residual", lambda self: 2e-8)
        config = write_config(tmp_path, GEOMETRY)
        assert main(["validate", "--config", config]) == 1
        out = capsys.readouterr().out
        assert (
            "FAIL: mode basis orthonormality residual 2.000e-08 above the limit 1e-08"
            in out.splitlines()
        )
        assert "validation FAILED" in out

    def test_unstable_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, UNSTABLE)
        code = main(["validate", "--config", config])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL: unstable" in out
        assert "validation FAILED" in out

    def test_diagonalizes_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        diagonalize = bdg.bogoliubov_diagonalize

        def counted(ham):
            calls.append(ham)
            return diagonalize(ham)

        monkeypatch.setattr(bdg, "bogoliubov_diagonalize", counted)
        config = write_config(tmp_path, THERMAL)
        assert main(["validate", "--config", config]) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestScatterTime:
    def test_hand_value(self, tmp_path, capsys):
        config = write_config(tmp_path, GEOMETRY)
        assert main(["scatter-time", "--config", config]) == 0
        assert capsys.readouterr().out == "1000.0\n"

    def test_zero_denominator(self, tmp_path, capsys):
        doc = dict(GEOMETRY)
        doc["omega_r"] = 0.0
        config = write_config(tmp_path, doc)
        assert main(["scatter-time", "--config", config]) == 2
        assert "omega_r is zero" in capsys.readouterr().err


class TestFixedLimits:
    """Each numerical guard has one fixed limit, and no flag moves it."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("build", "--tol-stability"),
            ("decompose", "--tol-reconstruction"),
            ("covariance", "--tol-symmetry"),
            ("validate", "--tol-imaginary"),
        ],
    )
    def test_tolerance_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        config = write_config(tmp_path, THERMAL)
        assert main([command, "--config", config, flag, "1e-3"]) == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, parameters",
        [
            (["build"], {}),
            (["decompose"], {}),
            (["covariance"], {}),
            (["validate"], {}),
            (["pdf", "--cutoff", "2"], {"cutoff": 2, "photons_only": False}),
            (["prob", "--counts", "1"], {"counts": [1]}),
            (["sample", "--cutoff", "20", "--n", "3", "--seed", "1"], {"cutoff": 20, "n": 3}),
        ],
    )
    def test_manifest_parameters_are_command_specific(
        self, tmp_path, capsys, argv, parameters
    ):
        config = write_config(tmp_path, THERMAL)
        assert main(argv[:1] + ["--config", config] + argv[1:]) == 0
        manifest = json_documents(capsys.readouterr().err)[-1]
        assert manifest["parameters"] == parameters

    def test_failed_cholesky_config_is_unstable(self, tmp_path, capsys):
        config = write_config(tmp_path, CRITICAL)
        assert main(["build", "--config", config]) == 0
        stability = json.loads(capsys.readouterr().out)["stability"]
        assert stability["stable"] is False
        assert "Cholesky" in stability["detail"]
        for argv in (["decompose"], ["pdf", "--cutoff", "2"]):
            assert main(argv[:1] + ["--config", config] + argv[1:]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: dynamical form K failed its Cholesky" in captured.err


class TestUsageAndExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["build", "--config", str(tmp_path / "absent.json")]) == 2

    def test_schema_violation(self, tmp_path):
        config = write_config(tmp_path, {**THERMAL, "frobnicate": 1})
        assert main(["build", "--config", config]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, tmp_path, capsys):
        config = write_config(tmp_path, THERMAL)
        assert main(["pdf", "--config", config]) == 2
        capsys.readouterr()

    def test_unstable_decompose(self, tmp_path, capsys):
        config = write_config(tmp_path, UNSTABLE)
        assert main(["decompose", "--config", config]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["build"], ["pdf", "--cutoff", "2"]])
    def test_complex_pair_coupling_is_a_usage_error(self, tmp_path, capsys, argv):
        """chit_pha is real by the schema, so a complex one is refused as
        the config is read, not while the Hamiltonian is assembled."""
        blocks = {**TWO_MODE["direct_blocks"], "chit_pha": [[[0.3, 0.1]]]}
        config = write_config(tmp_path, {**TWO_MODE, "direct_blocks": blocks})
        assert main(argv[:1] + ["--config", config] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "chit_pha must be real: max|Im chit_pha| = 1.000e-01 exceeds the "
            "limit 1e-12 * max(1, max|chit_pha|) = 1.000e-12"
        ) in captured.err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({**THERMAL, "m_a": -1}, "m_a"),
            ({**GEOMETRY, "grid": {"points": "abc"}}, "grid.points"),
            ({**GEOMETRY, "grid": {"points": 20.7}}, "grid.points"),
            ({**GEOMETRY, "grid": {"half_length": "x"}}, "grid.half_length"),
            ({**THERMAL, "temperature": math.nan}, "temperature"),
            ({**THERMAL, "temperature": math.inf}, "temperature"),
            ({**THERMAL, "direct_blocks": {"eps_a": [[math.nan]]}}, "direct_blocks.eps_a[0][0]"),
            ({**THERMAL, "direct_blocks": {"eps_a": [[math.inf]]}}, "direct_blocks.eps_a[0][0]"),
        ],
    )
    def test_malformed_number_is_a_usage_error(self, tmp_path, capsys, doc, field):
        config = write_config(tmp_path, doc)
        assert main(["pdf", "--config", config, "--cutoff", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s" % field)

    def test_non_finite_matrix_entry_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps([[0.0, math.nan], [math.nan, 0.0]]))
        assert main(["haf", "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: matrix[0][1]: expected a finite number")

    def test_overflowing_temperature_fails(self, tmp_path, capsys):
        """Finite, so the config is accepted, but coth(E / 2T) overflows:
        the temperature is refused before the state is built."""
        config = write_config(tmp_path, {**THERMAL, "temperature": 1e308})
        assert main(["pdf", "--config", config, "--cutoff", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == OVERFLOWING_TEMPERATURE + "\n"

    def test_overflowing_temperature_fails_without_a_warning(self, tmp_path):
        """Under -W error a numpy RuntimeWarning would end in a traceback."""
        config = write_config(tmp_path, {**THERMAL, "temperature": 1e308})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hybrid_sampler.cli",
             "pdf", "--config", config, "--cutoff", "2"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == OVERFLOWING_TEMPERATURE + "\n"

    def test_mode_budget_is_a_usage_error(self, tmp_path, capsys):
        doc = {"mode": "direct_blocks", "m_a": model.MAX_MODES, "m_ph": 1,
               "temperature": 0.0, "direct_blocks": {}}
        assert main(["build", "--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: m_a + m_ph = 257 modes exceeds the limit MAX_MODES = 256\n"
        )

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["pdf", "--cutoff", "-1"], "--cutoff"),
            (["sample", "--cutoff", "4", "--n", "-3", "--seed", "1"], "--n"),
            (["sample", "--cutoff", "4", "--n", "3", "--seed", "-1"], "--seed"),
            (
                ["sample", "--cutoff", "4", "--n", "3", "--seed", str(2**64)],
                "--seed",
            ),
            (
                ["sample", "--cutoff", "4", "--n", str(2**22 + 1), "--seed", "1"],
                "--n",
            ),
        ],
    )
    def test_out_of_range_integer_is_a_usage_error(self, tmp_path, capsys, argv, flag):
        """Refused by the parser: the unstable config would exit 1 if read."""
        config = write_config(tmp_path, UNSTABLE)
        assert main(argv[:1] + ["--config", config] + argv[1:]) == 2
        assert "argument %s" % flag in capsys.readouterr().err
