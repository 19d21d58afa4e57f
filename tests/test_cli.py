"""End-to-end command line tests, run in process through main()."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from hybrid_sampler import model, pipeline, sampling
from hybrid_sampler.cli import main

T_HALF = 1.0 / math.log(2.0)
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


class TestHaf:
    def test_ones_four(self, tmp_path, capsys):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps([[1, 1, 1, 1]] * 4))
        code = main(["haf", "--matrix", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "3 + 0i"
        assert out[1].startswith("power-trace agreement:")
        agreement = float(out[1].split(":")[1])
        assert agreement < 1e-9

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
        assert "skipped" in out[1]

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
        assert values == list(dist.probabilities.values())

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
        assert values == list(marginal.probabilities.values())

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
        assert payload["stability"]["positive_definite"] is False

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

    def test_unstable_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, UNSTABLE)
        code = main(["validate", "--config", config])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL: unstable" in out
        assert "validation FAILED" in out


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

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"
