"""The package and its command line import numpy and the standard library only.

Running ``pdf``, ``haf`` and ``validate`` on the example configs loads no
scipy module either: the chi-square p-value is computed with ``math``.  Nor
do ``decompose``, ``pdf`` and ``validate`` on ``data/complex_three_mode.json``,
whose complex squeeze kernel takes the complex Takagi branch.  Each check
runs in a fresh interpreter, because this test process has scipy loaded
already.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CONFIGS = os.path.join(ROOT, "configs")
COMPLEX = os.path.join(ROOT, "tests", "data", "complex_three_mode.json")

SCRIPT = """
import contextlib, io, json, sys

import hybrid_sampler.cli as cli

configs, complex_config = sys.argv[1:3]


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


report = {"import": scipy_modules()}
report["pdf"] = run(["pdf", "--config", configs + "/cavity_condensate.json", "--cutoff", "3"])
report["haf"] = run(["haf", "--matrix", configs + "/ones4.json"])
report["after_pdf_haf"] = scipy_modules()
report["validate"] = run(["validate", "--config", configs + "/cavity_condensate.json"])
report["after_validate"] = scipy_modules()
report["complex"] = [
    run(["decompose", "--config", complex_config]),
    run(["pdf", "--config", complex_config, "--cutoff", "3"]),
    run(["validate", "--config", complex_config]),
]
report["after_complex"] = scipy_modules()
print(json.dumps(report))
"""


def _run_script():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, CONFIGS, COMPLEX],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_cli_loads_scipy_only_on_demand():
    report = _run_script()
    assert report["import"] == []
    assert (report["pdf"], report["haf"]) == (0, 0)
    assert report["after_pdf_haf"] == []
    # validate reaches chi_square on this config.
    assert report["validate"] == 0
    assert report["after_validate"] == []
    # decompose and validate factor a complex kernel here.
    assert report["complex"] == [0, 0, 0]
    assert report["after_complex"] == []
