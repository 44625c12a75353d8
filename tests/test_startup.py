"""Start-up cost guard: no run loads scipy, neither the import of the
package, the closed-form and Floquet-spectrum runs, nor the runs that seek
a root or a minimum (resonance, avoided crossings and the Rabi fit), which
use the package's own Brent solvers.

Each case runs in a fresh interpreter, since this process already holds
scipy through the other test modules.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# prints the CLI exit code (or null) and the loaded scipy modules as JSON
_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import rotorspin
else:
    from rotorspin.cli import main
    code = main(argv)
print(json.dumps({"code": code, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def probe(argv, tmp_path):
    if argv is not None and argv[0] != "selftest":
        argv = argv + ["--output", str(tmp_path / "out.csv")]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    None,
    ["spectrum", "--theta", "0.0314159265", "--delta", "0",
     "--axis", "omega:0:1.2:21"],
    ["spectrum", "--theta", "0.3", "--delta", "0.3",
     "--axis", "omega:0.5:0.7:5"],
    ["geomphase", "--theta", "0.3141592653589793", "--delta", "0",
     "--axis", "omega:0.85:1.25:5"],
    ["geomphase", "--theta", "0.3", "--delta", "0.3",
     "--axis", "omega:0.5:0.6:2"],
    ["sensitivity", "--omega", "1.0", "--theta", "0.5", "--delta-rabi", "0.01"],
], ids=["import", "spectrum", "spectrum-field", "geomphase", "geomphase-field",
        "sensitivity"])
def test_no_scipy_outside_root_finding(argv, tmp_path):
    out = probe(argv, tmp_path)
    assert out["code"] in (None, 0)
    assert out["scipy"] == []


@pytest.mark.parametrize("argv", [
    ["resonance", "--theta", "0.0314159265", "--omega", "0.2"],
    ["evolve", "--omega", "1.0", "--theta", "0.3", "--psi0", "0",
     "--t-end", "60"],
    ["selftest"],
], ids=["resonance", "evolve", "selftest"])
def test_root_finding_loads_no_scipy(argv, tmp_path):
    out = probe(argv, tmp_path)
    assert out["code"] == 0
    assert out["scipy"] == []
