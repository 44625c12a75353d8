"""Start-up cost guard: no run loads scipy, neither the import of the
package, the closed-form and Floquet-spectrum runs, nor the runs that seek
a root or a minimum (resonance, avoided crossings and the Rabi fit), which
use the package's own Brent solvers. No run loads argparse either. The
package defines only two dataclasses, since `dataclasses` compiles the
methods of each at every start; its other records are named tuples.
A CLI process freezes its heap as it exits, so that the interpreter's
exit-time collections skip it; importing the package does not.

Each case runs in a fresh interpreter, since this process already holds
scipy through the other test modules.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

from rotorspin.cli import main
from rotorspin.config import AxisSpec, SweepConfig
from rotorspin.dynamics import EvolutionTrace
from rotorspin.floquet import CrossingReport, ModeSet, QuasiSpectrum, SpectrumBranch
from rotorspin.geomphase import GeometricPhaseSet
from rotorspin.model import DerivedScales
from rotorspin.sensing import ResonanceSolution
from rotorspin.spin_algebra import EigenSystem, SpinOperatorSet

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# prints as JSON at exit the CLI exit code (or null), the loaded scipy
# modules, whether argparse is loaded, the package's dataclasses, and the
# number of frozen objects; its exit handler, registered before the
# package is imported, runs after every handler that the package registers
_PROBE = """
import atexit, gc, json, sys
argv = json.loads(sys.argv[1])
out = {"code": None}
atexit.register(lambda: print(json.dumps({**out, "frozen": gc.get_freeze_count()})))
if argv is None:
    import rotorspin
else:
    from rotorspin.cli import main
    out["code"] = main(argv)
classes = {cls for name, mod in list(sys.modules.items())
           if name.split(".")[0] == "rotorspin"
           for cls in vars(mod).values()
           if isinstance(cls, type) and cls.__module__ == name}
out.update(scipy=sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
           argparse="argparse" in sys.modules,
           dataclasses=sorted(cls.__name__ for cls in classes
                              if "__dataclass_fields__" in vars(cls)))
"""

# validated or mutable: every other record is a named tuple
DATACLASSES = ["Dataset", "RotorParams"]


def probe(argv, tmp_path):
    if argv is not None and argv[0] != "selftest":
        argv = argv + ["--output", str(tmp_path / "out.csv")]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["argparse"] is False
    assert out["dataclasses"] == DATACLASSES
    return out


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


@pytest.mark.parametrize("argv", [
    None,
    ["sensitivity", "--omega", "1.0", "--theta", "0.5", "--delta-rabi", "0.01"],
    ["spectrum", "--axis", "omega:0.1:0.2:100000000000000"],
], ids=["import", "cli", "cli-exit-3"])
def test_cli_process_exits_with_its_heap_frozen(argv, tmp_path):
    # numpy and the package alone leave more than 10,000 tracked objects
    out = probe(argv, tmp_path)
    if argv is None:
        assert out["frozen"] == 0
    else:
        assert out["code"] in (0, 3)
        assert out["frozen"] >= 10_000


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    for _ in range(3):
        assert main(["sensitivity", "--omega", "1.0", "--theta", "0.5",
                     "--delta-rabi", "0.01",
                     "--output", str(tmp_path / "out.csv")]) == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("record", [
    SpinOperatorSet, EigenSystem, DerivedScales, AxisSpec, SweepConfig,
    ModeSet, SpectrumBranch, QuasiSpectrum, CrossingReport, EvolutionTrace,
    GeometricPhaseSet, ResonanceSolution,
], ids=lambda record: record.__name__)
def test_records_refuse_assignment(record):
    # a named tuple's fields are read-only and it has no instance dict
    rec = record._make(range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert tuple(rec) == tuple(range(len(record._fields)))
