"""Start-up and exit cost guard: no run loads scipy, neither the import of
the package, the closed-form and Floquet-spectrum runs, nor the runs that
seek a root or a minimum (resonance, avoided crossings and the Rabi fit),
which use the package's own Brent solvers. No run loads argparse or
`dataclasses` either, since `dataclasses` compiles the methods of each
class at every start: the package's records are named tuples.
A CLI process ends through `os._exit` once its output is flushed, so the
interpreter's finalization and exit handlers do not run; its exit codes,
messages and output are those of `main` in process, which registers no
exit handler and leaves the collector as it is.

Each case runs in a fresh interpreter, since this process already holds
scipy through the other test modules.
"""

import atexit
import gc
import json
import os
import subprocess
import sys

import pytest

from rotorspin.cli import main
from rotorspin.config import AxisSpec, SweepConfig
from rotorspin.dynamics import EvolutionTrace
from rotorspin.errors import InvalidArgumentError
from rotorspin.floquet import CrossingReport, ModeSet, QuasiSpectrum, SpectrumBranch
from rotorspin.geomphase import GeometricPhaseSet
from rotorspin.model import DerivedScales, RotorParams
from rotorspin.runner import Dataset
from rotorspin.sensing import ResonanceSolution
from rotorspin.spin_algebra import EigenSystem, SpinOperatorSet

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# prints as JSON the CLI exit code (or null), the loaded scipy modules,
# whether argparse and dataclasses are loaded, the package's dataclasses,
# and the exit handlers registered by the import of the package and the run
_PROBE = """
import atexit, json, sys
argv = json.loads(sys.argv[1])
handlers = atexit._ncallbacks()
out = {"code": None}
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
           dataclasses_module="dataclasses" in sys.modules,
           dataclasses=sorted(cls.__name__ for cls in classes
                              if "__dataclass_fields__" in vars(cls)),
           handlers=atexit._ncallbacks() - handlers)
print(json.dumps(out))
"""

# every record is a named tuple
DATACLASSES = []

_SENSITIVITY = ["sensitivity", "--omega", "1.0", "--theta", "0.5",
                "--delta-rabi", "0.01"]


def probe(argv, tmp_path):
    if argv is not None and argv[0] != "selftest":
        argv = argv + ["--output", str(tmp_path / "out.csv")]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["argparse"] is False
    assert out["dataclasses_module"] is False
    assert out["dataclasses"] == DATACLASSES
    assert out["handlers"] == 0
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
    _SENSITIVITY,
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


def cli_process(argv, prelude=""):
    """`python -m rotorspin.cli ARGV` in a fresh interpreter, with the CLI
    module run as __main__ by runpy after `prelude`."""
    script = (f"import runpy, sys\n{prelude}\n"
              f"sys.argv = ['rotorspin', *{argv!r}]\n"
              "runpy.run_module('rotorspin.cli', run_name='__main__', "
              "alter_sys=True)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env={**env, "PYTHONPATH": SRC}, timeout=120)


@pytest.mark.parametrize("argv, code", [
    (_SENSITIVITY, 0),
    (["spectrum", "--theta", "4"], 2),
    (["spectrum", "--axis", "omega:0.1:0.2:100000000000000"], 3),
], ids=["exit-0", "exit-2", "exit-3"])
def test_cli_process_ends_as_main_returns(argv, code, tmp_path, capsys):
    # with the code, output and one-line message of `main` in process; an
    # exit handler registered before the CLI module runs, which a normal
    # interpreter exit would run, does not run
    argv = argv + ["--output", str(tmp_path / "out.csv")]
    assert main(argv) == code
    want = capsys.readouterr()
    proc = cli_process(argv, prelude="import atexit\n"
                       "atexit.register(print, 'exit handler ran')")
    assert proc.returncode == code
    assert b"exit handler ran" not in proc.stdout
    assert proc.stdout.decode() == want.out
    assert proc.stderr.decode() == want.err
    assert want.err.count("\n") == (code != 0)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--theta", "0.3", "--delta", "0.3", "--axis", "omega:0.5:0.7:5"],
    ["evolve", "--omega", "1.0", "--theta", "0.3", "--psi0", "0", "--t-end", "60"],
], ids=["spectrum", "evolve"])
def test_cli_process_pipes_the_file_body(argv, tmp_path):
    # nothing written to stdout is lost when the process ends unfinalized,
    # for the 20000 rows of an evolve trace too
    out = tmp_path / "t.csv"
    assert main(argv + ["--output", str(out)]) == 0
    body = b"".join(line for line in out.read_bytes().splitlines(True)
                    if not line.startswith(b"#"))
    proc = cli_process(argv)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == body
    assert body.count(b"\n") == (20001 if argv[0] == "evolve" else 6)


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    frozen, handlers = gc.get_freeze_count(), atexit._ncallbacks()
    for _ in range(3):
        assert main(_SENSITIVITY + ["--output", str(tmp_path / "out.csv")]) == 0
    assert gc.get_freeze_count() == frozen
    assert atexit._ncallbacks() == handlers


@pytest.mark.parametrize("record", [
    SpinOperatorSet, EigenSystem, DerivedScales, AxisSpec, SweepConfig,
    ModeSet, SpectrumBranch, QuasiSpectrum, CrossingReport, EvolutionTrace,
    GeometricPhaseSet, ResonanceSolution, RotorParams, Dataset,
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


def test_rotor_params_are_validated_and_equal_by_value():
    p = RotorParams(omega=0.2, theta=0.1, delta=0.3)
    with pytest.raises(InvalidArgumentError, match="theta"):
        p.with_(theta=-0.1)
    with pytest.raises(InvalidArgumentError, match="finite"):
        p.with_(omega=float("nan"))
    with pytest.raises(InvalidArgumentError, match="d must"):
        RotorParams(0.2, 0.1, d=0.0)
    with pytest.raises(InvalidArgumentError, match="theta"):
        p._replace(theta=4.0)
    q = p.with_(theta=0.5).with_(theta=0.1)
    assert q is not p and q == p and hash(q) == hash(p)
    assert q == RotorParams(0.2, 0.1, 1.0, 0.0, 0.3)
    assert len({p, q, p.with_(phi0=1.0)}) == 2
