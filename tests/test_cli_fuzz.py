"""CLI fuzz test: whatever the arguments and config text, `main` ends with
exit code 0, 2 or 3 and never raises.

Only the cheap modes are drawn (`spectrum` and `geomphase` with or
without a field, `sensitivity`, `evolve` over a short time, `resonance` at
theta = 0), and sweeps have at most 5 points, so a draw runs in
milliseconds. A draw is valid, or spoils one key with an out-of-range,
non-numeric or non-finite value, a malformed axis, a junk config line or
an unusable path.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rotorspin.cli import main


def _numbers(lo: float, hi: float):
    return st.floats(lo, hi).map(repr)


_OMEGA = _numbers(-3.0, -0.05) | _numbers(0.05, 3.0)
_OPTIONAL = st.none()
_NON_NUMERIC = ["nan", "inf", "-inf", "1e400", "abc", "", "0x10", "1,5"]


def _axes(names):
    @st.composite
    def axis(draw):
        name = draw(st.sampled_from(names))
        lo, hi = (0.0, math.pi) if name == "theta" else (-3.0, 3.0)
        a, b = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2,
                                    unique=True)))
        return f"{name}:{a!r}:{b!r}:{draw(st.integers(2, 5))}"
    return axis()


_BAD_AXES = ["omega:1:0:3", "omega:0:1", "omega:0:1:3:4", "spin:0:1:3",
             "omega:0:1:1", "omega:0:1:-2", "omega:a:1:3", "omega:0:1:x",
             "omega:0:nan:3", "omega:-inf:1:3", "theta:-1:1:3", "theta:0:4:3",
             "omega:0:1:2.5", ""]

# key -> (valid values, spoiled values); a valid None leaves the key out
_COMMON = {
    "theta": (_OPTIONAL | _numbers(0.0, math.pi), ["4.0", "-0.5", *_NON_NUMERIC]),
    "d": (_OPTIONAL | _numbers(0.1, 3.0), ["0", "-1", *_NON_NUMERIC]),
    "phi0": (_OPTIONAL | _numbers(-7.0, 7.0), _NON_NUMERIC),
    "physical_d": (_OPTIONAL | _numbers(0.1, 5.0), ["0", "-2.87", *_NON_NUMERIC]),
    "n_harmonics": (_OPTIONAL | st.sampled_from(["auto", "4"]),
                    ["0", "-3", "many", "2.5"]),
}
_ZERO_FIELD = {
    "omega": (_OPTIONAL | _numbers(-3.0, 3.0), _NON_NUMERIC),
    "delta": (_OPTIONAL | st.just("0"), _NON_NUMERIC),
    "axis": (_axes(("omega", "theta")), _BAD_AXES + ["delta:0:1:3x"]),
}
# omega sweeps over [-3, 3] may reach or cross omega = 0
_FIELD = {
    "omega": (_OPTIONAL | _numbers(-3.0, 3.0), _NON_NUMERIC),
    "delta": (_numbers(-2.0, 2.0).filter(lambda v: float(v) != 0.0),
              _NON_NUMERIC),
    "axis": (_axes(("omega", "theta", "delta")), _BAD_AXES),
}
# (subcommand, keys) of each kind of call
_KINDS = [
    ("spectrum", _ZERO_FIELD),
    ("geomphase", _ZERO_FIELD),
    ("spectrum", _FIELD),
    ("geomphase", _FIELD),
    ("sensitivity", {
        "omega": (_OMEGA, ["0", *_NON_NUMERIC]),
        "delta_rabi": (_numbers(0.0, 0.1), ["-0.01", *_NON_NUMERIC]),
        "axis": (_OPTIONAL | _axes(("omega", "theta")),
                 _BAD_AXES + ["delta:0:1:3"]),
    }),
    ("evolve", {
        "omega": (_OPTIONAL | _numbers(-3.0, 3.0), _NON_NUMERIC),
        "delta": (_OPTIONAL | _numbers(-1.0, 1.0), _NON_NUMERIC),
        "t_end": (_numbers(0.1, 5.0), ["0", "-1", *_NON_NUMERIC]),
        "steps_per_period": (st.sampled_from(["256", "300"]),
                             ["100", "-256", "1.5", "x", "1e3"]),
        "psi0": (_OPTIONAL | st.sampled_from(["+1", "0", "-1"]), ["2", "", "up"]),
    }),
    ("resonance", {
        "theta": (st.just("0"), ["4.0", *_NON_NUMERIC]),
        "omega": (_OMEGA, ["0", *_NON_NUMERIC]),
        "branch": (_OPTIONAL | st.sampled_from(["plus", "minus"]), ["up", ""]),
        "axis": (_OPTIONAL, ["omega:0.1:0.2:3", "delta:0:1:3", *_BAD_AXES]),
    }),
]
_JUNK_LINES = ["just words", "bogus=1", "=3", "mode=evolve", "omega"]


@st.composite
def _calls(draw):
    """(argv without --config and --output, config text or None, output
    target or None, whether the config file is missing)."""
    mode, kind = draw(st.sampled_from(_KINDS))
    keys = {**_COMMON, **kind}
    spoil = draw(st.none() | st.sampled_from(
        sorted(keys) + ["config", "junk"]))
    values = {}
    for key, (valid, spoiled) in keys.items():
        value = draw(st.sampled_from(spoiled) if key == spoil else valid)
        if value is not None:
            values[key] = value
    in_file = {k for k in values if draw(st.booleans())}
    argv = [mode]
    for key, value in values.items():
        if key not in in_file:
            argv += [f"--{key.replace('_', '-')}", value]
    text = None
    if in_file or spoil in ("config", "junk"):
        lines = [f"{k}={values[k]}" for k in sorted(in_file)]
        if spoil == "junk":
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(_JUNK_LINES)))
        text = "\n".join(lines) + "\n"
    output = draw(st.sampled_from([None, "file", "missing", "directory"]))
    return argv, text, output, spoil == "config"


@settings(max_examples=120, deadline=None)
@given(call=_calls())
def test_cli_exits_0_2_or_3(call):
    argv, text, output, config_missing = call
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if text is not None:
            config = root / ("absent.cfg" if config_missing else "run.cfg")
            if not config_missing:
                config.write_text(text)
            argv = argv + ["--config", str(config)]
        (root / "directory").mkdir()
        targets = {"file": root / "out.csv", "missing": root / "no" / "out.csv",
                   "directory": root / "directory"}
        if output is not None:
            argv = argv + ["--output", str(targets[output])]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    assert code in (0, 2, 3), argv
