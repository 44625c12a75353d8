"""CLI fuzz test: whatever the arguments and config text, `main` ends with
exit code 0, 2 or 3 and never raises; on exit 0 it writes nothing to
stderr and a table it prints holds only finite cells, and on exit 2 or 3
it writes exactly one line to stderr. Under the suite's warning filter a
numpy warning that leaks out fails the draw as well.

Only the cheap modes are drawn (`spectrum` and `geomphase` with or
without a field, `sensitivity`, `evolve` over a short time, `resonance` at
theta <= 0.03 over at most 3 points), and sweeps have at most 5 points or
at least 1e14, which no array can hold, so a draw runs in tens of
milliseconds at most. omega, delta and physical_d also take the extreme
magnitudes 5e-324, 1e-300, 1e52 and 1e308, and d takes 5e-324 and
1e-300; `evolve` may leave out t_end, which then defaults to 2.5 Rabi
periods, and its delta may equal +-d. A draw is valid, or spoils one
key with an out-of-range, non-numeric or non-finite value, a malformed
axis, a junk config line, a config file that is not UTF-8 or an unusable
path.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotorspin.cli import main


def _numbers(lo: float, hi: float):
    return st.floats(lo, hi).map(repr)


# magnitudes at the ends of the float64 range and past the zero-field
# cubic's (|omega|**6 overflows from about 2.4e51)
_TINY_AND_HUGE = ["5e-324", "1e-300", "1e52", "1e308"]
_EXTREMES = st.sampled_from([sign + m for m in _TINY_AND_HUGE
                             for sign in ("", "-")])
_OMEGA = _numbers(-3.0, -0.05) | _numbers(0.05, 3.0) | _EXTREMES
_OPTIONAL = st.none()
_NON_NUMERIC = ["nan", "inf", "-inf", "1e400", "abc", "", "0x10", "1,5"]


def _axes(names, theta_max=math.pi, max_points=5):
    @st.composite
    def axis(draw):
        name = draw(st.sampled_from(names))
        lo, hi = (0.0, theta_max) if name == "theta" else (-3.0, 3.0)
        a, b = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2,
                                    unique=True)))
        points = draw(st.integers(2, max_points) | st.integers(10**14, 10**30))
        return f"{name}:{a!r}:{b!r}:{points}"
    return axis()


_BAD_AXES = ["omega:1:0:3", "omega:0:1", "omega:0:1:3:4", "spin:0:1:3",
             "omega:0:1:1", "omega:0:1:-2", "omega:a:1:3", "omega:0:1:x",
             "omega:0:nan:3", "omega:-inf:1:3", "theta:-1:1:3", "theta:0:4:3",
             "omega:0:1:2.5", ""]

# key -> (valid values, spoiled values); a valid None leaves the key out
_COMMON = {
    "theta": (_OPTIONAL | _numbers(0.0, math.pi), ["4.0", "-0.5", *_NON_NUMERIC]),
    "d": (_OPTIONAL | _numbers(0.1, 3.0) | st.sampled_from(["5e-324", "1e-300"]),
          ["0", "-1", *_NON_NUMERIC]),
    "phi0": (_OPTIONAL | _numbers(-7.0, 7.0), _NON_NUMERIC),
    "physical_d": (_OPTIONAL | _numbers(0.1, 5.0) | st.sampled_from(_TINY_AND_HUGE),
                   ["0", "-2.87", *_NON_NUMERIC,
                    *(f"-{m}" for m in _TINY_AND_HUGE)]),
}
_ZERO_FIELD = {
    "omega": (_OPTIONAL | _numbers(-3.0, 3.0) | _EXTREMES, _NON_NUMERIC),
    "delta": (_OPTIONAL | st.just("0"), _NON_NUMERIC),
    "axis": (_axes(("omega", "theta")), _BAD_AXES + ["delta:0:1:3x"]),
}
# omega sweeps over [-3, 3] may reach or cross omega = 0
_FIELD = {
    "omega": (_OPTIONAL | _numbers(-3.0, 3.0) | _EXTREMES, _NON_NUMERIC),
    "delta": (_numbers(-2.0, 2.0).filter(lambda v: float(v) != 0.0)
              | _EXTREMES, _NON_NUMERIC),
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
        "omega": (_OPTIONAL | _numbers(-3.0, 3.0) | _EXTREMES, _NON_NUMERIC),
        # "d" and "-d" stand for +-d, see _calls
        "delta": (_OPTIONAL | _numbers(-1.0, 1.0) | _EXTREMES
                  | st.sampled_from(["d", "-d"]), _NON_NUMERIC),
        "t_end": (_OPTIONAL | _numbers(0.1, 5.0), ["0", "-1", *_NON_NUMERIC]),
        "psi0": (_OPTIONAL | st.sampled_from(["+1", "0", "-1"]), ["2", "", "up"]),
    }),
    ("resonance", {
        "theta": (st.just("0") | _numbers(0.0, 0.03), ["4.0", *_NON_NUMERIC]),
        "omega": (_OMEGA, ["0", *_NON_NUMERIC]),
        "branch": (_OPTIONAL | st.sampled_from(["plus", "minus"]), ["up", ""]),
        "axis": (_OPTIONAL | _axes(("theta",), theta_max=0.03, max_points=3),
                 ["omega:0.1:0.2:3", "delta:0:1:3", *_BAD_AXES]),
    }),
]
_JUNK_LINES = ["just words", "bogus=1", "=3", "mode=evolve", "omega"]
# bytes that no UTF-8 text holds: a UTF-16 byte-order mark, a lone
# continuation byte, a truncated sequence
_NOT_UTF8 = [b"\xff\xfe", b"\x80", b"\xe2\x82"]


@st.composite
def _calls(draw):
    """(argv without --config and --output, config bytes or None, output
    target or None, whether the config file is missing)."""
    mode, kind = draw(st.sampled_from(_KINDS))
    keys = {**_COMMON, **kind}
    spoil = draw(st.none() | st.sampled_from(
        sorted(keys) + ["config", "junk", "encoding"]))
    values = {}
    for key, (valid, spoiled) in keys.items():
        value = draw(st.sampled_from(spoiled) if key == spoil else valid)
        if value is not None:
            values[key] = value
    if values.get("delta") in ("d", "-d"):
        # the drawn d, or the default 1 where d is left out or spoiled
        d = values.get("d", "1.0") if spoil != "d" else "1.0"
        values["delta"] = values["delta"].replace("d", d)
    in_file = {k for k in values if draw(st.booleans())}
    argv = [mode]
    for key, value in values.items():
        if key not in in_file:
            argv += [f"--{key.replace('_', '-')}", value]
    config = None
    if in_file or spoil in ("config", "junk", "encoding"):
        lines = [f"{k}={values[k]}" for k in sorted(in_file)]
        if spoil == "junk":
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(_JUNK_LINES)))
        config = ("\n".join(lines) + "\n").encode()
        if spoil == "encoding":
            at = draw(st.integers(0, len(config)))
            config = (config[:at] + draw(st.sampled_from(_NOT_UTF8))
                      + config[at:])
    output = draw(st.sampled_from([None, "file", "missing", "directory"]))
    return argv, config, output, spoil == "config"


def _argv(line: str):
    return line.split(), None, None, False


# the line that an example below writes to stderr, where it is pinned
_STDERR = {
    "spectrum --axis omega:0.0:1.0:1152921504606846912":
        "numeric failure: out of memory: 1.152921504606847e+18 axis points "
        "exceed the 1152921504606846975 float64 values an array can index\n",
    "evolve --omega 1e300 --theta 0 --delta 0.5 --t-end 1e13":
        "numeric failure: the drive phase |omega| t_end overflows at "
        "|omega| = 1e+300, t_end = 1e+13\n",
}


@settings(max_examples=120, deadline=None)
@given(call=_calls())
# a default t_end from scales that divide by d^2 - delta^2, and a period,
# a one-period phase or a sampling bound past the float64 range
@example(call=_argv("evolve --omega 0.2 --theta 0.3 --delta 1"))
@example(call=_argv("evolve --omega 0.2 --theta 0.3 --delta -1"))
@example(call=_argv("evolve --omega 1e-310 --theta 0.3 --d 1e-300"))
@example(call=_argv("geomphase --d 5e-324 --omega -5e-324 --axis theta:0:0.01:3"))
@example(call=_argv("geomphase --d 5e-324 --omega -5e-324 --theta 0.01 "
                    "--delta 1e300 --axis delta:5e-324:1:2"))
@example(call=_argv("evolve --d 5e-324 --phi0 5e-324 --t-end 10"))
# a point count that rounds up to 2**60 as a float
@example(call=_argv("spectrum --axis omega:0.0:1.0:1152921504606846912"))
# a drive phase omega t past the float64 range at the last sample
@example(call=_argv("evolve --omega 1e300 --theta 0 --delta 0.5 --t-end 1e13"))
def test_cli_exits_0_2_or_3(call):
    argv, config_bytes, output, config_missing = call
    pinned = _STDERR.get(" ".join(argv))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if config_bytes is not None:
            config = root / ("absent.cfg" if config_missing else "run.cfg")
            if not config_missing:
                config.write_bytes(config_bytes)
            argv = argv + ["--config", str(config)]
        (root / "directory").mkdir()
        targets = {"file": root / "out.csv", "missing": root / "no" / "out.csv",
                   "directory": root / "directory"}
        if output is not None:
            argv = argv + ["--output", str(targets[output])]
        stdout, stderr = io.StringIO(), io.StringIO()
        # every flag is known and no value starts with two dashes, so no
        # draw is a usage error, which would raise SystemExit
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2, 3), argv
    err = stderr.getvalue()
    if code == 0:
        assert err == "", argv
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    if pinned is not None:
        assert err == pinned, argv
    if code == 0 and output is None:
        cells = [c for line in stdout.getvalue().splitlines()[1:]
                 for c in line.split(",")]
        assert all(math.isfinite(float(c)) for c in cells), argv
