"""The README's library tour names only what the package provides, and
its command-line examples run and print the tables committed under
`tests/data`."""

import importlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from rotorspin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).resolve().parent / "data"


def tour_rows():
    """(modules, names) of each row of the README "Library tour" table:
    the backticked module paths of its first cell and the backticked
    names of its second."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("| `") or len(cells) != 2:
            continue
        rows.append((re.findall(r"`([^`]+)`", cells[0]),
                     re.findall(r"`([^`]+)`", cells[1])))
    return rows


def test_every_tour_name_resolves_in_its_row_module():
    rows = tour_rows()
    assert len(rows) >= 7
    missing = []
    for modules, names in rows:
        mods = [importlib.import_module(m) for m in modules]
        for name in names:
            assert name.isidentifier(), f"{name!r} is not a plain name"
            if not any(hasattr(mod, name) for mod in mods):
                missing.append(f"{name} in {', '.join(modules)}")
    assert not missing, missing


def example_commands():
    """The `rotorspin` commands of the README "Command line" example
    block, each as an argv without the program name."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.startswith("rotorspin ")]
    return [shlex.split(ln)[1:] for ln in lines]


COMMANDS = example_commands()


def test_example_block_holds_every_command():
    assert [argv[0] for argv in COMMANDS] == [
        "spectrum", "evolve", "geomphase", "resonance", "sensitivity",
        "selftest"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[a[0] for a in COMMANDS])
def test_example_command_runs(argv, tmp_path, capsys):
    argv = list(argv)
    if "--output" in argv:
        at = argv.index("--output") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    if "--output" in argv:
        assert Path(argv[argv.index("--output") + 1]).stat().st_size > 0


#: The tables of the README examples, as the package wrote them before
#: its sweep batch was held to a stated ulp tolerance instead of bit for
#: bit, under the `--output` name or, without one, the command's name. The
#: copy of the `evolve` table keeps every RABI_STRIDE-th row of its 20000.
RABI_COPY, RABI_STRIDE = "rabi_every_500th.csv", 500
#: A value may move within the CSV's 13 significant digits: by 1e-12 of
#: itself or of the largest magnitude in its column, whichever is more, so
#: that cells at the rounding level of their column (a population of
#: 1e-33) are not compared digit by digit. A residual is a distance in
#: omega and is compared on omega's scale.
VALUE_RTOL = 1e-12
SCALE_COLUMN = {"residual": "omega"}
#: provenance values at the rounding level, checked against their bounds
#: instead of digit by digit: the edge weight against the bound the table
#: states, the deviation of the state norm from 1 against 1e-12
ROUNDING_LEVEL = {"harmonics_edge_weight_max", "norm_deviation_max"}


def split_table(text):
    """The provenance lines, the header line and the (rows, columns)
    values of a CSV table."""
    lines = text.splitlines(keepends=True)
    provenance = [ln for ln in lines if ln.startswith("# ")]
    header, *rows = lines[len(provenance):]
    return provenance, header, np.array([[float(c) for c in ln.split(",")]
                                         for ln in rows])


def committed_copy(argv):
    if "--output" in argv:
        name = argv[argv.index("--output") + 1]
        return DATA / (RABI_COPY if name == "rabi.csv" else name)
    return DATA / f"{argv[0]}.csv"


TABLES = [argv for argv in COMMANDS if argv[0] != "selftest"]


@pytest.mark.parametrize("argv", TABLES, ids=[a[0] for a in TABLES])
def test_example_table_equals_its_committed_copy(argv, tmp_path, capsys):
    copy = committed_copy(argv)
    argv = list(argv)
    if "--output" in argv:
        at = argv.index("--output") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0
    out = capsys.readouterr().out
    text = Path(argv[at]).read_text() if "--output" in argv else out
    provenance, header, values = split_table(text)
    want_provenance, want_header, want = split_table(copy.read_text())
    if copy.name == RABI_COPY:
        values = values[::RABI_STRIDE]

    assert header == want_header
    assert len(provenance) == len(want_provenance)
    stated = dict(ln[2:].rstrip("\n").split("=", 1) for ln in provenance)
    for line, want_line in zip(provenance, want_provenance):
        key, value = line[2:].rstrip("\n").split("=", 1)
        if key not in ROUNDING_LEVEL:
            assert line == want_line
            continue
        assert want_line.startswith(f"# {key}=")
        assert float(value) <= (1e-12 if key == "norm_deviation_max" else
                                float(stated["harmonics_edge_weight_bound"]))

    assert values.shape == want.shape
    names = want_header.rstrip("\n").split(",")
    column_scale = np.abs(want).max(axis=0)
    scale = np.array([column_scale[names.index(SCALE_COLUMN.get(name, name))]
                      for name in names])
    tol = VALUE_RTOL * np.maximum(np.abs(want), scale)
    bad = np.argwhere(np.abs(values - want) > tol)
    assert not bad.size, [(names[j], want[i, j], values[i, j]) for i, j in bad[:5]]
