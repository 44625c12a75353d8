"""The README's library tour names only what the package provides, and
its command-line examples run."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from rotorspin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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
