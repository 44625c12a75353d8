"""The README's library tour names only what the package provides."""

import importlib
import re
from pathlib import Path

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
