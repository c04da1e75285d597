"""Every console script declared in pyproject.toml must resolve.

A script whose module was deleted or renamed still installs, and only
fails when someone runs it; importing each ``module:attr`` here catches
that at test time.  The table is read with a small line parser because
``tomllib`` arrived in Python 3.11 and the package supports 3.10.
"""

import importlib
import re
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_ENTRY = re.compile(r'^([A-Za-z0-9_.-]+)\s*=\s*"([\w.]+):([\w.]+)"\s*$')


def _scripts() -> dict[str, tuple[str, str]]:
    """``[project.scripts]`` as ``name -> (module, attribute)``."""
    scripts: dict[str, tuple[str, str]] = {}
    in_table = False
    for raw in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
            continue
        if not in_table or not line:
            continue
        match = _ENTRY.match(line)
        assert match, f"unparseable [project.scripts] line: {raw!r}"
        name, module, attr = match.groups()
        scripts[name] = (module, attr)
    return scripts


SCRIPTS = _scripts()


def test_scripts_table_is_nonempty():
    assert SCRIPTS


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_target_imports_and_is_callable(name):
    module_name, attr_path = SCRIPTS[name]
    target = importlib.import_module(module_name)
    for part in attr_path.split("."):
        target = getattr(target, part)
    assert callable(target), f"{name} -> {module_name}:{attr_path}"
