"""Export hygiene: ``__all__`` is real, and README examples import cleanly.

Three guarantees:

* every name in the ``__all__`` of the public packages (``repro``,
  ``repro.phy``, ``repro.core``, ``repro.link``, ``repro.mac``) actually
  resolves, and the list is sorted-set clean (no duplicates);
* every ``import``/``from ... import`` statement appearing in a README code
  fence executes — so the documented examples cannot rot silently — and
  every symbol a README example pulls from ``repro`` is importable from the
  package root;
* ``import repro`` loads no scipy module (cold start), and ``repro.core``
  loads nothing from the layers above it.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def test_import_repro_loads_no_scipy():
    """scipy is imported inside the few functions that use it, so a fresh
    interpreter's ``import repro`` pays only for numpy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, repro; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_core_loads_no_higher_layer():
    """``repro.core`` is the bottom layer: importing it (without the package
    root, which re-exports every layer) loads no ``repro.phy``,
    ``repro.link`` or ``repro.experiments`` module."""
    code = (
        "import sys, types\n"
        "root = types.ModuleType('repro')\n"
        f"root.__path__ = [{str(SRC / 'repro')!r}]\n"
        "sys.modules['repro'] = root\n"
        "import repro.core\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.phy', 'repro.link', 'repro.experiments'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

PUBLIC_PACKAGES = (
    "repro",
    "repro.phy",
    "repro.core",
    "repro.link",
    "repro.mac",
    "repro.serve",
    "repro.net",
    "repro.obs",
    "repro.netcode",
)


@pytest.mark.parametrize("package", PUBLIC_PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} must declare __all__"
    assert len(exported) == len(set(exported)), f"duplicate names in {package}.__all__"
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing name {name!r}"


def _readme_code_blocks() -> list[str]:
    """The contents of the README's fenced code blocks (fence state machine)."""
    blocks: list[str] = []
    current: list[str] | None = None
    for line in README.read_text().splitlines():
        if line.strip().startswith("```"):
            if current is None:
                current = []
            else:
                blocks.append("\n".join(current))
                current = None
        elif current is not None:
            current.append(line)
    return blocks


def _readme_import_statements() -> list[str]:
    """Every import statement inside the README's fenced code blocks."""
    statements: list[str] = []
    for block in _readme_code_blocks():
        block_lines = block.splitlines()
        index = 0
        while index < len(block_lines):
            line = block_lines[index].strip()
            if line.startswith(("import ", "from ")) and "repro" in line:
                statement = block_lines[index].rstrip()
                # Multi-line parenthesised imports: consume to the ")".
                while "(" in statement and ")" not in statement:
                    index += 1
                    statement += "\n" + block_lines[index].rstrip()
                statements.append(statement)
            index += 1
    return statements


def test_readme_has_import_examples():
    assert _readme_import_statements(), "README should show importable examples"


@pytest.mark.parametrize("statement", _readme_import_statements())
def test_readme_imports_execute(statement):
    exec(compile(statement, "<README>", "exec"), {})


def test_readme_package_root_symbols_are_exported():
    """Symbols README examples pull from the bare ``repro`` root are in __all__."""
    import repro

    root_imports = [
        s for s in _readme_import_statements() if s.lstrip().startswith("from repro import")
    ]
    for statement in root_imports:
        names = re.sub(r"from repro import|\(|\)", " ", statement)
        for name in re.split(r"[,\s]+", names):
            if name:
                assert name in repro.__all__, f"README uses repro.{name} (not in __all__)"
