"""Every ``src/`` module is reachable from an entry point.

A module that only its own tests import is read, reviewed and counted by
the line ratchet, yet no run of the system executes it.  The entry points
are the CLI, the two fleet drivers, and every script under ``benchmarks/``
and ``examples/``; a module is reachable when one of them imports it,
directly or through modules they import.

A name imported through a package ``__init__`` counts as an import of the
module that defines it, but an ``__init__``'s own re-exports reach nothing:
otherwise importing any submodule would pull in its whole package.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.core.system", "repro.core.sharded")
ENTRY_DIRS = ("benchmarks", "examples")


def _dotted(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_dotted(path): path for path in SRC.rglob("*.py")}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(path: Path, here: str | None):
    """``(module, name)`` per imported name; ``name`` is None for ``import m``."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and here is not None:
                package = here if here in PACKAGES else here.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = f"{package}.{base}" if node.module else package
            for alias in node.names:
                yield base, alias.name


def _resolve(module: str, name: str | None) -> str | None:
    """The ``src/`` module an import reaches, or None for anything else."""
    if name is not None and f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if name is not None and module in PACKAGES:
        return _exports(module).get(name)
    return module if module in MODULES else None


@cache
def _exports(package: str) -> dict[str, str]:
    """Name -> defining module, for each name a package ``__init__`` imports."""
    found = {}
    for module, name in _imports(MODULES[package], package):
        target = _resolve(module, name) if name is not None else None
        if target is not None:
            found[name] = target
    return found


def _reached() -> set[str]:
    reached: set[str] = set()
    frontier = [(MODULES[name], name) for name in ENTRY_MODULES]
    for directory in ENTRY_DIRS:
        frontier += [(path, None) for path in (ROOT / directory).rglob("*.py")]
    reached.update(ENTRY_MODULES)
    while frontier:
        path, here = frontier.pop()
        for module, name in _imports(path, here):
            target = _resolve(module, name)
            if target is None or target in reached:
                continue
            reached.add(target)
            if target not in PACKAGES:
                frontier.append((MODULES[target], target))
    return reached


def test_every_src_module_is_reachable_from_an_entry_point():
    reached = _reached()
    unreached = sorted(
        name
        for name, path in MODULES.items()
        if not path.name.startswith("__") and name not in reached
    )
    assert unreached == [], (
        f"no entry point imports {unreached}: delete them, or import them "
        f"from {ENTRY_MODULES}, benchmarks/ or examples/"
    )
