"""Every ``src/`` module, and every def in it, is reachable from an entry
point.

A module that only its own tests import is read, reviewed and counted by
the line ratchet, yet no run of the system executes it.  The entry points
are the CLI, the two fleet drivers, and every script under ``benchmarks/``
and ``examples/``; a module is reachable when one of them imports it,
directly or through modules they import.

A name imported through a package ``__init__`` counts as an import of the
module that defines it, but an ``__init__``'s own re-exports reach nothing:
otherwise importing any submodule would pull in its whole package.

Functions and methods get the same treatment one level down, by name (see
the second half of this file): a def that only ``tests/`` name is dead
code with a test attached.
"""

from __future__ import annotations

import ast
import re
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


# -- functions -----------------------------------------------------------------
#
# A name graph over the same roots: a def is reached when a reached body names
# it, by attribute, by plain name or by an identifier-shaped string (the
# ``getattr`` form).  The roots are every name in benchmarks/ and examples/,
# the e2e tracer's target strings, ``repro.cli.main``, the module-level code
# of every module (class bodies, decorators, defaults, ``__all__``) and the
# dunder methods.  Names, not types: a def shares the fate of every def of
# its name, so the check misses dead code that shares a live name.

IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
ENTRY_DEFS = ("repro.cli:main",)
# The e2e tracer patches these through ``vars(owner)[attr]``: its target
# strings name defs the workloads time.
TRACER = ROOT / "benchmarks" / "e2e" / "tracing.py"
TRACER_TABLES = ("SPAN_MAP", "BYTES_HOOK")

# Defs no entry point reaches that stay anyway.  Each reason is one of these.
REFERENCE = "the reference a test compares an engine against"
PROTECTED = (
    "a protected harness names it: benchmarks/e2e/ or a pinned fingerprint "
    "test, neither of which a change may edit"
)
TOPOLOGY_CHANGE = (
    "the topology change that drives the controller's pinglist "
    "regeneration (paper section 3.3) in the tests"
)
SAFETY = "safety code: values stored to recover from a fault, and their reader"
REASONS = (REFERENCE, PROTECTED, TOPOLOGY_CHANGE, SAFETY)
ALLOWLIST = {
    # The route table is checked hop for hop against a walk from scratch.
    "repro.netsim.routing:Router.uncached_path": REFERENCE,
    "repro.netsim.routing:Router._dst_tor": REFERENCE,
    "repro.netsim.routing:_pick": REFERENCE,
    "repro.netsim.routing:Router.ecmp_bucket": REFERENCE,
    "repro.netsim.topology:ClosTopology.add_podset": TOPOLOGY_CHANGE,
    "repro.core.system:PingmeshSystem.add_podset": TOPOLOGY_CHANGE,
    # tests/integration/test_broker_fingerprint.py builds its drop model
    # from the fabric's workload profile.
    "repro.netsim.fabric:Fabric.profile_of": PROTECTED,
    # The agent's local log is the on-host copy of its results for when
    # uploads fail (paper section 3.4); this renders it for a reader.
    "repro.core.agent.uploader:ResultUploader.local_log_lines": SAFETY,
}


def _named(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if IDENTIFIER.match(sub.value):
                names.add(sub.value)
    return names


def _defs(module: str, tree: ast.Module):
    """``(id, def node)`` per function and method, and the names the module's
    own code (not a def body) uses: class bodies, decorators, defaults."""
    defs, names = [], set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{module}:{prefix}{child.name}", child))
                defaults = child.args.defaults + child.args.kw_defaults
                for expr in child.decorator_list + [d for d in defaults if d]:
                    names.update(_named(expr))
            elif isinstance(child, ast.ClassDef):
                names.add(child.name)
                for expr in child.decorator_list + child.bases + child.keywords:
                    names.update(_named(expr))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.expr):
                names.update(_named(child))
            else:
                visit(child, prefix)

    visit(tree, "")
    return defs, names


def _tracer_targets() -> set[str]:
    names = set()
    for node in _tree(TRACER).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) in TRACER_TABLES for target in node.targets
        ):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.update(re.split(r"[:.]", sub.value))
    return names


@cache
def _unreached_defs() -> dict[str, ast.AST]:
    defs: dict[str, ast.AST] = {}
    named = _tracer_targets()
    for module, path in MODULES.items():
        found, module_names = _defs(module, _tree(path))
        defs.update(found)
        named |= module_names
    for directory in ENTRY_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            named |= _named(_tree(path))
    reached = set(ENTRY_DEFS)
    frontier = [defs[key] for key in ENTRY_DEFS]
    while True:
        for node in frontier:
            named |= _named(node)
        frontier = []
        for key, node in defs.items():
            name = node.name
            if key not in reached and (
                name in named or (name.startswith("__") and name.endswith("__"))
            ):
                reached.add(key)
                frontier.append(node)
        if not frontier:
            return {key: node for key, node in defs.items() if key not in reached}


def test_every_src_def_is_named_by_a_reached_body():
    unreached = {k: v for k, v in _unreached_defs().items() if k not in ALLOWLIST}
    where = [
        f"{MODULES[key.partition(':')[0]].relative_to(ROOT)}:{node.lineno} {key}"
        for key, node in sorted(unreached.items())
    ]
    assert where == [], (
        f"{len(where)} defs are named only from tests/, or nowhere:\n  "
        + "\n  ".join(where)
        + "\nDelete each, name it from an entry point (benchmarks/, examples/, "
        "the CLI), or add it to ALLOWLIST in this file with one of REASONS."
    )


def test_allowlist_entries_are_unreached_and_give_a_reason():
    unreached = _unreached_defs()
    assert len(ALLOWLIST) <= 20, "an allowlist is for exceptions: delete instead"
    for key, reason in ALLOWLIST.items():
        assert key in unreached, f"{key} is reached or gone: drop it from ALLOWLIST"
        assert reason in REASONS, f"{key}: {reason!r} is not one of REASONS"
