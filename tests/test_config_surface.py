"""Every config field earns its place: some caller sets it.

A field of a config object that no call in ``src/``, ``tests/``,
``benchmarks/`` or ``examples/`` ever passes is a constant in disguise: it
carries a validation branch and plumbing for a value nothing varies.  Make
it a module constant next to the code that reads it instead.

What counts as setting a field named ``f``: a keyword ``f=...`` in a call,
or a string key ``"f"`` in a dict literal (the ``Config(**{"f": ...})``
form).  Two kinds of keyword do not count: one passed to a class defined
in the scanned tree that is not a config object (another class's own
parameter that happens to share the name), and one that forwards the same
name (``f=config.f``, plumbing, not a caller's choice).
"""

import ast
import dataclasses
from pathlib import Path

from repro.broker.admission import AdmissionConfig
from repro.broker.broker import BrokerConfig
from repro.broker.quota import TenantQuota
from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.alerts import SlaThresholds
from repro.core.dsa.pipeline import DsaConfig
from repro.core.system import PingmeshSystemConfig
from repro.resilience import CircuitBreakerConfig
from repro.stream.plane import StreamConfig

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")

CONFIGS = (
    AgentConfig,
    StreamConfig,
    AdmissionConfig,
    BrokerConfig,
    PingmeshSystemConfig,
    DsaConfig,
    GeneratorConfig,
    CircuitBreakerConfig,
    TenantQuota,
    SlaThresholds,
)

# Fields no caller sets that stay anyway, each with its reason.
ALLOWLIST = {
    "StreamConfig.ingest_vip": (
        "deployment setting: the name the ingest replicas sit behind; a "
        "simulated fleet never has two, a real deployment names its own"
    ),
    "PingmeshSystemConfig.n_controller_replicas": (
        "deployment setting: how many controller replicas sit behind the "
        "SLB; chaos drills fail them one by one, whatever the count"
    ),
}

# Summed over CONFIGS.  A change that removes fields lowers it to the new
# count; one that has to add a field raises it and says why.
CONFIG_FIELD_CEILING = 54


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


def _names_set_by_callers() -> set[str]:
    trees = [
        ast.parse(path.read_text())
        for name in SCANNED
        for path in (ROOT / name).rglob("*.py")
    ]
    config_names = {config.__name__ for config in CONFIGS}
    other_classes = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    } - config_names
    names: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if _callee_name(node.func) in other_classes:
                    continue
                names.update(
                    keyword.arg
                    for keyword in node.keywords
                    if keyword.arg is not None
                    and not (
                        isinstance(keyword.value, ast.Attribute)
                        and keyword.value.attr == keyword.arg
                    )
                )
            elif isinstance(node, ast.Dict):
                names.update(
                    key.value
                    for key in node.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
    return names


def _fields() -> list[str]:
    return [
        f"{config.__name__}.{field.name}"
        for config in CONFIGS
        for field in dataclasses.fields(config)
    ]


def test_every_config_field_is_set_by_some_caller():
    set_names = _names_set_by_callers()
    unset = [
        qualified
        for qualified in _fields()
        if qualified.partition(".")[2] not in set_names and qualified not in ALLOWLIST
    ]
    assert not unset, (
        f"{len(unset)} config fields that no caller sets: {', '.join(unset)}.  "
        "Make each a module constant next to the code that reads it."
    )


def test_allowlist_names_real_fields():
    assert set(ALLOWLIST) <= set(_fields())


def test_config_fields_stay_under_their_ceiling():
    count = len(_fields())
    assert count <= CONFIG_FIELD_CEILING, (
        f"the config objects hold {count} fields, {count - CONFIG_FIELD_CEILING} "
        f"over CONFIG_FIELD_CEILING ({CONFIG_FIELD_CEILING}).  Turn a field no "
        "caller varies into a constant, or raise the ceiling and say why."
    )
