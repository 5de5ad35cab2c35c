"""Every config field earns its place: some driver sets it.

A field of a config object that no call in the repo's drivers (``src/``,
``benchmarks/`` and ``examples/``, the roots ``test_reachability.py``
walks) ever passes is a constant in disguise: it carries a validation
branch and plumbing for a value nothing varies, and a knob only a test
turns is one too.  Make it a module constant next to the code that reads it.

What counts as setting a field named ``f``: a keyword ``f=...`` in a call,
or a string key ``"f"`` in a dict literal (the ``Config(**{"f": ...})``
form).  Two kinds of keyword do not count: one passed to a class defined
in the scanned tree that is not a config object (another class's own
parameter that happens to share the name), and one that forwards the same
name (``f=config.f``, plumbing, not a caller's choice).
"""

import ast
import dataclasses
import functools
from pathlib import Path

from repro.broker.admission import AdmissionConfig
from repro.broker.broker import BrokerConfig
from repro.broker.quota import TenantQuota
from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.system import PingmeshSystemConfig
from repro.resilience import CircuitBreakerConfig
from repro.stream.plane import StreamConfig

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")

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
)

# Fields no driver sets that stay anyway, each with its reason.
ALLOWLIST = {
    "StreamConfig.ingest_vip": (
        "deployment setting: the name the ingest replicas sit behind; a "
        "simulated fleet never has two, a real deployment names its own"
    ),
    "StreamConfig.n_ingest_replicas": (
        "deployment setting: how many ingest replicas sit behind the stream "
        "VIP; chaos drills black them out one by one or all at once, "
        "whatever the count"
    ),
    "PingmeshSystemConfig.n_controller_replicas": (
        "deployment setting: how many controller replicas sit behind the "
        "SLB; chaos drills fail them one by one, whatever the count"
    ),
}

# Summed over CONFIGS.  A change that removes fields lowers it to the new
# count; one that has to add a field raises it and says why.
CONFIG_FIELD_CEILING = 38


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


@functools.cache
def _names_set_by_callers() -> frozenset[str]:
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
    return frozenset(names)


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
        f"{len(unset)} config fields that no driver sets: {', '.join(unset)}.  "
        "Make each a module constant next to the code that reads it."
    )


def test_allowlist_names_real_fields():
    assert set(ALLOWLIST) <= set(_fields())


def test_allowlist_holds_no_field_a_driver_sets():
    set_names = _names_set_by_callers()
    stale = [field for field in ALLOWLIST if field.partition(".")[2] in set_names]
    assert not stale, (
        f"allowlisted fields that a driver now sets: {', '.join(stale)}.  "
        "Take them off ALLOWLIST."
    )


def test_config_fields_stay_under_their_ceiling():
    count = len(_fields())
    assert count <= CONFIG_FIELD_CEILING, (
        f"the config objects hold {count} fields, {count - CONFIG_FIELD_CEILING} "
        f"over CONFIG_FIELD_CEILING ({CONFIG_FIELD_CEILING}).  Turn a field no "
        "caller varies into a constant, or raise the ceiling and say why."
    )
