#!/usr/bin/env python
"""Run the regression bench suites and snapshot their timings.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/check_regressions.py [--suite dsa|chaos|paper|all]

The ``dsa`` suite (the default) first runs the engine and record-path
correctness tier (the recorded probe-round fingerprints, the path-cache
property tests and ``tests/core/test_record_path_lockstep.py`` — column
batches, the sized-not-rendered local log and adopted extents against the
dict-per-record pipeline they replaced), then ``bench_engine_throughput``
(with the >20x fast-over-scalar engine gate),
``bench_dsa_pipeline`` (with ``bench_record_path``: bytes held per probe
and round-to-extent cost per record, both gated) and
``bench_scope_columnar`` (the SCOPE engine's per-row budget), and writes
``BENCH_dsa.json``.  The
``chaos`` suite first runs the chaos drill tier
(``tests/integration/test_chaos_drills.py`` — every canned fault campaign
must finish with zero invariant violations), then ``bench_chaos_overhead``
(the <10% checker-overhead gate), and writes ``BENCH_chaos.json``.  The
``stream`` suite first runs the streaming-plane
correctness tier (sketch/aggregator/ingest/detector property tests and the
batch-parity integration gate), then ``bench_stream`` (ingest throughput,
the ≥50× detection-latency gate, constant sketch memory), and writes
``BENCH_stream.json``.  The ``scale`` suite first runs the class-round,
sharded-fleet and cold-start lock-step correctness tier, then
``bench_scale`` (a cold start — construct, fleet start, first round —
inside a wall-clock budget at 4k/16k servers with peak RSS recorded, a
simulated 10-minute window inside a wall-clock budget at 1k/4k/16k/64k
servers, the ≥3x class-rounds-over-fast-path gate at 4k, plus the
two-worker thread pool over serial draws at 16k — gated ≥1.1x on ≥2-CPU
machines),
and writes ``BENCH_scale.json``.  The ``wan`` suite first runs the inter-DC
correctness tier (``tests/netsim/test_wan_tier.py`` — directional WAN
latency, WAN fault kinds, three-rung parity, cache invalidation), then
``bench_wan`` (the 4-DC latency/drop envelopes, class-group drop parity,
fiber-cut blast radius), and writes ``BENCH_wan.json``.  The
``resilience`` suite first runs the degraded-mode correctness tier
(``tests/resilience`` — retry/breaker/spool/staleness units and the
determinism audit — plus the four resilience drill campaigns), then
``bench_resilience`` (the ≥5× recovery-herd-reduction gate, the spool
drain-time budget, the <10% steady-state overhead gate), and writes
``BENCH_resilience.json``.

The ``broker`` suite first runs the on-demand-plane correctness tier
(``tests/broker`` — admission/quota/lifecycle units — plus the live-fleet
integration and storm-drill gates), then ``bench_broker`` (a 10k-tenant
load generator against a 1k-server fleet: wall-clock budget, gated p99
request→result latency, exact credit-ledger conservation, admission
fairness, and the baseline no-interference gate), and writes
``BENCH_broker.json``.

The ``paper`` suite runs the paper's tables and figures (Fig. 3–8,
Table 1, §3.3.1's pinglist sizes, the four ablations and the ICW
limitation), each bench asserting its shape against the paper's number,
and writes ``BENCH_paper.json``.  It has no separate test tier: the
assertions are the gate.

``--suite all`` runs every registered suite in sequence and then audits
the snapshots: a ``BENCH_*.json`` that is missing or was not rewritten
by this run (stale) fails the audit loudly, and each suite gets a
one-line pass/fail summary at the end.  ``--audit-only`` runs just the
snapshot audit (presence/readability, no staleness — mtimes are
meaningless in a fresh checkout) without executing anything: CI's cheap
gate.  ``--profile`` wraps the bench run in cProfile and prints the
top-20 cumulative hotspots afterwards.

Each bench file carries its own hard assertions (e.g. the SCOPE engine's
≤ 500 ns-per-row group/aggregate budget), so the exit code is a pass/fail
verdict, not just a timing dump.  Commit the snapshots to make timing drift reviewable
alongside the change that caused it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TIER1_BENCHES = [
    "bench_engine_throughput.py",
    "bench_dsa_pipeline.py",
    "bench_scope_columnar.py",
]
CHAOS_BENCHES = [
    "bench_chaos_overhead.py",
]
STREAM_BENCHES = [
    "bench_stream.py",
]
SCALE_BENCHES = [
    "bench_scale.py",
]
WAN_BENCHES = [
    "bench_wan.py",
]
RESILIENCE_BENCHES = [
    "bench_resilience.py",
]
BROKER_BENCHES = [
    "bench_broker.py",
]
# The paper's own numbers: every table/figure bench asserts its shape
# against the paper's value as EXPERIMENTS.md tabulates it.
PAPER_BENCHES = [
    "bench_fig3_agent_overhead.py",
    "bench_fig4_latency_cdfs.py",
    "bench_fig5_service_sla.py",
    "bench_fig6_blackhole.py",
    "bench_fig7_silentdrop.py",
    "bench_fig8_patterns.py",
    "bench_table1_drop_rates.py",
    "bench_pinglist_generation.py",
    "bench_ablation_coverage.py",
    "bench_ablation_heuristic.py",
    "bench_ablation_payload.py",
    "bench_ablation_srcport.py",
    "bench_limitation_icw.py",
]
# Correctness before speed: the fast-over-scalar engine gate means nothing
# unless a compiled, columnar round is the recorded per-probe one (first:
# it is the cheapest to fail) and cached paths equal fresh paths; the
# bytes-per-probe gate means nothing unless the columnar record path logs,
# ledgers and stores exactly what the dict-per-record one did.
DSA_CORRECTNESS_TIER = [
    "tests/netsim/test_probe_round_fingerprint.py",
    "tests/netsim/test_path_cache.py",
    "tests/core/test_record_path_lockstep.py",
]
CHAOS_DRILL_TIER = ["tests/integration/test_chaos_drills.py"]
# Same rule for streaming: the latency gate means nothing unless the
# sketches are accurate/mergeable and the plane agrees with batch.
STREAM_CORRECTNESS_TIER = [
    "tests/stream",
    "tests/integration/test_stream_plane.py",
]
# The scale suite's budgets mean nothing unless class rounds match the
# per-pair engines, sharded execution conserves probes exactly, pooled
# rounds are bit-identical to serial ones (observers attached), the lazy
# controller serves eager bytes, and
# per-pod pinglists and class plans equal the per-server enumeration.
SCALE_CORRECTNESS_TIER = [
    "tests/netsim/test_class_rounds.py",
    "tests/core/test_fast_path_parity.py",
    "tests/core/test_sharded_fleet.py",
    "tests/core/test_executor_property.py",
    "tests/core/test_lazy_generation.py",
    "tests/core/test_cold_start_lockstep.py",
]
# The WAN envelopes mean nothing unless directional latency, WAN faults
# and the three probing rungs agree on the inter-DC tier.
WAN_CORRECTNESS_TIER = [
    "tests/netsim/test_wan_tier.py",
]
# The herd/drain/overhead gates mean nothing unless the primitives are
# correct, the draws are deterministic, and the drill campaigns are clean.
RESILIENCE_CORRECTNESS_TIER = [
    "tests/resilience",
    "tests/integration/test_resilience_drills.py",
]
# The broker's latency/fairness gates mean nothing unless admission,
# quotas and the request lifecycle are correct and the live-fleet
# integration (no-interference, invariants, storm drill) holds.
BROKER_CORRECTNESS_TIER = [
    "tests/broker",
    "tests/integration/test_broker_plane.py",
]

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SUITES = {
    "dsa": (TIER1_BENCHES, "BENCH_dsa.json"),
    "chaos": (CHAOS_BENCHES, "BENCH_chaos.json"),
    "stream": (STREAM_BENCHES, "BENCH_stream.json"),
    "scale": (SCALE_BENCHES, "BENCH_scale.json"),
    "wan": (WAN_BENCHES, "BENCH_wan.json"),
    "resilience": (RESILIENCE_BENCHES, "BENCH_resilience.json"),
    "broker": (BROKER_BENCHES, "BENCH_broker.json"),
    "paper": (PAPER_BENCHES, "BENCH_paper.json"),
}


def run_test_tier(paths: list[str]) -> int:
    """A suite's test tier is a gate, not a timing."""
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "-p",
        "no:cacheprovider",
        *[str(REPO_ROOT / path) for path in paths],
    ]
    return subprocess.run(cmd, cwd=REPO_ROOT).returncode


def run_benches(benches: list[str], output: Path, profile: bool = False) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "benchmarks.json"
        cmd = [sys.executable]
        profile_out = Path(tmp) / "bench.prof"
        if profile:
            cmd += ["-m", "cProfile", "-o", str(profile_out)]
        cmd += [
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            f"--benchmark-json={raw}",
            *[str(BENCH_DIR / name) for name in benches],
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT)
        if profile and profile_out.exists():
            _print_hotspots(profile_out)
        if not raw.exists():
            print("no benchmark output produced", file=sys.stderr)
            return proc.returncode or 1
        report = json.loads(raw.read_text())

    snapshot = {
        "machine": report.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
        "python": report.get("machine_info", {}).get("python_version"),
        "benches": {
            bench["name"]: {
                "mean_s": bench["stats"]["mean"],
                "min_s": bench["stats"]["min"],
                "rounds": bench["stats"]["rounds"],
                **(
                    {"extra_info": bench["extra_info"]}
                    if bench.get("extra_info")
                    else {}
                ),
            }
            for bench in sorted(report.get("benchmarks", []), key=lambda b: b["name"])
        },
    }
    output.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output} ({len(snapshot['benches'])} benches)")
    return proc.returncode


def _print_hotspots(profile_out: Path, top: int = 20) -> None:
    """The --profile report: top cumulative hotspots of the bench run."""
    import pstats

    print(f"\n--- profile: top {top} by cumulative time " + "-" * 24)
    stats = pstats.Stats(str(profile_out))
    stats.sort_stats("cumulative").print_stats(top)


def run_suite(suite: str, output: Path | None, profile: bool = False) -> int:
    benches, default_output = SUITES[suite]
    destination = output or REPO_ROOT / default_output
    # Validate the destination up front: the benches take minutes, and a
    # typo'd path should not cost a full run before failing.
    try:
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.touch()
    except OSError as err:
        print(f"cannot write {destination}: {err}", file=sys.stderr)
        return 2
    gate_tiers = {
        "dsa": DSA_CORRECTNESS_TIER,
        "chaos": CHAOS_DRILL_TIER,
        "stream": STREAM_CORRECTNESS_TIER,
        "scale": SCALE_CORRECTNESS_TIER,
        "wan": WAN_CORRECTNESS_TIER,
        "resilience": RESILIENCE_CORRECTNESS_TIER,
        "broker": BROKER_CORRECTNESS_TIER,
    }
    tier = gate_tiers.get(suite)
    if tier is not None:
        tier_rc = run_test_tier(tier)
        if tier_rc != 0:
            print(f"{suite} test tier failed; skipping benches", file=sys.stderr)
            return tier_rc
    return run_benches(benches, destination, profile=profile)


def audit_snapshot(suite: str, run_started: float | None) -> tuple[bool, str]:
    """One suite's verdict line for the ``--suite all`` summary.

    A snapshot is *stale* if this run did not rewrite it — the suite
    crashed (or was interrupted) after the old file was already on disk,
    so its numbers describe some earlier build, not this one.
    ``run_started=None`` (the ``--audit-only`` mode) skips the staleness
    check — in a fresh checkout every mtime is checkout time — and audits
    presence and readability only.
    """
    _benches, default_output = SUITES[suite]
    path = REPO_ROOT / default_output
    if not path.exists():
        return False, f"FAIL  {suite:12s} {default_output} missing"
    if run_started is not None and path.stat().st_mtime < run_started:
        return False, f"FAIL  {suite:12s} {default_output} stale (not from this run)"
    try:
        snapshot = json.loads(path.read_text())
        n_benches = len(snapshot["benches"])
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        return False, f"FAIL  {suite:12s} {default_output} unreadable: {err}"
    if n_benches == 0:
        return False, f"FAIL  {suite:12s} {default_output} has zero benches"
    return True, f"ok    {suite:12s} {n_benches} benches -> {default_output}"


def audit_all() -> int:
    """``--audit-only``: verify every committed snapshot without running
    anything — CI's cheap gate that no ``BENCH_*.json`` is missing,
    unreadable or empty."""
    failed = False
    print("--- snapshot audit " + "-" * 41)
    for suite in SUITES:
        healthy, line = audit_snapshot(suite, None)
        failed = failed or not healthy
        print(line)
    if failed:
        print("one or more snapshots missing or unreadable", file=sys.stderr)
        return 1
    return 0


def run_all(profile: bool = False) -> int:
    """Every registered suite, then a loud snapshot audit + summary."""
    import time

    run_started = time.time()
    suite_rcs = {suite: run_suite(suite, None, profile=profile) for suite in SUITES}
    failed = False
    print("\n--- suite summary " + "-" * 42)
    for suite, rc in suite_rcs.items():
        healthy, line = audit_snapshot(suite, run_started)
        if rc != 0:
            line = f"FAIL  {suite:12s} exit code {rc}"
        if rc != 0 or not healthy:
            failed = True
        print(line)
    if failed:
        print("one or more suites failed or left a missing/stale snapshot",
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="dsa",
        help="which bench suite to run (default: dsa)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="snapshot path (default: BENCH_<suite>.json at the repo root; "
        "only valid for a single suite)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the benches under cProfile and print the top-20 "
        "cumulative hotspots after the suite",
    )
    parser.add_argument(
        "--audit-only",
        action="store_true",
        help="audit the committed BENCH_*.json snapshots (presence, "
        "readability, nonzero benches) without running anything",
    )
    args = parser.parse_args()
    if args.audit_only:
        return audit_all()
    if args.suite == "all":
        if args.output is not None:
            print("--output is ambiguous with --suite all", file=sys.stderr)
            return 2
        return run_all(profile=args.profile)
    return run_suite(args.suite, args.output, profile=args.profile)


if __name__ == "__main__":
    sys.exit(main())
