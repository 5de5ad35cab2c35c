#!/usr/bin/env python3
"""End-to-end benchmark of the whole reproduction: four workloads, four
end-to-end metrics on each, and a per-layer trace.

Two ways to call it, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line, one JSON object —
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).  This
is the command ``BENCHMARK.json`` records.  And::

    python3 benchmarks/e2e/run.py [--workload all] [--repeats N] [--smoke]
                                  [--out DIR] [--compare A.json B.json]

runs the workloads round-robin (A B C D A B C D ...), untraced and traced,
prints medians and spreads, and writes ``results.json`` plus one trace file
per workload to ``--out``.  ``--compare`` reads two such results files.

Every workload run is a fresh subprocess (``worker.py``), single process,
serial executor.  Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
WORKER = HERE / "worker.py"
WORKLOAD_TIMEOUT_S = 170  # the driver allows 180 s per run

# Set-up is repeated in fresh processes and the median reported, for as
# long as it is cheap: a further set-up starts only while the ones so far
# took less than this much wall time in total.
SETUP_REPEAT_BUDGET_S = 5.0
SETUP_REPEATS_MAX = 3


def load_benchmark_json() -> dict:
    with open(HERE.parents[1] / "BENCHMARK.json") as handle:
        return json.load(handle)


def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
          setup_only: bool = False, trace_out: str | None = None) -> dict:
    """One worker process; returns the record it printed."""
    command = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
             trace_out: str | None = None) -> dict:
    """One measured run, preceded by the extra set-ups its budget allows.

    ``setup_s`` in the returned record is the median over every set-up of
    this call (the measuring process's included).
    """
    record = spawn(workload, seed, seconds, trace, smoke, trace_out=trace_out)
    setups = [record]
    while (
        not smoke
        and len(setups) < SETUP_REPEATS_MAX
        and sum(r["setup_raw"]["build_to_warm_wall_s"] for r in setups) < SETUP_REPEAT_BUDGET_S
    ):
        setups.append(spawn(workload, seed, seconds, trace, smoke, setup_only=True))
    record["setups_s"] = [r["setup_s"] for r in setups]
    record["setup_s"] = record["end_to_end"]["setup_s"] = statistics.median(record["setups_s"])
    return record


# -- the driver's protocol ------------------------------------------------------


def driver_run(args, spec: dict) -> int:
    record = run_once(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    if args.trace:
        listed, values = spec["per_layer"], record["per_layer"]
    else:
        listed, values = spec["end_to_end"], record["end_to_end"]
    result = {
        "correct": record["correct"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in listed
        },
    }
    for check in record["checks"]:
        if not check["ok"]:
            print(f"check failed: {check['name']}: {check['detail']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if record["correct"] else 1


# -- the full report ------------------------------------------------------------


def host_info() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    spread = (max(values) - min(values)) / median if median else 0.0
    return {"median": median, "spread": spread, "values": values}


def full_report(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    runs: dict[str, dict[int, list[dict]]] = {name: {0: [], 1: []} for name in names}
    for repeat in range(args.repeats):
        for trace in (0, 1):
            for name in names:
                trace_out = None
                if trace and out_dir and repeat == args.repeats - 1:
                    trace_out = str(out_dir / f"trace-{name}.jsonl")
                record = run_once(name, args.seed, args.seconds, trace, args.smoke, trace_out)
                runs[name][trace].append(record)
                print(
                    f"[{repeat + 1}/{args.repeats}] {name} trace={trace}: "
                    f"setup {record['setup_s']:.2f}s measured {record['measured_s']:.2f}s "
                    f"(wall {record['raw']['measured_wall_s']:.2f}s, host x{record['host_factor']:.2f}) "
                    f"ops {record['ops_attempted']}/{record['ops_failed']} failed"
                    + (" DISTURBED" if record["disturbed"] else ""),
                    file=sys.stderr,
                )

    results = {
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "claim": None,
        "workloads": {},
    }
    all_correct = True
    for name in names:
        untraced, traced = runs[name][0], runs[name][1]
        last = untraced[-1]
        all_correct &= all(r["correct"] for r in untraced + traced)
        end_to_end = {
            metric["name"]: dict(
                summarize([r["end_to_end"][metric["name"]] for r in untraced]),
                unit=metric["unit"], better=metric["better"], bound=metric["bound"],
            )
            for metric in spec["end_to_end"]
        }
        per_layer = {
            metric["name"]: {
                "median": statistics.median(r["per_layer"][metric["name"]] for r in traced),
                "unit": metric["unit"],
            }
            for metric in spec["per_layer"]
        }
        measured_untraced = statistics.median(r["measured_s"] for r in untraced)
        measured_traced = statistics.median(r["measured_s"] for r in traced)
        results["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "ops_attempted": last["ops_attempted"],
            "ops_failed": last["ops_failed"],
            "failed_checks": [c for r in untraced + traced for c in r["checks"] if not c["ok"]],
            "sim": last["sim"],
            "steps": last["steps"],
            "workload_specific": {
                metric: statistics.median(r["workload_specific"][metric] for r in untraced)
                for metric in last["workload_specific"]
            },
            "trace_overhead_pct_paired": 100.0 * (measured_traced / measured_untraced - 1.0),
            "trace_self_sum_over_wall": statistics.median(
                r["trace_self_sum_s"] / r["raw"]["measured_wall_s"] for r in traced
            ),
            "coverage_unclaimed_share": statistics.median(
                r["unclaimed_share"] for r in traced
            ),
            "runs": [
                {
                    "trace": r["trace"],
                    "setups_s": r["setups_s"],
                    "measured_s": r["measured_s"],
                    "host_factor": r["host_factor"],
                    "wall_s": r["raw"]["measured_wall_s"],
                    "cpu_s": r["raw"]["measured_cpu_s"],
                    "disturbed": r["disturbed"],
                    "ops_user_s": {label: user for label, _wall, user in r["raw"]["ops"]},
                }
                for r in untraced + traced
            ],
        }
    print_report(results)
    if out_dir:
        with open(out_dir / "results.json", "w") as handle:
            json.dump(results, handle, indent=1)
        print(f"wrote {out_dir / 'results.json'}", file=sys.stderr)
    return 0 if all_correct else 1


def print_report(results: dict) -> None:
    host = results["host"]
    print(
        f"host: {host['nproc']} x {host['cpu_model']}; python {host['python']}, "
        f"numpy {host['numpy']}; seed {results['seed']}, repeats {results['repeats']}"
    )
    for name, entry in results["workloads"].items():
        print(f"\n== {name}  (ops {entry['ops_attempted']}, failed {entry['ops_failed']}, "
              f"{entry['steps']} steps)")
        for metric, value in entry["end_to_end"].items():
            print(
                f"  {metric:<16}{value['median']:>14.3f} {value['unit']:<9}"
                f"spread {100 * value['spread']:5.1f}%  bound {100 * value['bound']:.0f}%"
            )
        print(
            f"  traced: overhead {entry['trace_overhead_pct_paired']:+.1f}% paired, "
            f"{entry['per_layer']['bench.trace_overhead_pct']['median']:.1f}% calibrated; "
            f"self-time sum / wall {entry['trace_self_sum_over_wall']:.4f}; "
            f"unclaimed (autopilot.run_for self) "
            f"{100 * entry['coverage_unclaimed_share']:.1f}% of wall"
        )
        busiest = sorted(
            (
                (value["median"], metric)
                for metric, value in entry["per_layer"].items()
                if metric.endswith(".self_s")
            ),
            reverse=True,
        )[:8]
        for self_s, metric in busiest:
            print(f"    {metric:<34}{self_s:>9.3f} s")
        for check in entry["failed_checks"]:
            print(f"  CHECK FAILED {check['name']}: {check['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the measured phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="given: one run in the driver's protocol")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="64-server fleets, 2 windows: the harness's own fast path")
    parser.add_argument("--out", default=None, help="directory for results.json and traces")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"nothing to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = load_benchmark_json()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    known = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {known}")
    if args.trace is not None:
        if args.workload == "all":
            parser.error("--trace 0|1 runs one workload; name it with --workload")
        return driver_run(args, spec)
    return full_report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
