"""One workload, one fresh process: set-up -> measured phase -> checks.

Spawned by ``run.py`` (never imported by it), so that peak RSS, import cost
and every cache belong to this workload alone.  Prints one JSON object —
the run's record — as the last line of standard output.

How time is taken.  The reference box is a shared 2-core VM whose speed
wanders by tens of percent over seconds to minutes, and whose first touch
of a page costs anything from 2 to 20 microseconds depending on what the
hypervisor reclaimed.  Raw wall time of one run is therefore no estimate of
the program's cost.  The end-to-end times are instead built from two
readings that are:

* **user CPU seconds** of each step (``ru_utime``): the program is one
  thread and does no I/O, so on a quiet host this *is* its wall time, and
  it leaves out what the hypervisor adds — stolen time and page-fault
  service, which the kernel books as system time;
* a **host probe**, a fixed mix of interpreter, allocator and numpy work
  timed (in CPU seconds) every 50 ms of the program's own user CPU time.
  The median reading of a phase over ``PROBE_NOMINAL_S`` is its *host speed
  factor*; every time of the phase is divided by it.

Raw wall and CPU seconds are kept in the record next to the compensated
numbers, and a run whose wall exceeds its CPU by more than 5% is flagged
``disturbed``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
DISTURBED_WALL_OVER_CPU = 1.05
# The host probe's reading on the reference box when nothing else runs.
PROBE_NOMINAL_S = 0.0015
_PROBE_RNG = numpy.random.default_rng(0)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def user_cpu_s() -> float:
    """User CPU seconds of this process since it started."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class HostSpeed:
    """Samples the host probe on a virtual-time timer and keeps the readings.

    ``ITIMER_VIRTUAL`` counts the process's own user CPU time, so readings
    are spread evenly over the program's work — a 5-second step contributes
    a hundred of them, a 30 ms step every other one — and the median reading
    weighs each stretch of the run by the work done in it.  The handler runs
    between two bytecodes of whatever the program is executing; what it costs
    is booked in ``spent_s`` and taken out of every time that spans it.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent_s = 0.0  # user CPU the probes themselves used
        self._busy = False

    def start(self) -> None:
        self.probe()
        signal.signal(signal.SIGVTALRM, lambda _signum, _frame: self.probe())
        signal.setitimer(signal.ITIMER_VIRTUAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        signal.signal(signal.SIGVTALRM, signal.SIG_IGN)  # a late tick must not kill

    def probe(self) -> None:
        if self._busy:  # a tick that lands inside a probe is skipped
            return
        self._busy = True
        # Timed on the thread's CPU clock, not in user CPU: the kernel splits
        # user from system time by sampling ticks, which is exact enough over
        # a step but not over these two milliseconds — and the probe barely
        # enters the kernel.  (The process-wide CPU clock advances in ticks.)
        u0, t0 = user_cpu_s(), time.thread_time()
        total = 0
        for i in range(15000):
            total += i * i
        _records = [{"t": float(i), "src": "s%d" % i, "rtt": i * 0.5} for i in range(1500)]
        draws = _PROBE_RNG.random(60000)
        draws.sort()
        self.readings.append(time.thread_time() - t0)
        self.spent_s += user_cpu_s() - u0
        self._busy = False

    def program_user_s(self) -> float:
        """User CPU seconds the program itself has used since the process
        started: everything but the probes."""
        return user_cpu_s() - self.spent_s

    def factor(self, since: int = 0) -> float:
        """>1 on a host slower than the reference; over readings[since:],
        or over all of them when that stretch was too short to be sampled."""
        readings = self.readings[since:]
        if len(readings) < 3:
            readings = self.readings
        return statistics.median(readings) / PROBE_NOMINAL_S


class Run:
    """What the measured phase records: step and op times, ops, checks."""

    def __init__(self, host: HostSpeed, tracer=None) -> None:
        self.host = host
        self.tracer = tracer
        # (label, wall s, user CPU s): 60-sim-second steps / other timed ops
        self.steps: list[tuple[str, float, float]] = []
        self.ops: list[tuple[str, float, float]] = []
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.probes = 0

    def user_since_start(self) -> float:
        return self.host.program_user_s()

    def _timed(self, into: list, label: str, fn) -> None:
        self.attempted += 1
        u0 = self.host.program_user_s()
        t0 = perf_counter()
        fn()
        wall = perf_counter() - t0
        into.append((label, wall, self.host.program_user_s() - u0))
        if self.tracer is not None:
            self.tracer.cut("measured", label)

    def step(self, label: str, fn) -> None:
        self._timed(self.steps, label, fn)

    def op(self, label: str, fn) -> None:
        self._timed(self.ops, label, fn)

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.count_ops(1, 0 if ok else 1)
        self.checks.append({"name": name, "ok": bool(ok), "detail": repr(detail)})

    def count_ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import metrics
    from tracing import TRACE_COLUMNS, Tracer

    host = HostSpeed()
    host.start()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        record = _run(args, host, tracer, metrics)
    finally:
        host.stop()
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and args.trace_out:
        with open(args.trace_out, "w") as out:
            for row in tracer.rows():
                out.write(json.dumps(dict(zip(TRACE_COLUMNS, row))) + "\n")
    print(json.dumps(record))
    return 0


def _run(args, host: HostSpeed, tracer, metrics) -> dict:
    from workloads import WARMUP_S, WORKLOADS

    phase_user = {"import": host.program_user_s()}  # interpreter start + imports
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.smoke)
    u0, t0 = host.program_user_s(), perf_counter()
    workload.build()
    phase_user["build_start"] = host.program_user_s() - u0
    u0 = host.program_user_s()
    workload.advance(WARMUP_S)  # pinglists fetched, class plans compiled
    phase_user["warmup"] = host.program_user_s() - u0
    setup_wall = perf_counter() - t0
    if tracer is not None:
        tracer.cut("setup", "setup")
    setup_readings = len(host.readings)
    setup_factor = host.factor()
    setup_user = host.program_user_s()
    rss_after_setup = rss_mb()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "setup_s": setup_user / setup_factor,
        "setup_raw": {
            "user_s": setup_user,
            "phases_user_s": phase_user,
            "build_to_warm_wall_s": setup_wall,
            "host_factor": setup_factor,
        },
    }
    if args.setup_only:
        return record

    run = Run(host, tracer)
    probes_before = workload.probes()
    cpu0, wall0 = time.process_time(), perf_counter()
    try:
        workload.measure(run)
    except Exception:  # a step that raises is a failed op, not a crash
        traceback.print_exc()
        run.count_ops(0, 1)
    measured_wall = perf_counter() - wall0
    measured_cpu = time.process_time() - cpu0
    run.probes = workload.probes() - probes_before
    workload.finish(run)

    factor = host.factor(since=setup_readings)
    step_user = [user for _label, _wall, user in run.steps]
    timed_user = sum(user for _label, _wall, user in run.steps + run.ops)
    record.update(
        correct=run.failed == 0,
        ops_attempted=run.attempted,
        ops_failed=run.failed,
        checks=run.checks,
        sim=workload.sim(),
        steps=len(run.steps),
        host_factor=factor,
        measured_s=timed_user / factor,
        raw={
            "measured_wall_s": measured_wall,  # probes and harness included
            "measured_cpu_s": measured_cpu,
            "timed_user_s": timed_user,
            "steps": run.steps,
            "ops": run.ops,
            "host_probe_s": host.readings,
        },
        disturbed=measured_wall > DISTURBED_WALL_OVER_CPU * measured_cpu,
        end_to_end={
            "setup_s": record["setup_s"],
            "probes_per_s": run.probes * factor / timed_user,
            "step_ms_p50": statistics.median(step_user) / factor * 1e3,
            "peak_rss_mb": rss_mb(),
        },
    )
    record["workload_specific"] = metrics.workload_specific(workload, record)
    if tracer is not None:
        record["per_layer"] = metrics.per_layer(workload, run, tracer, record, rss_after_setup)
        measured = tracer.totals("measured")
        record["trace_self_sum_s"] = sum(entry["self_s"] for entry in measured.values())
        # Coverage: what the root span of a step keeps for itself is time
        # no layer's span claims.
        record["unclaimed_share"] = measured["autopilot.run_for"]["self_s"] / measured_wall
    return record


if __name__ == "__main__":
    sys.exit(main())
