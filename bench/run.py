"""The majsphere benchmark: one workload, one seed, one line of results.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``decide``: SLOCC and LOCC decisions on pairs of known relation, n = 4..8;
* ``roots_transform``: roots, round trips and transforms up to n = 64;
* ``cli_batch``: the CLI as a subprocess over state documents.

Each is a closed loop with one client.  Inputs are built round by round from
the seed, outside the timed region; the timed phase runs whole rounds until
the time spent inside the timed calls reaches ``--seconds``.  Every result
is checked after its round.  Reported times are in reference-host seconds
(see ``host_scale``); the wall-clock values are printed on a comment line.
With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the same rounds run once with spans recorded around the calls
into each module (``spans.py``) and once without, and the last line holds
the per-layer metrics and the tracing overhead.
"""

import os
import sys

#: BLAS and OpenMP pools pinned to one thread in this process and its children
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 15
#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10
#: timed seconds after which the next call is followed by a host_scale()
#: sample.  The host's speed can swing 2x within a fraction of a second, so
#: every call longer than this has a sample right before and right after it
SCALE_EVERY_S = 0.01
#: reported times are scaled to a host on which the host_scale() loop takes
#: this long; on the 2-core x86-64 host that fixed the bounds it took 2-4 ms
CALIBRATION_REF_S = 0.0025


def declared_units(kind: str) -> dict:
    """Metric name -> unit, for the ``end_to_end`` or ``per_layer`` metrics
    that BENCHMARK.json, at the root of the checkout, declares."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def import_library():
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "majsphere", "__init__.py")):
        raise SystemExit("bench: run from the root of a majsphere checkout (no src/majsphere)")
    sys.path.insert(0, src)
    import majsphere

    if os.path.dirname(os.path.dirname(os.path.abspath(majsphere.__file__))) != src:
        raise SystemExit(f"bench: majsphere imported from {majsphere.__file__}, not {src}")


def host_scale() -> float:
    """Speed of the host now relative to the reference host.

    A shared host's speed drifts: on a 2-core x86-64 host one n=5 decision
    took 95-224 ms within a minute, and this loop's time swung between 2 and
    4 ms from one sample to the next.  Every reported time is therefore
    multiplied by the scale measured around it, with a fixed pure-Python
    loop of complex arithmetic and list work.  It calls no numpy, so a
    change in the cost of numpy or its BLAS build is not scaled away.
    """
    start = perf_counter()
    acc = 0j
    pairs = []
    for i in range(3000):
        z = complex(i % 7, i % 5)
        acc += z * z / (abs(z) + 1.0)
        pairs.append((abs(z), z))
    pairs.sort(key=lambda p: p[0])
    return CALIBRATION_REF_S / (perf_counter() - start)


class Clock:
    """Times each library call of the closed loop; an exception it raises is
    its result, for the checks to judge.  ``busy`` sums wall-clock times,
    ``scaled`` holds the times in reference-host seconds: after every
    SCALE_EVERY_S of calls the host's speed is sampled, and the calls since
    the last sample are scaled by the mean of the two."""

    def __init__(self, tracer=None):
        self.latencies = []
        self.scaled = []
        self.scales = [host_scale()]
        self.busy = 0.0
        self._sampled_at = 0.0
        self._tracer = tracer

    def rescale(self) -> None:
        """Sample the host's speed and scale the calls timed since the last sample."""
        self.scales.append(host_scale())
        scale = (self.scales[-2] + self.scales[-1]) / 2.0
        self.scaled += [t * scale for t in self.latencies[len(self.scaled):]]
        self._sampled_at = self.busy

    def __call__(self, fn, *args):
        if self._tracer is not None:
            self._tracer.op_id = len(self.latencies)
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the loop must go on; the check counts it
            result = exc
        elapsed = perf_counter() - start
        self.latencies.append(elapsed)
        self.busy += elapsed
        if self.busy - self._sampled_at >= SCALE_EVERY_S:
            self.rescale()
        return result


def run_phase(workload, workloads, seconds=None, rounds=None, tracer=None, after_round=None):
    """Whole rounds until ``seconds`` of timed calls, or exactly ``rounds``.

    A round's inputs are built before it and its results checked right after
    it, both outside the timed calls and any tracing, so results do not pile
    up in memory; ``after_round(clock)`` runs next.  Returns the clock, the
    summed :class:`workloads.Outcome` of the checks and the number of rounds.
    """
    clock = Clock(tracer)
    outcome = workloads.Outcome()
    r = 0
    while (clock.busy < seconds) if rounds is None else (r < rounds):
        items = workload.make_round(r)
        with tracer if tracer is not None else contextlib.nullcontext():
            results = [workload.run(item, clock) for item in items]
        for item, result in zip(items, results):
            outcome.add(workload.check(item, result))
        if after_round is not None:
            after_round(clock)
        r += 1
    clock.rescale()
    return clock, outcome, r


def latency_metrics(latencies):
    lat = sorted(x * 1e3 for x in latencies)
    # a run too short for a tail above the median reports its largest call
    beyond = TAIL_BEYOND if len(lat) > 2 * TAIL_BEYOND else 0
    tail_pct = 100.0 * (len(lat) - 1 - beyond) / max(len(lat) - 1, 1)
    return statistics.median(lat), lat[len(lat) - 1 - beyond], tail_pct, beyond


class SetupProbe:
    """Times fresh interpreters that import majsphere and finish the warm-up
    call, from spawn to exit.  They are spread over the timed phase, so that
    their median does not come from one stretch of the host's load."""

    def __init__(self, command, seconds):
        self.command = command
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.times = []

    def __call__(self, clock=None):
        done = 1.0 if clock is None else min(clock.busy / self.seconds, 1.0)
        while len(self.times) < math.ceil(SETUP_REPEATS * done):
            before = host_scale()
            start = perf_counter()
            subprocess.run(self.command, env=self.env, check=True, capture_output=True,
                           timeout=120)
            elapsed = perf_counter() - start
            self.times.append(elapsed * (before + host_scale()) / 2.0)
        return statistics.median(self.times)


def host_record(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def measure(args, workloads, workdir):
    """Runs the workload; returns (metrics, calls attempted, outcome, notes)."""
    from spans import Tracer

    traced = bool(args.trace)
    if args.workload == "cli_batch":
        workload = workloads.CliBatch(args.seed, workdir, in_process=traced)
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed)
    warm = workload.warmup()
    warm_results = workload.run(warm, Clock())
    if workload.check(warm, warm_results).failed:
        raise SystemExit(f"bench: warm-up call failed its check: {warm_results!r}")

    notes = {}
    if traced:
        tracer = Tracer()
        clock_t, outcome, rounds = run_phase(workload, workloads, seconds=args.seconds / 2,
                                             tracer=tracer)
        clock_u, outcome_u, _ = run_phase(workload, workloads, rounds=rounds)
        outcome.add(outcome_u)
        attempted = len(clock_t.latencies) + len(clock_u.latencies)
        tracer.save(os.path.join(WORK_DIR, f"spans-{args.workload}.npz"))
        layers = tracer.layer_metrics(len(clock_t.latencies))
        probes = sum(outcome.probes.values())
        metrics = {name: layers.get(name, 0.0) for name in declared_units("per_layer")}
        metrics["symstate.uncertified_miss_frac"] = (
            sum(outcome.misses.values()) / probes if probes else 0.0
        )
        metrics["trace_overhead_frac"] = sum(clock_t.scaled) / sum(clock_u.scaled) - 1.0
        notes["rounds"] = rounds
        return metrics, attempted, outcome, notes

    if args.workload == "cli_batch":
        probe = SetupProbe(workload.command(warm.argv), args.seconds)
    else:
        probe = SetupProbe([sys.executable, os.path.join(BENCH_DIR, "probe.py"),
                            args.workload, str(args.seed)], args.seconds)
    clock, outcome, rounds = run_phase(workload, workloads, seconds=args.seconds,
                                       after_round=probe)
    attempted = len(clock.latencies)
    # the CLI's children include the set-up probes, which run the same command
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_batch" else resource.RUSAGE_SELF
    p50, tail, tail_pct, beyond = latency_metrics(clock.scaled)
    metrics = {
        "ops_per_s": attempted / sum(clock.scaled),
        "latency_ms_p50": p50,
        "latency_ms_tail": tail,
        "setup_s": probe(),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    wall_p50, wall_tail, _, _ = latency_metrics(clock.latencies)
    notes["rounds"] = rounds
    notes["latency_ms_tail"] = f"p{tail_pct:.2f}, {beyond} of {attempted} samples beyond"
    notes["wall"] = (
        f"wall-clock: ops_per_s {attempted / clock.busy:.6g}, latency_ms_p50 {wall_p50:.6g}, "
        f"latency_ms_tail {wall_tail:.6g}; host scale median "
        f"{statistics.median(clock.scales):.4g}"
    )
    return metrics, attempted, outcome, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("decide", "roots_transform", "cli_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_library()
    import workloads

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.abspath(WORK_DIR))
    try:
        metrics, attempted, outcome, notes = measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if metrics.keys() != units.keys():
        raise SystemExit(f"bench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    print("# host " + json.dumps(host_record(args.seed)))
    print(f"# workload {args.workload}, trace {args.trace}, rounds {notes.pop('rounds')}")
    if "wall" in notes:
        print(f"# {notes.pop('wall')}")
    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{extra}")
    failed = outcome.failed
    print(f"failed_frac {failed / attempted:.6g} frac  ({failed} of {attempted} calls)")
    if outcome.probes:
        by_mult = ", ".join(f"{m}: {outcome.misses[m]}/{outcome.probes[m]}"
                            for m in sorted(outcome.probes))
        print(f"# known defect, its checks not counted in failed: inputs whose roots "
              f"the library misread, of inputs checked, by root multiplicity: {by_mult}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
