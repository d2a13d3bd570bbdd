"""Benchmark runner: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload analyze --seed 7 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``.  Items run one at a time (a closed loop with one client), with
BLAS/OpenMP pinned to one thread.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload's fixed prefix untraced, then
each of its items untraced and traced back to back, and reports per-layer
spans and counters plus the tracing overhead.
End-to-end times are scaled to a reference CPU speed (see CAL_NOMINAL_S).
The last line of standard output is the JSON result; the lines before it
give the output digest, exact work counters and the tail percentile used.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 5  # set-ups per run: this process plus four fresh interpreters
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# The VM's CPU speed drifts by up to +-25% within seconds (a fixed loop took
# 12-20 ms), so times are scaled to a reference speed: a fixed calibration
# unit runs every CAL_EVERY_S, also in the middle of long items, and
# reported = measured * CAL_NOMINAL_S / unit time around the measurement.
CAL_NOMINAL_S = 1.25e-3  # the unit's median time on the reference 2-core VM
CAL_EVERY_S = 0.1
MODULES = ("dulac", "dulac.cli", "dulac.parse", "dulac.poly", "dulac.certify",
           "dulac.synthesis", "dulac.flow", "dulac.darboux", "dulac.analyze",
           "dulac.errors")

END_TO_END = [("items_per_s", "1/s"), ("latency_ms_p50", "ms"),
              ("latency_ms_tail", "ms"), ("ok_ratio", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _calibration_unit():
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, i + 1) * Fraction(3, 7)
    return total


def unit_seconds():
    """Current seconds per calibration unit: the median of three units."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _calibration_unit()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Samples the calibration unit about every CAL_EVERY_S of wall time.

    Between timed calls, a sample is taken when the last one is CAL_EVERY_S
    old.  A call that runs longer than CAL_EVERY_S is also sampled while it
    runs, from a SIGALRM handler whose own time is taken out of the call's
    time.  Shorter calls are never interrupted: a sample inside a 3 ms
    certify query left it 0.3 ms slower in the median, enough to move a p99.
    """

    def __init__(self):
        self.units = []
        self.spent = 0.0
        self._last = 0.0
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.units.append(unit_seconds())
        self._last = perf_counter()
        self.spent += self._last - start
        self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self):
        """perf_counter() less the time spent in samples so far."""
        return perf_counter() - self.spent

    def time(self, fn):
        """fn() timed; returns (result, measured seconds, scaled seconds).

        Probe time is taken out of the measured seconds, which are then
        scaled by the units sampled during the call and the last one
        before it."""
        if perf_counter() - self._last >= CAL_EVERY_S:
            self._sample()
        count, spent = len(self.units), self.spent
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            # disarmed before the clock is read: a sample that lands after
            # fn returns is both in the wall time and in self.spent
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - start
        measured = wall - (self.spent - spent)
        unit = statistics.mean(self.units[count - 1:])
        return result, measured, measured * CAL_NOMINAL_S / unit


def set_up(wl, seed):
    """Import the package and parse the workload's inputs.

    Returns (module, items, scaled seconds, measured seconds)."""
    raws = wl.inputs(seed)

    def import_and_parse():
        for name in MODULES:
            importlib.import_module(name)
        dulac = sys.modules["dulac"]
        if not Path(dulac.__file__).resolve().is_relative_to(SRC):
            _fail(f"imported dulac from {dulac.__file__}, not from {SRC}")
        return dulac, wl.setup(dulac, raws)

    with SpeedProbe() as probe:
        (dulac, items), measured, scaled = probe.time(import_and_parse)
    return dulac, items, scaled, measured


def fresh_setup_seconds(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return tuple(float(v) for v in done.stdout.split()[-2:])


class Raised:
    """Output of an item whose run raised: it fails its oracle."""

    def __init__(self, exc):
        self.name = type(exc).__name__


def run_item(wl, dulac, item):
    """The call into the package; its output, or Raised."""
    try:
        return wl.run(dulac, item)
    except Exception as exc:  # the loop must go on and count it as failed
        return Raised(exc)


def check_item(wl, item, out):
    if isinstance(out, Raised):
        return False, {"raised": out.name}, {"raised": 1}
    try:
        return wl.check(item, out)
    except Exception as exc:  # a malformed output fails its oracle
        return False, {"check_raised": type(exc).__name__}, {"check_raised": 1}


class Outputs:
    """Oracle verdicts, plus digest and exact counts of the first items."""

    def __init__(self, limit):
        self.limit = limit
        self.n = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.counts = Counter()

    def add(self, ok, record, counts):
        if not ok:
            self.failed += 1
        if self.n < self.limit:
            line = json.dumps(record, sort_keys=True, default=str)
            self.digest.update(line.encode() + b"\n")
            self.counts.update({k: int(v) for k, v in counts.items()})
        self.n += 1

    def report(self, wl, seed):
        print(f"digest: workload={wl.name} seed={seed} items={self.limit} "
              f"sha256={self.digest.hexdigest()}")
        print("counters: " + json.dumps(dict(sorted(self.counts.items()))))
        print(f"fail_ratio: {self.failed}/{self.n}")


def tail(latencies, block):
    """Tail latency: the median, over consecutive blocks of ``block`` items,
    of each block's value at its highest percentile with TAIL_BEYOND samples
    beyond it.  Blocks of at most 2*TAIL_BEYOND items use their maximum,
    since that percentile would not lie above the median.  Returns (value,
    percentile, number of blocks)."""
    blocks = [sorted(latencies[i:i + block])
              for i in range(0, len(latencies) - block + 1, block)]
    if block <= 2 * TAIL_BEYOND:
        return statistics.median(b[-1] for b in blocks), 100.0, len(blocks)
    pct = 100.0 * (block - TAIL_BEYOND) / block
    return (statistics.median(b[block - TAIL_BEYOND - 1] for b in blocks),
            pct, len(blocks))


def timed_run(wl, dulac, prefix_items, args):
    items = itertools.chain(prefix_items,
                            wl.stream(dulac, args.seed, len(prefix_items)))
    outputs = Outputs(wl.prefix)
    latencies, measured = [], []
    deadline = perf_counter() + args.seconds
    with SpeedProbe() as probe:
        for item in items:
            out, seconds, scaled = probe.time(
                lambda: run_item(wl, dulac, item))
            measured.append(seconds)
            latencies.append(scaled)
            outputs.add(*check_item(wl, item, out))
            n = len(latencies)
            if (n >= wl.min_items and n % wl.pass_size == 0
                    and perf_counter() >= deadline):
                break
    value, pct, blocks = tail(latencies, wl.tail_block)
    print(f"items: {len(latencies)} in {sum(measured):.3f} s busy, "
          f"{sum(latencies):.3f} s at reference speed; latency_ms_tail: "
          f"median over {blocks} blocks of {wl.tail_block} items of each "
          f"block's p{pct:.2f}")
    print(f"measured: items_per_s={len(measured) / sum(measured):.6g} "
          f"latency_ms_p50={1000 * statistics.median(measured):.6g} "
          f"latency_ms_tail={1000 * tail(measured, wl.tail_block)[0]:.6g}")
    outputs.report(wl, args.seed)
    return outputs, {
        "items_per_s": len(latencies) / sum(latencies),
        "latency_ms_p50": 1000 * statistics.median(latencies),
        "latency_ms_tail": 1000 * value,
        "ok_ratio": 1 - outputs.failed / outputs.n,
    }


def parse_and_run(wl, dulac, n, raw):
    """Item n parsed from its raw input and run; returns (item, output)."""
    item = wl.parse(dulac, n, raw)
    return item, run_item(wl, dulac, item)


def traced_run(wl, dulac, args):
    """The fixed prefix once untraced to warm the process up, then each
    item untraced and traced back to back, so that both passes see the same
    machine speed; the traced run goes first on every other item, so that
    neither pass is always second.  Both passes are scaled like the timed
    run; span times leave out the probe's samples.  Returns per-layer
    metrics."""
    from spans import LAYER_METRICS, Tracer

    raws = wl.inputs(args.seed)
    for n, raw in enumerate(raws):
        parse_and_run(wl, dulac, n, raw)
    outputs = Outputs(wl.prefix)
    busy = []  # per item: {traced: scaled seconds}
    with SpeedProbe() as probe:
        tracer = Tracer(clock=probe.clock)
        for n, raw in enumerate(raws):
            busy.append({})
            for traced in (n % 2 == 1, n % 2 == 0):
                if traced:
                    tracer.install(dulac)
                try:
                    (item, out), _, seconds = probe.time(
                        lambda: parse_and_run(wl, dulac, n, raw))
                finally:
                    tracer.uninstall()
                busy[-1][traced] = seconds
                if traced:
                    outputs.add(*check_item(wl, item, out))
    outputs.report(wl, args.seed)
    metrics = tracer.metrics()
    untraced = sum(b[False] for b in busy)
    # the median ratio: a hiccup in one pass of one item moves the sums
    ratio = statistics.median(b[True] / b[False] for b in busy)
    metrics.update({"trace.items": outputs.n, "trace.untraced_s": untraced,
                    "trace.traced_s": sum(b[True] for b in busy),
                    "trace.overhead_s": untraced * (ratio - 1)})
    return outputs, metrics, dict(LAYER_METRICS)


def measure(wl, args):
    """One run of ``wl``; returns the result object printed as the last line."""
    dulac, prefix_items, *first_setup = set_up(wl, args.seed)
    if args.trace:
        outputs, metrics, units = traced_run(wl, dulac, args)
    else:
        setups = [first_setup] + [fresh_setup_seconds(args)
                                  for _ in range(SETUP_REPS - 1)]
        outputs, metrics = timed_run(wl, dulac, prefix_items, args)
        metrics["setup_s"] = statistics.median(s for s, _ in setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        print("setup_s samples (scaled/measured): "
              + ", ".join(f"{s:.4f}/{m:.4f}" for s, m in setups))
        units = dict(END_TO_END)
    return {
        "correct": outputs.failed == 0,
        "attempted": outputs.n,
        "failed": outputs.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print the seconds")
    args = ap.parse_args()

    if not (SRC / "dulac" / "__init__.py").is_file():
        _fail(f"no package source at {SRC}; run from a source checkout")
    if not (ROOT / "systems").is_dir():
        _fail(f"no systems/ directory at {ROOT}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, OUT)
    if args.seed is None:
        args.seed = wl.default_seed
    if args.setup_only:
        print(*set_up(wl, args.seed)[2:])
        return
    print(json.dumps(measure(wl, args)))


if __name__ == "__main__":
    main()
