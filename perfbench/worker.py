"""One workload in one single-threaded process; started by run.py.

Protocol on stdout: a line ``ready`` once the coarse_teich modules are
imported and load_constants() has run, then one JSON line with the result.
With --setup-only that line holds only one speed probe's seconds.

The timed phase covers the ops only: input batches are made before it and
outputs are checked after it, with the tracer uninstalled for both.

Op times are also reported at a reference machine speed.  A 2-vCPU Intel
Xeon virtual machine was seen to run a fixed pure-Python loop at two speeds
(about 16 and 22 ms per pass), switching every few seconds to minutes, in
wall and CPU time alike and with no steal time, so whole runs can land in
one speed.  In an untraced run a SpeedSampler times a speed probe, a fixed
loop, every PROBE_GAP_S of the timed phase, also in the middle of a long op;
probe time is not op time.  Each op's time is multiplied by REFERENCE_PROBE_S
over the mean of the probes taken during it, or over the last probe before
it: it becomes the op's time on a machine where the probe takes
REFERENCE_PROBE_S.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PROBE_LOOPS = 20_000
REFERENCE_PROBE_S = 0.002  # probe time at the reference speed
PROBE_GAP_S = 0.05  # wall seconds between speed probes


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed now."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


class SpeedSampler:
    """Times a speed probe every PROBE_GAP_S of sampled time, from a timer signal.

    The probes run in the main thread between bytecodes, also in the middle
    of a long op; ``spent`` adds up their time so callers can take it out.
    The timer runs between ``start`` and ``stop`` only, and keeps its phase
    across a stop, so batches shorter than PROBE_GAP_S are sampled too.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0
        self._left = PROBE_GAP_S

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probes.append(speed_probe())
        self.spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._left, PROBE_GAP_S)

    def stop(self) -> None:
        self._left = signal.setitimer(signal.ITIMER_REAL, 0)[0] or PROBE_GAP_S
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int, end: int) -> float:
        """Factor for an op during which probes[first:end] were taken.

        The mean of those probes; for an op that holds none, the last probe
        before it, or the first one after it for ops before any probe.
        """
        if not self.probes:
            self.probes.append(speed_probe())
        window = self.probes[first:end] or [self.probes[max(first - 1, 0)]]
        return REFERENCE_PROBE_S * len(window) / sum(window)


def _load_program():
    sys.path.insert(0, str(SRC))
    import coarse_teich.calibration  # noqa: F401  imports every layer module
    import coarse_teich.flatsim  # noqa: F401
    import coarse_teich.search  # noqa: F401
    import coarse_teich

    return coarse_teich, coarse_teich.calibration.load_constants()


def _records(name: str) -> dict:
    path = HERE / "records" / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def run(wl, cal, seed: int, seconds: float, max_ops: int, tracer, records: dict) -> dict:
    latencies: list[float] = []
    windows: list[tuple[int, int]] = []  # per op, the probes taken during it
    kind_of: list[str] = []
    # the layer tracer's self times would take in the probes, so a traced
    # run is not sampled; its op times are all scaled by one probe
    sampler = SpeedSampler()
    failures: list[str] = []
    attempted = failed = recorded_checked = 0
    timed = 0.0
    index = 0
    while timed < seconds and len(latencies) < max_ops:
        if wl.whole_batches and index and timed * (index + 1) / index > seconds:
            break  # one more whole batch, at the mean batch time, would overrun
        ops = wl.batch(seed, index)
        index += 1
        outs = []
        if tracer is not None:
            tracer.install()
        start, spent = perf_counter(), sampler.spent
        if tracer is None:
            sampler.start()
        try:
            for op in ops:
                op_id = len(latencies)
                t0, op_spent, first = perf_counter(), sampler.spent, len(sampler.probes)
                try:
                    if tracer is not None:
                        with tracer.op_span(op_id):
                            out = wl.call(op)
                    else:
                        out = wl.call(op)
                except Exception as exc:  # checked, and failed, after the timed phase
                    out = exc
                lat = perf_counter() - t0 - (sampler.spent - op_spent)
                latencies.append(lat)
                windows.append((first, len(sampler.probes)))
                kind_of.append(op.kind)
                outs.append((op, out))
                if len(latencies) >= max_ops:
                    break
                if (not wl.whole_batches
                        and timed + perf_counter() - start - (sampler.spent - spent) >= seconds):
                    break
        finally:
            if tracer is None:
                sampler.stop()
            timed += perf_counter() - start - (sampler.spent - spent)
            if tracer is not None:
                tracer.uninstall()
        for op, out in outs:
            attempted += 1
            why = ""
            try:
                if isinstance(out, Exception):
                    raise out
                if not wl.gate(op, out, cal):
                    why = "failed the paper's gate"
                elif op.key in records:
                    recorded_checked += 1
                    if wl.encode(out) != records[op.key]:
                        why = "differs from the recorded output"
            except Exception as exc:  # a raising op or check fails that op only
                why = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            if why:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{op.key}: {why}")
    scaled = [lat * sampler.scale(*w) for lat, w in zip(latencies, windows)]
    kinds: dict[str, list[float]] = {}
    for kind, t in zip(kind_of, scaled):
        kinds.setdefault(kind, []).append(t)
    return {
        "ops": len(latencies),
        "timed_s": timed,
        "latencies": latencies,
        "scaled": scaled,
        "probes": len(sampler.probes),
        "kinds": {k: {"ops": len(v), "p50_ms": 1e3 * median(v)} for k, v in sorted(kinds.items())},
        "attempted": attempted,
        "failed": failed,
        "recorded_checked": recorded_checked,
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--max-ops", type=int, default=10**9)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="span log path (traced runs)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ct, cal = _load_program()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"probe_s": speed_probe()}), flush=True)
        return 0

    import numpy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](ct)
    tracer = None
    if args.trace:
        from tracer import LayerTracer

        tracer = LayerTracer()
    result = run(wl, cal, args.seed, args.seconds, args.max_ops, tracer,
                 _records(args.workload))
    lat = result["scaled"]
    if len(lat) >= 100:
        result["p90_ms"] = 1e3 * quantiles(lat, n=10)[-1]
    result["p50_ms"] = 1e3 * median(lat)
    result["ops_per_s"] = len(lat) / sum(lat)
    result["wall_p50_ms"] = 1e3 * median(result["latencies"])
    result["wall_ops_per_s"] = result["ops"] / result["timed_s"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    result["sizes"] = wl.sizes()
    if tracer is not None:
        result["layers"] = tracer.metrics(result["ops"])
        if args.spans:
            result["spans_written"] = tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
