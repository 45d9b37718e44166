"""Layered benchmark of coarse_teich: one workload per invocation.

    python3 perfbench/run.py --workload formula --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5     # every workload, one table

Run from the root of a source checkout; the package is imported from ./src.
Every workload process is single-threaded and runs alone: set-up probes
first, then the workload process, never two at once.

--trace 0 reports the end-to-end metrics of an untraced run, with its times
scaled to a reference machine speed (see worker.py); the wall-clock figures
go to the full result.  --trace 1 runs the workload under the layer tracer
and reports the per-layer metrics; it then reruns its first ops untraced, as
many as took a third of --seconds traced, to measure the tracer's overhead
on them.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A readable summary goes to stderr, and the
full result with its environment stamp to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import per_layer_metrics
from worker import REFERENCE_PROBE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_PROBES = 7  # fresh processes timed to ready; the median is setup_s
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# BLAS and OpenMP pools stay at one thread in every workload process
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # bytecode is read from and written to a cache of the benchmark's own,
    # which the warm-up probe fills, so setup_s does not depend on whether a
    # __pycache__ happens to lie in src/ (a test run leaves one)
    "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up probe must fill the cache
    env.pop("COARSE_TEICH_CALIBRATION", None)  # always the packaged record
    return env


def _worker(args: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to ready, final JSON)."""
    t0 = perf_counter()
    # unbuffered, so readline takes no bytes past "ready" that communicate
    # would then miss
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, bufsize=0,
    )
    try:
        first = proc.stdout.readline().decode()
        ready = perf_counter() - t0
        rest = proc.communicate(timeout=CHILD_TIMEOUT_S)[0].decode()
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {args} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {args} failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall and scaled set-up seconds of SETUP_PROBES fresh processes."""
    # warms the OS file cache and fills the bytecode cache; not counted
    _worker(["--workload", "oracle", "--setup-only"])
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        ready, res = _worker(["--workload", "oracle", "--setup-only"])
        wall.append(ready)
        scaled.append(ready * REFERENCE_PROBE_S / res["probe_s"])
    return wall, scaled


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "coarse_teich").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:12]


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(worker_result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": worker_result["python"],
        "numpy": worker_result["numpy"],
        "commit": _git_commit(),
        "src_digest": _src_digest(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int,
            max_ops: int | None = None) -> dict:
    OUT.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    base = common + ([] if max_ops is None else ["--max-ops", str(max_ops)])
    if not trace:
        wall_setups, setups = setup_seconds()
        _, res = _worker(base)
        metrics = {
            "setup_s": median(setups),
            "ops_per_s": res["ops_per_s"],
            "latency_p50_ms": res["p50_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        extra = {"setup_samples_s": setups, "wall": {
            "setup_s": median(wall_setups), "ops_per_s": res["wall_ops_per_s"],
            "latency_p50_ms": res["wall_p50_ms"], "probes": res["probes"],
        }}
    else:
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
        _, res = _worker(base + ["--trace", "1", "--spans", str(spans)])
        # the untraced rerun takes the traced run's first ops worth a third
        # of --seconds, so the overhead compares the same ops
        n, spent = 0, 0.0
        while n < res["ops"] and spent < seconds / 3:
            spent += res["latencies"][n]
            n += 1
        _, plain = _worker(common + ["--max-ops", str(n)])
        layers = dict(res["layers"])
        layers["trace.overhead_ratio"] = (
            sum(res["latencies"][:n]) / sum(plain["latencies"][:n]) - 1
        )
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        extra = {"overhead_ops": n, "spans": str(spans.relative_to(ROOT)),
                 "traced_op_s": res["timed_s"] / res["ops"]}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(res), "sizes": res["sizes"],
        "ops": res["ops"], "timed_s": res["timed_s"], "kinds": res["kinds"],
        "failed_ratio": res["failed"] / res["attempted"],
        "recorded_checked": res["recorded_checked"], "failures": res["failures"],
        "latency_p90_ms": res.get("p90_ms"), **extra, "result": result,
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail, indent=1))
    summarize(detail)
    return result


def summarize(detail: dict) -> None:
    r = detail["result"]
    lines = [f"[{detail['workload']}] seed={detail['seed']} ops={detail['ops']} "
             f"failed_ratio={detail['failed_ratio']:.4g} ({r['failed']}/{r['attempted']}, "
             f"{detail['recorded_checked']} against the record)"]
    if not detail["trace"]:
        wall = detail["wall"]
        for name, m in r["metrics"].items():
            raw = f" (wall {wall[name]:.6g})" if name in wall else ""
            lines.append(f"  {name} = {m['value']:.6g} {m['unit']}{raw}")
        lines.append(f"  op times scaled by {wall['probes']} speed probes")
        p90 = detail["latency_p90_ms"]
        lines.append(
            f"  latency_p90_ms = {p90:.6g} ms over {detail['ops']} ops" if p90 is not None
            else f"  latency_p90_ms not reported: {detail['ops']} ops < 100"
        )
    else:
        busy = sorted(((m["value"], n) for n, m in r["metrics"].items()
                       if n.endswith(".self_s") and m["value"]), reverse=True)
        for value, name in busy[:8]:
            lines.append(f"  {name} = {value:.4g} s/op")
        ov = r["metrics"]["trace.overhead_ratio"]["value"]
        lines.append(f"  trace.overhead_ratio = {ov:.3f} over {detail['overhead_ops']} ops")
    for f in detail["failures"]:
        lines.append(f"  FAILED {f}")
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, help="stop after this many ops (self-test)")
    args = ap.parse_args(argv)
    if not (SRC / "coarse_teich" / "__init__.py").is_file():
        print(f"no coarse_teich package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            results = [run_one(w, args.seed, args.seconds, args.trace, args.max_ops)
                       for w in WORKLOADS]
            return 0 if all(r["correct"] for r in results) else 1
        result = run_one(args.workload, args.seed, args.seconds, args.trace, args.max_ops)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
