"""Measure a baseline: every workload over several seeds, one at a time.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json it runs ``run.py --trace 0`` once per
seed in SEEDS and records each end-to-end metric's values, median and
quartile spread (the distance between the first and third quartile, as a
share of the median).  It then makes one traced run per workload (the first
seed), keeps its per-layer metrics, and checks against them the layer
predictions listed in README.md that one traced run per workload can show.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from tracer import ZERO_CALL_FACTS, calls_under

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)  # ten seeds, as the quartile spread is read


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=200,
    )
    detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return detail["result"], detail


def predictions(layers: dict[str, dict[str, float]], traced_op_s: dict[str, float]) -> dict:
    """The layer predictions that can be read off one traced run per workload."""

    def self_s(workload: str, prefix: str) -> float:
        return sum(v for k, v in layers[workload].items()
                   if k.startswith(prefix) and k.endswith(".self_s"))

    oracle_selfs = {k: v for k, v in layers["oracle"].items() if k.endswith(".self_s")}
    formula_share = sum(self_s("formula", p) for p in ("slots.", "projection.", "metrics."))
    formula_share /= traced_op_s["formula"]
    out = {
        "oracle: marking.bfs_distance.self_s is the largest self time":
            max(oracle_selfs, key=oracle_selfs.get) == "marking.bfs_distance.self_s",
        f"formula: slots+projection+metrics carry most self time ({formula_share:.2f} of traced op time)":
            formula_share > 0.5,
    }
    for prefix, home in ZERO_CALL_FACTS.items():
        out[f"{prefix}* is called only on {home}"] = (
            calls_under(layers[home], prefix) > 0
            and all(calls_under(v, prefix) == 0 for w, v in layers.items() if w != home)
        )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "out" / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(SEEDS)
    workloads = [w["name"] for w in spec["workloads"]]
    report: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    layers, traced_op_s = {}, {}
    for w in workloads:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for s in seeds:
            result, detail = bench(w, s, seconds, 0)
            report["environment"] = detail["environment"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, s, {k: round(v[-1], 4) for k, v in values.items()}, file=sys.stderr)
        row = {"sizes": detail["sizes"], "failed": failed, "attempted": attempted, "metrics": {}}
        for name, v in values.items():
            q = quantiles(v, n=4)
            row["metrics"][name] = {
                "values": v, "median": median(v), "iqr_share": (q[2] - q[0]) / median(v),
            }
            print(f"  {w} {name}: median {median(v):.6g}, spread "
                  f"{(q[2] - q[0]) / median(v):.3f}", file=sys.stderr)
        result, detail = bench(w, seeds[0], seconds, 1)
        layers[w] = {k: m["value"] for k, m in result["metrics"].items()}
        traced_op_s[w] = detail["traced_op_s"]
        row["per_layer_seed"] = seeds[0]
        row["per_layer"] = layers[w]
        report["workloads"][w] = row
    report["predictions"] = predictions(layers, traced_op_s)
    for claim, ok in report["predictions"].items():
        print(f"{'holds' if ok else 'FAILS'}: {claim}", file=sys.stderr)
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
