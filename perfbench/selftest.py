"""Self-test of the benchmark: a tiny pass over all four workloads.

    python3 perfbench/selftest.py

Asserts that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted with its unit, that the layer tracer sees the zero-call facts
predicted for each workload (bfs_distance only on oracle, search.* only on
symmetric, flatsim.* only on flat), and that a corrupted record entry turns
into a failed op.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import ZERO_CALL_FACTS, calls_under, per_layer_metrics  # noqa: E402

TINY = {"oracle": ["--max-ops", "1"], "formula": ["--seconds", "0.3"],
        "symmetric": ["--seconds", "0.3"], "flat": ["--seconds", "0.3"]}


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--trace", str(trace), *TINY[workload]],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_units(result: dict, spec: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics {sorted(got)} differ from {sorted(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} not a number"
    assert result["correct"] and result["failed"] == 0, f"{label}: failed ops"
    assert result["attempted"] >= 1, label


def check_zero_calls(workload: str, layers: dict) -> None:
    for prefix, home in ZERO_CALL_FACTS.items():
        if workload == home:
            assert calls_under(layers, prefix) > 0, f"{workload}: no {prefix}* calls"
        else:
            assert calls_under(layers, prefix) == 0, f"{workload}: {prefix}* called"


def check_corrupted_record() -> None:
    from worker import _load_program, _records, run
    from workloads import WORKLOADS

    ct, cal = _load_program()
    wl = WORKLOADS["formula"](ct)
    records = _records("formula")
    clean = run(wl, cal, 0, 60.0, 4, None, records)
    assert clean["failed"] == 0 and clean["recorded_checked"] == 4, clean["failures"]
    records = dict(records)
    records["0:2"] += 1
    broken = run(wl, cal, 0, 60.0, 4, None, records)
    assert broken["failed"] == 1, broken["failures"]
    assert broken["failures"][0].startswith("0:2:"), broken["failures"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    derived = [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()]
    assert spec["per_layer"] == derived, "BENCHMARK.json per_layer is out of date"
    for w in spec["workloads"]:
        name = w["name"]
        check_units(bench(name, 0), spec["end_to_end"], f"{name} trace 0")
        traced = bench(name, 1)
        check_units(traced, spec["per_layer"], f"{name} trace 1")
        check_zero_calls(name, {k: m["value"] for k, m in traced["metrics"].items()})
        print(f"{name}: ok", file=sys.stderr)
    check_corrupted_record()
    print("corrupted record: reported as a failed op", file=sys.stderr)
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
