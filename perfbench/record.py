"""Record exact op outputs for the benchmark's output checks.

    python3 perfbench/record.py            # rewrite perfbench/records/*.json

Run from the root of a source checkout, at the commit whose outputs become
the reference.  A later commit whose outputs differ on a recorded op fails
that op in every benchmark run that reaches it.  Oracle and flat inputs come
from fixed decks, so every one of their ops is recorded; formula and
symmetric ops are recorded for the first ops of seeds 0..SEEDS-1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import _load_program  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = 100
PREFIX_BATCHES = {"formula": 2, "symmetric": 2}  # batches recorded per seed


def main() -> int:
    ct, _cal = _load_program()
    (HERE / "records").mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        wl = cls(ct)
        if name in PREFIX_BATCHES:
            ops = [op for seed in range(SEEDS) for i in range(PREFIX_BATCHES[name])
                   for op in wl.batch(seed, i)]
            scope = f"first {PREFIX_BATCHES[name]} batches of seeds 0..{SEEDS - 1}"
        else:
            ops = wl.batch(0, 0)
            scope = "every op (fixed deck)"
        entries = {op.key: wl.encode(wl.call(op)) for op in ops}
        path = HERE / "records" / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "scope": scope, "entries": entries}, fh,
                      sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(entries)} ops -> {path.relative_to(HERE.parent)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
