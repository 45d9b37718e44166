"""Command-line front end.

Subcommands: dist, project, fix-search, barycenter, nonqc, calibrate.
Every command reads an optional JSON config, prints one report JSON
document on stdout, and maps failures to stable exit codes: 2 parse,
3 model mismatch, 4 precondition violation (with certificate), 5 internal
assertion, 6 parameter regime.  ``calibrate --check`` exits 1 when a
refitted constant drifts from the record, and every command exits 1, with
nothing on stderr, when stdout is closed before the report is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from hashlib import sha256
from statistics import linear_regression
from typing import Optional

from . import __version__
from .calibration import (
    CalibrationConstants,
    barycenter_samples,
    calibrate,
    compare_constants,
    constant_drift,
    load_constants,
    save_constants,
)
from .flatsim import (
    FAREY_RATE,
    ParameterRegimeError,
    nonqc_experiment,
    nonqc_sweep,
)
from .marking import (
    AugMarking,
    Glue,
    GlueBlock,
    InSlot,
    SlotBlock,
    SurfaceMismatchError,
    act,
    bfs_distance,
)
from .metrics import (
    SymmetryViolationError,
    Thresholds,
    formula_distance_T,
    formula_distance_WP,
    formula_terms,
)
from .projection import Annulus, Slot, Whole, project
from .search import PreconditionError, coarse_barycenter, fixed_point_search
from .slots import Slope, transversal_at

__all__ = ["Config", "main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MODEL = 3
EXIT_PRECONDITION = 4
EXIT_ASSERTION = 5
EXIT_REGIME = 6

# largest k a config may set: the fix-search and barycenter sweeps build
# k-block markings, and their time grows faster than k (about 3 s each at
# k = 256 on a 2-vCPU Xeon, 10 s at 512)
MAX_K = 256


@dataclass(frozen=True)
class Config:
    """Run configuration; JSON file fields override these defaults."""

    K: int = 3
    K_hat: int = 4
    R: int = 10
    k: int = 2
    c: float = 0.1
    delta: Optional[float] = None
    d_grid: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    calibration: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        self.thresholds()  # Thresholds validates K, K_hat and R
        if not 2 <= self.k <= MAX_K:
            raise ValueError(f"the model needs 2 <= k <= {MAX_K}")
        if not self.d_grid:
            raise ValueError("d_grid is empty")

    def thresholds(self) -> Thresholds:
        return Thresholds(K=self.K, K_hat=self.K_hat, R=self.R)

    @staticmethod
    def from_json(data) -> "Config":
        """Parse a config object: integers for K, K_hat, R, k and seed, a
        finite number for c, a finite number or null for delta, a list of
        finite numbers for d_grid, and a string or null for calibration.
        Bools are not numbers here.  Anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a config is a JSON object")
        extra = set(data) - set(Config.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        for name, value in data.items():
            if name in ("K", "K_hat", "R", "k", "seed"):
                ok = type(value) is int
            elif name == "c":
                ok = _finite(value)
            elif name == "delta":
                ok = value is None or _finite(value)
            elif name == "d_grid":
                ok = type(value) is list and all(_finite(d) for d in value)
            else:
                ok = value is None or type(value) is str
            if not ok:
                raise ValueError(f"config {name}={value!r} has a wrong type or range")
        if "d_grid" in data:
            data = dict(data, d_grid=tuple(float(d) for d in data["d_grid"]))
        return Config(**data)


def _finite(value) -> bool:
    """A non-bool number within the range of finite floats."""
    top = sys.float_info.max
    return type(value) in (int, float) and -top <= value <= top


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return sha256(blob).hexdigest()[:12]


def _read_marking(path: str) -> AugMarking:
    with open(path, encoding="utf-8") as fh:
        return AugMarking.from_json(json.load(fh))


def _ref_label(ref) -> str:
    if isinstance(ref, Whole):
        return "whole"
    if isinstance(ref, Slot):
        return f"slot:{ref.i}"
    c = ref.curve if isinstance(ref, Annulus) else ref
    if isinstance(c, Glue):
        return f"glue:{c.j}"
    return f"slot{c.slot}:{c.slope}"


def _report(command: str, inputs, outputs: dict, t0: float, consts) -> int:
    rep = {
        "command": command,
        "inputs_digest": _digest(inputs),
        "outputs": outputs,
        "wall_time": round(time.perf_counter() - t0, 4),
        "calibration": consts.to_json(),
        "calibration_digest": consts.digest(),
        "version": __version__,
    }
    print(json.dumps(rep, indent=2, sort_keys=True))
    return EXIT_OK


def _write_csv(path: Optional[str], header: list[str], rows: list[list]) -> None:
    if path is None:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_dist(args, cfg: Config) -> int:
    t0 = time.perf_counter()
    consts = load_constants(cfg.calibration)
    th = cfg.thresholds()
    m1, m2 = _read_marking(args.first), _read_marking(args.second)
    outputs = {
        "formula_distance_T": formula_distance_T(m1, m2, th),
        "formula_distance_WP": formula_distance_WP(m1, m2, th),
        "terms": [
            {"subsurface": _ref_label(ref), "value": v, "contribution": c}
            for ref, v, c in formula_terms(m1, m2, th)
        ],
    }
    if args.oracle:
        outputs["bfs_distance"] = bfs_distance(m1, m2)
    return _report("dist", [m1.to_json(), m2.to_json()], outputs, t0, consts)


def cmd_project(args, cfg: Config) -> int:
    t0 = time.perf_counter()
    consts = load_constants(cfg.calibration)
    m = _read_marking(args.marking)
    if args.slot is not None:
        ref = Slot(args.slot)
    elif args.glue is not None:
        ref = Annulus(Glue(args.glue))
    elif args.annulus is not None:
        slot_str, slope_str = args.annulus.split(":", 1)
        ref = Annulus(InSlot(int(slot_str), Slope.parse(slope_str)))
    else:
        ref = Whole()
    image = project(ref, m)
    if isinstance(image, SlotBlock):
        out = {"base": str(image.base), "trans": str(image.trans), "D": image.D}
    elif isinstance(image, (list, tuple, set, frozenset)):
        out = {"base_curves": sorted(_ref_label(c) for c in image)}
    else:
        out = {"x": image.x, "level": image.level}
    outputs = {"subsurface": _ref_label(ref), "projection": out}
    return _report("project", [m.to_json(), _ref_label(ref)], outputs, t0, consts)


def _planted_search_instance(k: int, magnitude: int) -> AugMarking:
    base = Slope(1, 2)
    glue = tuple(GlueBlock(magnitude + (j % 2), 0) for j in range(k))
    slots = tuple(
        SlotBlock(base, transversal_at(base, -magnitude + (i % 2)), 0)
        for i in range(k)
    )
    return AugMarking(glue, slots)


def cmd_fix_search(args, cfg: Config) -> int:
    t0 = time.perf_counter()
    consts = load_constants(cfg.calibration)
    th = cfg.thresholds()
    if args.sweep:
        rows = []
        for exp in range(1, 7):
            mu = _planted_search_instance(cfg.k, 10**exp)
            x, trace = fixed_point_search(mu, th)
            rows.append([10**exp, trace.final_distance])
        _write_csv(args.out, ["magnitude", "final_distance"], rows)
        finals = [max(1, r[1]) for r in rows]
        outputs = {
            "rows": rows,
            "flatness": max(finals) / min(finals),
        }
        return _report("fix-search", {"sweep": cfg.k}, outputs, t0, consts)
    mu = _read_marking(args.marking)
    # the search asserts this bound itself
    x, trace = fixed_point_search(mu, th)
    bound = th.final_bound(mu.k)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(trace.to_json_str())
    print(
        f"final_distance {trace.final_distance} <= {bound}",
        file=sys.stderr,
    )
    outputs = {
        "fixed_point": x.to_json(),
        "final_distance": trace.final_distance,
        "bound": bound,
        "stages": len(trace.stages),
        "trace": trace.to_json(),
    }
    return _report("fix-search", mu.to_json(), outputs, t0, consts)


def cmd_barycenter(args, cfg: Config) -> int:
    t0 = time.perf_counter()
    consts = load_constants(cfg.calibration)
    th = cfg.thresholds()
    if args.sweep:
        xs, ys = [], []
        for x, y in barycenter_samples(cfg.k, th, cfg.seed, 300):
            xs.append(x)
            ys.append(y)
        slope, intercept = linear_regression(xs, ys)
        outputs = {
            "instances": len(xs),
            "slope": round(slope, 4),
            "intercept": round(intercept, 4),
            "K_tilde": consts.K_tilde,
            "C_tilde": consts.C_tilde,
            "within_calibration": bool(
                slope <= consts.K_tilde and intercept <= consts.C_tilde
            ),
        }
        return _report("barycenter", {"sweep": cfg.k}, outputs, t0, consts)
    sigma = _read_marking(args.marking)
    try:
        bary = coarse_barycenter(sigma, args.generator, th)
    except ValueError as err:
        # an invalid generator is a model mismatch, not a parse failure
        raise SurfaceMismatchError(str(err)) from err
    displacement = formula_distance_T(sigma, act(args.generator, sigma), th)
    distance = formula_distance_T(sigma, bary, th)
    outputs = {
        "barycenter": bary.to_json(),
        "distance": distance,
        "displacement": displacement,
        "ratio": round(distance / max(1, displacement), 4),
    }
    return _report(
        "barycenter", [sigma.to_json(), args.generator], outputs, t0, consts
    )


_NONQC_HEADER = [
    "t",
    "orbit_diam",
    "dist_to_fixed",
    "slot1_slope",
    "slot2_slope",
    "glue_loglen",
]


def _nonqc_rows(res) -> list[list]:
    return [
        [
            row.t,
            round(row.orbit_diam, 6),
            round(row.dist_to_fixed, 6),
            str(row.slot_slopes[0]),
            str(row.slot_slopes[1]),
            round(row.glue_loglen, 6),
        ]
        for row in res.rows
    ]


def _nonqc_checks(res, consts: CalibrationConstants) -> dict:
    return {
        "endpoints_flat": bool(
            max(res.endpoint_max, res.ref_start_gap, res.ref_end_gap) <= consts.E0
        ),
        "midpoint_large": bool(res.midpoint >= consts.c1 * res.d - consts.c2),
        "peak_near_midpoint": bool(0.8 * res.d <= res.peak_t <= 1.2 * res.d),
    }


def cmd_nonqc(args, cfg: Config) -> int:
    t0 = time.perf_counter()
    consts = load_constants(cfg.calibration)
    th = cfg.thresholds()
    if args.sweep:
        if len(set(cfg.d_grid)) < 2:
            raise ValueError("nonqc --sweep fits a line: d_grid needs two distinct values")
        results, slope, intercept = nonqc_sweep(cfg.d_grid, c=cfg.c, delta=cfg.delta, th=th)
        per_d = []
        for res in results:
            checks = _nonqc_checks(res, consts)
            assert all(checks.values()), f"claims failed at d={res.d}: {checks}"
            per_d.append(
                {
                    "d": res.d,
                    "midpoint": round(res.midpoint, 4),
                    "peak_t": res.peak_t,
                    "endpoint_max": round(res.endpoint_max, 4),
                    "checks": checks,
                }
            )
        rate_ok = 0.5 * FAREY_RATE <= slope <= 2.0 * FAREY_RATE
        assert rate_ok, f"midpoint slope {slope} outside the Farey-rate window"
        outputs = {
            "per_d": per_d,
            "slope": round(slope, 4),
            "intercept": round(intercept, 4),
            "farey_rate": round(FAREY_RATE, 4),
            "slope_in_window": bool(rate_ok),
        }
        _write_csv(
            args.out,
            ["d", "midpoint", "peak_t", "endpoint_max"],
            [[p["d"], p["midpoint"], p["peak_t"], p["endpoint_max"]] for p in per_d],
        )
        inputs = {"sweep": list(cfg.d_grid), "c": cfg.c, "delta": cfg.delta}
        return _report("nonqc", inputs, outputs, t0, consts)
    d = args.d if args.d is not None else cfg.d_grid[0]
    res = nonqc_experiment(d, c=cfg.c, delta=cfg.delta, th=th)
    checks = _nonqc_checks(res, consts)
    assert all(checks.values()), f"claims failed at d={d}: {checks}"
    rows = _nonqc_rows(res)
    _write_csv(args.out, _NONQC_HEADER, rows)
    for name, ok in checks.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}", file=sys.stderr)
    outputs = {
        "d": res.d,
        "c": res.c,
        "delta": res.delta,
        "rows": rows,
        "peak_t": res.peak_t,
        "peak_value": round(res.peak_value, 6),
        "midpoint": round(res.midpoint, 6),
        "endpoint_max": round(res.endpoint_max, 6),
        "checks": checks,
    }
    return _report("nonqc", {"d": d, "c": cfg.c, "delta": cfg.delta}, outputs, t0, consts)


def cmd_calibrate(args, cfg: Config) -> int:
    t0 = time.perf_counter()
    fresh = calibrate(seed=cfg.seed, th=cfg.thresholds())
    if args.check:
        old = load_constants(cfg.calibration)
        drifted = compare_constants(old, fresh)
        outputs = {
            "recorded_digest": old.digest(),
            "fresh_digest": fresh.digest(),
            "drift": constant_drift(old, fresh),
            "drifted": drifted,
        }
        code = _report("calibrate", {"check": True}, outputs, t0, fresh)
        return code if not drifted else 1
    path = save_constants(fresh, cfg.calibration)
    outputs = {"path": str(path), "constants": fresh.to_json()}
    return _report("calibrate", {"check": False}, outputs, t0, fresh)


# ---------------------------------------------------------------------------
# Parsing and dispatch.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarse-teich",
        description="Coarse model of Teichmuller space: distances, "
        "projections, fixed-point search, barycenters, experiments.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance formulas between two markings")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--oracle", action="store_true", help="include the move distance (bfs_distance)")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("project", help="subsurface projection of a marking")
    p.add_argument("marking")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--slot", type=int)
    group.add_argument("--glue", type=int)
    group.add_argument("--annulus", metavar="SLOT:P/Q")
    group.add_argument("--whole", action="store_true")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("fix-search", help="staged symmetric multitwist search")
    p.add_argument("marking", nargs="?")
    p.add_argument("--sweep", action="store_true", help="magnitude sweep CSV")
    p.add_argument("--out", metavar="PATH", help="trace or CSV output file")
    p.set_defaults(func=cmd_fix_search)

    p = sub.add_parser("barycenter", help="coarse barycenter of a finite orbit")
    p.add_argument("marking", nargs="?")
    p.add_argument("--generator", type=int, default=1)
    p.add_argument("--sweep", action="store_true", help="linearity regression")
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("nonqc", help="flat slit-torus orbit-diameter experiment")
    p.add_argument("--d", type=float, help="single flow scale (default: grid[0])")
    p.add_argument("--sweep", action="store_true", help="full d grid with fit")
    p.add_argument("--out", metavar="PATH", help="CSV output file")
    p.set_defaults(func=cmd_nonqc)

    p = sub.add_parser("calibrate", help="fit and write pinned constants")
    p.add_argument("--check", action="store_true", help="compare, do not write")
    p.set_defaults(func=cmd_calibrate)
    return parser


def _load_config(args) -> Config:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = Config.from_json(json.load(fh))
    else:
        cfg = Config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(parser, args)
        # a closed stdout shows here, not in the interpreter's final flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # as the Python docs advise: the final flush then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(parser: argparse.ArgumentParser, args) -> int:
    """Run the subcommand, mapping each failure to its exit code."""
    try:
        cfg = _load_config(args)
        if args.command in ("fix-search", "barycenter") and not args.sweep:
            if args.marking is None:
                parser.error(f"{args.command} needs a marking file or --sweep")
        return args.func(args, cfg)
    except BrokenPipeError:
        # an OSError, but of stdout, not of an input: main handles it
        raise
    except PreconditionError as err:
        print(
            json.dumps(
                {"error": "precondition", "message": str(err),
                 "certificate": err.certificate.to_json()},
                indent=2,
                sort_keys=True,
            )
        )
        return EXIT_PRECONDITION
    except SurfaceMismatchError as err:
        print(json.dumps({"error": "model", "message": str(err)}))
        return EXIT_MODEL
    except ParameterRegimeError as err:
        print(json.dumps({"error": "regime", "message": str(err)}))
        return EXIT_REGIME
    except (SymmetryViolationError, AssertionError) as err:
        print(json.dumps({"error": "assertion", "message": str(err)}))
        return EXIT_ASSERTION
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as err:
        print(json.dumps({"error": "parse", "message": str(err)}))
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
