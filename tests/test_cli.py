"""Tests for the command-line front end: plumbing identities and exit codes."""

import ast
import copy
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import coarse_teich
from coarse_teich.calibration import ENV_VAR, load_constants, sample_marking, save_constants
from coarse_teich.cli import MAX_K, Config, main
from coarse_teich.horoball import HoroPoint, horo_distance
from coarse_teich.marking import AugMarking, GlueBlock, SlotBlock, act, bfs_distance
from coarse_teich.metrics import Thresholds, formula_distance_T, formula_distance_WP
from coarse_teich.search import coarse_barycenter, fixed_point_search, is_fixed
from coarse_teich.slots import Slope, farey_distance, transversal_at

TH = Thresholds()


def write_marking(path, m: AugMarking) -> str:
    path.write_text(m.to_json_str())
    return str(path)


def flat(k: int = 2) -> AugMarking:
    return AugMarking(
        (GlueBlock(0, 0),) * k,
        (SlotBlock(Slope(0, 1), Slope(1, 0), 0),) * k,
    )


def offset_pair() -> tuple[AugMarking, AugMarking]:
    m1 = flat()
    m2 = AugMarking(
        (GlueBlock(25, 0), GlueBlock(0, 0)),
        (SlotBlock(Slope(5, 2), transversal_at(Slope(5, 2), 1), 1), m1.slots[1]),
    )
    return m1, m2


def planted_symmetric() -> AugMarking:
    base = Slope(1, 2)
    return AugMarking(
        (GlueBlock(1000, 0), GlueBlock(1001, 0)),
        (
            SlotBlock(base, transversal_at(base, -1000), 0),
            SlotBlock(base, transversal_at(base, -999), 0),
        ),
    )


def run(capsys, *argv) -> tuple[int, dict, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_config_validation():
    with pytest.raises(ValueError):
        Config(K=3, K_hat=2)
    with pytest.raises(ValueError):
        Config(k=1)
    with pytest.raises(ValueError):
        Config.from_json({"no_such_field": 1})
    assert Config.from_json({"d_grid": [5, 10]}).d_grid == (5.0, 10.0)
    assert Config().thresholds() == TH


def test_dist_matches_library_exactly(tmp_path, capsys):
    m1, m2 = offset_pair()
    f1 = write_marking(tmp_path / "a.json", m1)
    f2 = write_marking(tmp_path / "b.json", m2)
    code, rep, _ = run(capsys, "dist", f1, f2, "--oracle")
    assert code == 0
    out = rep["outputs"]
    assert out["formula_distance_T"] == formula_distance_T(m1, m2, TH)
    assert out["formula_distance_WP"] == formula_distance_WP(m1, m2, TH)
    assert out["bfs_distance"] == bfs_distance(m1, m2)
    assert sum(t["contribution"] for t in out["terms"]) == out["formula_distance_T"]
    assert rep["calibration_digest"] == load_constants().digest()
    assert rep["command"] == "dist" and rep["wall_time"] >= 0


def test_dist_totals_are_sums_of_the_reported_terms(tmp_path, capsys):
    rng = random.Random(609)
    pairs = [offset_pair()]
    for _ in range(4):
        k = rng.randint(2, 4)
        pairs.append((sample_marking(rng, k, 40, 3), sample_marking(rng, k, 40, 3)))
    annular_seen = False
    for m1, m2 in pairs:
        f1 = write_marking(tmp_path / "a.json", m1)
        f2 = write_marking(tmp_path / "b.json", m2)
        code, rep, _ = run(capsys, "dist", f1, f2)
        assert code == 0
        out = rep["outputs"]
        contrib = {t["subsurface"]: t["contribution"] for t in out["terms"]}
        non_annular = [
            c for label, c in contrib.items()
            if label == "whole" or label.startswith("slot:")
        ]
        assert out["formula_distance_T"] == formula_distance_T(m1, m2, TH)
        assert out["formula_distance_T"] == sum(contrib.values())
        assert out["formula_distance_WP"] == formula_distance_WP(m1, m2, TH)
        assert out["formula_distance_WP"] == sum(non_annular)
        annular_seen |= out["formula_distance_T"] > out["formula_distance_WP"]
    assert annular_seen


def test_dist_identical_files_is_zero(tmp_path, capsys):
    f1 = write_marking(tmp_path / "a.json", flat())
    code, rep, _ = run(capsys, "dist", f1, f1)
    assert code == 0
    assert rep["outputs"]["formula_distance_T"] == 0
    assert rep["outputs"]["formula_distance_WP"] == 0


def test_dist_error_exit_codes(tmp_path, capsys):
    f2 = write_marking(tmp_path / "two.json", flat(2))
    f3 = write_marking(tmp_path / "three.json", flat(3))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, rep, _ = run(capsys, "dist", f2, f3)
    assert code == 3 and rep["error"] == "model"
    code, rep, _ = run(capsys, "dist", str(bad), f2)
    assert code == 2 and rep["error"] == "parse"
    code, rep, _ = run(capsys, "dist", str(tmp_path / "missing.json"), f2)
    assert code == 2
    # an overflowing twist, a fractional level, a boolean level and two
    # strings that int() would parse
    cases = (("tau", "1e400"), ("D", "2.5"), ("D", "true"), ("tau", '"5"'), ("D", '" 1_0 "'))
    for i, (field, text) in enumerate(cases):
        f = tmp_path / f"field{i}.json"
        f.write_text(flat(2).to_json_str().replace(f'"{field}": 0', f'"{field}": {text}', 1))
        code, rep, _ = run(capsys, "dist", str(f), f2)
        assert code == 2 and rep["error"] == "parse"


def test_project_selectors(tmp_path, capsys):
    _, m2 = offset_pair()
    f = write_marking(tmp_path / "m.json", m2)
    code, rep, _ = run(capsys, "project", f, "--glue", "0")
    assert code == 0
    assert rep["outputs"]["projection"] == {"x": 25, "level": 0}
    code, rep, _ = run(capsys, "project", f, "--slot", "0")
    assert rep["outputs"]["projection"]["base"] == "5/2"
    code, rep, _ = run(capsys, "project", f, "--annulus", "0:5/2")
    assert rep["outputs"]["projection"]["level"] == 1
    code, rep, _ = run(capsys, "project", f, "--whole")
    assert "slot0:5/2" in rep["outputs"]["projection"]["base_curves"]


def test_project_rejects_out_of_range_indices(tmp_path, capsys):
    # a wrapped index would report another block's data under the asked label
    _, m2 = offset_pair()
    f = write_marking(tmp_path / "m.json", m2)
    for argv in (("--slot", "5"), ("--slot", "-1"), ("--glue", "7"), ("--annulus", "9:1/2")):
        code, rep, _ = run(capsys, "project", f, *argv)
        assert code == 3 and rep["error"] == "model", argv


def test_fix_search_fixed_input(tmp_path, capsys):
    f = write_marking(tmp_path / "m.json", flat())
    code, rep, err = run(capsys, "fix-search", f)
    assert code == 0
    assert rep["outputs"]["final_distance"] == 0
    assert rep["outputs"]["stages"] == 0
    assert "final_distance 0 <=" in err


def test_fix_search_planted_matches_library(tmp_path, capsys):
    mu = planted_symmetric()
    f = write_marking(tmp_path / "m.json", mu)
    trace_file = tmp_path / "trace.json"
    code, rep, _ = run(capsys, "fix-search", f, "--out", str(trace_file))
    assert code == 0
    x, trace = fixed_point_search(mu, TH)
    assert rep["outputs"]["fixed_point"] == x.to_json()
    assert rep["outputs"]["final_distance"] == trace.final_distance
    assert rep["outputs"]["stages"] == len(trace.stages) == 2
    on_disk = json.loads(trace_file.read_text())
    assert on_disk == trace.to_json()
    assert on_disk["version"] == 1


def test_fix_search_precondition_certificate(tmp_path, capsys):
    far = AugMarking(
        (GlueBlock(10**6, 0), GlueBlock(0, 0)),
        (SlotBlock(Slope(0, 1), Slope(1, 0), 0),) * 2,
    )
    f = write_marking(tmp_path / "far.json", far)
    code, rep, _ = run(capsys, "fix-search", f)
    assert code == 4
    assert rep["error"] == "precondition"
    assert rep["certificate"]["diameter"] > TH.R


def test_fix_search_short_slot_orbit_exits_zero(tmp_path, capsys):
    # orbit diameter 10: a short slot orbit on one base, levels 38 and 42;
    # the seed copies slot 0, so that family member reads 0
    f = tmp_path / "m.json"
    f.write_text(json.dumps({
        "glue": [{"tau": 109, "D": 38}, {"tau": 82, "D": 39}],
        "slots": [{"base": "2/1", "trans": "151/75", "D": 38},
                  {"base": "2/1", "trans": "125/62", "D": 42}],
    }))
    code, rep, _ = run(capsys, "fix-search", str(f))
    assert code == 0
    out = AugMarking.from_json(rep["outputs"]["fixed_point"])
    assert out == act(1, out)
    assert rep["outputs"]["final_distance"] <= 2 * TH.R


def test_fix_search_with_K_past_R_plus_2_exits_zero(tmp_path, capsys):
    # orbit diameter 0 at K = 20: the gluing levels 40 and 25 differ by more
    # than R + 2, but their row is below K, so the input is certified
    f = tmp_path / "m.json"
    f.write_text(json.dumps({
        "glue": [{"tau": 0, "D": 40}, {"tau": 0, "D": 25}],
        "slots": [{"base": "1/2", "trans": "1/1", "D": 0}] * 2,
    }))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 20, "K_hat": 20, "R": 10}))
    code, rep, _ = run(capsys, "--config", str(cfg), "fix-search", str(f))
    assert code == 0
    out = AugMarking.from_json(rep["outputs"]["fixed_point"])
    assert out == act(1, out)
    assert rep["outputs"]["final_distance"] == 0


def test_fix_search_sweep_is_flat(tmp_path, capsys):
    csv_file = tmp_path / "sweep.csv"
    code, rep, _ = run(capsys, "fix-search", "--sweep", "--out", str(csv_file))
    assert code == 0
    rows = rep["outputs"]["rows"]
    assert [m for m, _ in rows] == [10**e for e in range(1, 7)]
    assert rep["outputs"]["flatness"] <= 1.5
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "magnitude,final_distance"
    assert len(lines) == 7


def _slots(base: str, *cells: tuple[str, int]) -> list[dict]:
    return [{"base": base, "trans": trans, "D": d} for trans, d in cells]


# Certified inputs that the search refused while its bounds were fixed
# numbers: a stage residual of 19 at R = 40 and of 15 at K = 20, both past
# a bound of 14, and a final distance of 12 at R = 5, past 2R.
SEARCH_REPRODUCERS = {
    "R40": ({"R": 40}, {
        "glue": [{"tau": 1, "D": 0}, {"tau": 0, "D": 0}, {"tau": 1, "D": 0}],
        "slots": _slots("0/1", ("1/0", 85), ("-1/3", 84), ("-1/1", 67)),
    }),
    "R5": ({"R": 5}, {
        "glue": [{"tau": 4, "D": 0}] * 3,
        "slots": _slots("0/1", ("1/2", 24), ("1/3", 24), ("1/3", 24)),
    }),
    "K20": ({"K": 20, "K_hat": 20, "R": 10}, {
        "glue": [{"tau": 19126, "D": 17}, {"tau": 19244, "D": 21},
                 {"tau": 19309, "D": 19}, {"tau": 19233, "D": 24}],
        "slots": _slots("2/1", ("37713/18856", 0), ("37285/18642", 0),
                        ("37001/18500", 0), ("36087/18043", 0)),
    }),
}


@pytest.mark.parametrize("name", sorted(SEARCH_REPRODUCERS))
def test_fix_search_certified_input_at_other_thresholds_exits_zero(tmp_path, capsys, name):
    config, marking = SEARCH_REPRODUCERS[name]
    cfg, f = tmp_path / "cfg.json", tmp_path / "m.json"
    cfg.write_text(json.dumps(config))
    f.write_text(json.dumps(marking))
    code, rep, _ = run(capsys, "--config", str(cfg), "fix-search", str(f))
    assert code == 0, rep
    out = rep["outputs"]
    assert is_fixed(AugMarking.from_json(out["fixed_point"]))
    th = Config.from_json(config).thresholds()
    assert out["bound"] == th.final_bound(len(marking["glue"]))
    assert out["final_distance"] <= out["bound"]


def test_fix_search_reports_the_derived_bound(tmp_path, capsys):
    # (k - 1) R + k (max(K + max(K, R), K_hat) + K_hat) = 10 + 2 * 17 at k = 2
    f = write_marking(tmp_path / "m.json", planted_symmetric())
    code, rep, err = run(capsys, "fix-search", f)
    assert code == 0
    assert rep["outputs"]["bound"] == TH.final_bound(2) == 44
    assert err.strip() == f"final_distance {rep['outputs']['final_distance']} <= 44"


def test_fix_search_on_a_401_digit_gluing_level_exits_zero(tmp_path, capsys):
    # the seed's level is an exact rounded mean: a float mean cannot hold it
    level = 10**400
    f = tmp_path / "m.json"
    f.write_text(json.dumps({
        "glue": [{"tau": 0, "D": level}] * 2,
        "slots": _slots("0/1", ("1/0", 0), ("1/1", 0)),
    }))
    code, rep, _ = run(capsys, "fix-search", str(f))
    assert code == 0, rep
    out = AugMarking.from_json(rep["outputs"]["fixed_point"])
    assert is_fixed(out) and out.glue[0] == GlueBlock(0, level)


def test_fix_search_seed_level_is_the_exact_rounded_mean(tmp_path, capsys):
    # levels 10^20 and 10^20 + 3 round half up to 10^20 + 2; a float mean
    # lands on 10^20
    level = 10**20
    f = tmp_path / "m.json"
    f.write_text(json.dumps({
        "glue": [{"tau": 0, "D": level}, {"tau": 0, "D": level + 3}],
        "slots": _slots("0/1", ("1/0", 0), ("1/0", 0)),
    }))
    code, rep, _ = run(capsys, "fix-search", str(f))
    assert code == 0, rep
    out = AugMarking.from_json(rep["outputs"]["fixed_point"])
    assert out.glue == (GlueBlock(0, level + 2),) * 2


@pytest.mark.parametrize("field", ["D", "tau"])
def test_barycenter_of_a_401_digit_gluing_block_exits_zero(tmp_path, capsys, field):
    # the orbit mean of 10^400 and 10^400 + 1 rounds half up, in exact integers
    big = 10**400
    glue = [{"tau": 0, "D": 0}, {"tau": 0, "D": 0}]
    glue[0][field], glue[1][field] = big, big + 1
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"glue": glue, "slots": _slots("0/1", ("1/0", 0), ("1/0", 0))}))
    code, rep, _ = run(capsys, "barycenter", str(f))
    assert code == 0, rep
    bary = AugMarking.from_json(rep["outputs"]["barycenter"])
    g = bary.glue[0]
    assert is_fixed(bary) and {"tau": g.tau, "D": g.D} == {"tau": 0, "D": 0, field: big + 1}


def test_barycenter_matches_library(tmp_path, capsys):
    sigma = planted_symmetric()
    f = write_marking(tmp_path / "m.json", sigma)
    code, rep, _ = run(capsys, "barycenter", f, "--generator", "1")
    assert code == 0
    bary = coarse_barycenter(sigma, 1, TH)
    out = rep["outputs"]
    assert out["barycenter"] == bary.to_json()
    assert out["distance"] == formula_distance_T(sigma, bary, TH)
    assert out["displacement"] == formula_distance_T(sigma, act(1, sigma), TH)


def test_barycenter_fixed_ratio_zero_and_bad_generator(tmp_path, capsys):
    f = write_marking(tmp_path / "m.json", flat())
    code, rep, _ = run(capsys, "barycenter", f)
    assert code == 0 and rep["outputs"]["ratio"] == 0.0
    code, rep, _ = run(capsys, "barycenter", f, "--generator", "0")
    assert code == 3 and rep["error"] == "model"


def test_barycenter_sweep_within_calibration(capsys):
    code, rep, _ = run(capsys, "barycenter", "--sweep")
    assert code == 0
    out = rep["outputs"]
    assert out["instances"] == 300
    assert out["within_calibration"] is True
    assert out["slope"] <= out["K_tilde"]


def _not_run(*args, **kwargs):
    raise AssertionError("a sweep ran")


def exits_2(capsys, *argv) -> str:
    """The stderr of an invocation that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_fix_search_takes_a_marking_file_or_sweep(tmp_path, capsys, monkeypatch):
    # with both, the sweep ran and the marking file was never read
    monkeypatch.setattr("coarse_teich.cli._planted_search_instance", _not_run)
    f = write_marking(tmp_path / "m.json", planted_symmetric())
    assert "not allowed with" in exits_2(capsys, "fix-search", f, "--sweep")
    assert "is required" in exits_2(capsys, "fix-search", "--out", str(tmp_path / "t.json"))


def test_barycenter_takes_a_marking_file_or_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("coarse_teich.cli.barycenter_samples", _not_run)
    f = write_marking(tmp_path / "m.json", planted_symmetric())
    assert "not allowed with" in exits_2(capsys, "barycenter", "--sweep", f)
    assert "is required" in exits_2(capsys, "barycenter", "--generator", "1")


def test_nonqc_takes_d_or_sweep(capsys, monkeypatch):
    # neither runs at the grid's first d, as test_nonqc_short_d_grid_exits_2 checks
    monkeypatch.setattr("coarse_teich.cli.nonqc_sweep", _not_run)
    assert "not allowed with" in exits_2(capsys, "nonqc", "--d", "10", "--sweep")


def test_nonqc_single_passes_claims(tmp_path, capsys):
    csv_file = tmp_path / "rows.csv"
    code, rep, err = run(capsys, "nonqc", "--d", "10", "--out", str(csv_file))
    assert code == 0
    assert all(rep["outputs"]["checks"].values())
    assert rep["outputs"]["midpoint"] == pytest.approx(44.551232, abs=1e-4)
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "t,orbit_diam,dist_to_fixed,slot1_slope,slot2_slope,glue_loglen"
    assert len(lines) == 42
    assert "endpoints_flat: pass" in err


def test_nonqc_regime_violation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": 1.5}))
    code, rep, _ = run(capsys, "--config", str(cfg), "nonqc", "--d", "10")
    assert code == 6 and rep["error"] == "regime"
    # past the float regime of the slit geometry
    for d in ("56", "400", "450", "nan"):
        code, rep, _ = run(capsys, "nonqc", "--d", d)
        assert code == 6 and rep["error"] == "regime"
    # a slit scale whose small tori underflow the shadow
    cfg.write_text(json.dumps({"c": 1e-160}))
    code, rep, _ = run(capsys, "--config", str(cfg), "nonqc", "--d", "10")
    assert code == 6 and rep["error"] == "regime"


def test_nonqc_sweep_fits_rate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_grid": [10, 15, 20]}))
    code, rep, _ = run(capsys, "--config", str(cfg), "nonqc", "--sweep")
    assert code == 0
    out = rep["outputs"]
    assert out["slope_in_window"] is True
    assert [p["d"] for p in out["per_d"]] == [10.0, 15.0, 20.0]


def test_nonqc_sweep_reads_the_config_delta(tmp_path, capsys):
    # a config delta reaches every d of the sweep, as it reaches plain nonqc
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0}))
    code, rep, _ = run(capsys, "--config", str(cfg), "nonqc", "--sweep")
    assert code == 6 and rep["error"] == "regime"
    cfg.write_text(json.dumps({"delta": 1e-20}))
    code, fixed, _ = run(capsys, "--config", str(cfg), "nonqc", "--sweep")
    assert code == 0
    # the fixed-delta midpoint growth; delta = rho/100 at each d gives 3.1321
    assert fixed["outputs"]["slope"] == 2.1321
    code, default, _ = run(capsys, "nonqc", "--sweep")
    assert code == 0 and default["outputs"]["slope"] == 3.1321
    assert fixed["inputs_digest"] != default["inputs_digest"]


def test_nonqc_short_d_grid_exits_2(tmp_path, capsys, monkeypatch):
    # an empty grid is no config; a sweep's fit needs two distinct d values,
    # checked before the sweep runs, while plain nonqc reads grid[0] alone
    def no_sweep(*args, **kwargs):
        raise AssertionError("nonqc_sweep ran on a short grid")

    monkeypatch.setattr("coarse_teich.cli.nonqc_sweep", no_sweep)
    cfg = tmp_path / "cfg.json"
    for grid, plain in (([], 2), ([10], 0), ([10, 10], 0)):
        cfg.write_text(json.dumps({"d_grid": grid}))
        code, rep, _ = run(capsys, "--config", str(cfg), "nonqc", "--sweep")
        assert code == 2 and rep["error"] == "parse" and "d_grid" in rep["message"], grid
        code, rep, _ = run(capsys, "--config", str(cfg), "nonqc")
        assert code == plain, grid
        assert rep["outputs"]["d"] == 10.0 if plain == 0 else "d_grid" in rep["message"]


def test_config_k_past_max_k_exits_2(tmp_path, capsys, monkeypatch):
    # k = 2e7 would build 2e7 blocks per swept marking; the config is
    # rejected before any marking is built
    def no_build(*args, **kwargs):
        raise AssertionError("a sweep built markings for k past MAX_K")

    monkeypatch.setattr("coarse_teich.cli._planted_search_instance", no_build)
    monkeypatch.setattr("coarse_teich.cli.barycenter_samples", no_build)
    cfg = tmp_path / "cfg.json"
    for k in (20_000_000, MAX_K + 1):
        cfg.write_text(json.dumps({"k": k}))
        for cmd in ("fix-search", "barycenter"):
            start = time.perf_counter()
            code, rep, _ = run(capsys, "--config", str(cfg), cmd, "--sweep")
            assert code == 2 and rep["error"] == "parse", (k, cmd)
            assert f"k <= {MAX_K}" in rep["message"], rep["message"]
            assert time.perf_counter() - start < 5.0
    assert Config.from_json({"k": MAX_K}).k == MAX_K


def test_nonqc_runs_with_numpy_blocked(capsys):
    # numpy is a test dependency only: the flat experiment runs without it
    src = str(Path(coarse_teich.__file__).resolve().parent.parent)
    probe = (
        "import sys; sys.modules['numpy'] = None; from coarse_teich.cli import main; "
        "sys.exit(main(['nonqc', '--d', '10']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    code, rep, _ = run(capsys, "nonqc", "--d", "10")
    assert code == 0
    assert json.loads(out.stdout)["outputs"] == rep["outputs"]


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # the pipe's read end is closed before the child writes, as in
    # `... | true`; a report and an error report alike exit 1, silently
    src = str(Path(coarse_teich.__file__).resolve().parent.parent)
    m1, m2 = offset_pair()
    f1 = write_marking(tmp_path / "a.json", m1)
    f2 = write_marking(tmp_path / "b.json", m2)
    f3 = write_marking(tmp_path / "c.json", flat(3))
    for second in (f2, f3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "coarse_teich.cli", "dist", f1, second, "--oracle"],
                env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
                stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (1, "")


def test_config_changes_thresholds(tmp_path, capsys):
    m1, m2 = offset_pair()
    f1 = write_marking(tmp_path / "a.json", m1)
    f2 = write_marking(tmp_path / "b.json", m2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 9, "K_hat": 9}))
    code, rep, _ = run(capsys, "--config", str(cfg), "dist", f1, f2)
    assert code == 0
    loose = Thresholds(K=9, K_hat=9, R=10)
    assert rep["outputs"]["formula_distance_T"] == formula_distance_T(m1, m2, loose)
    assert rep["outputs"]["formula_distance_T"] < formula_distance_T(m1, m2, TH)


def test_dist_deep_levels_exit_zero(tmp_path, capsys):
    # levels past the float range of e^D need the exact integer horoball width
    m1 = flat()
    m2 = AugMarking((GlueBlock(5, 800), GlueBlock(0, 0)), m1.slots)
    f1 = write_marking(tmp_path / "a.json", m1)
    f2 = write_marking(tmp_path / "b.json", m2)
    code, rep, _ = run(capsys, "dist", f1, f2)
    assert code == 0
    assert rep["outputs"]["formula_distance_T"] == formula_distance_T(m1, m2, TH)


def test_dist_gluing_levels_past_the_int_string_digit_limit(tmp_path, capsys):
    # e^10000 has 4,343 digits, past Python 3.11's int-string limit; from
    # level 2^bits > gap on, the apex scan needs no width at all
    m1 = flat()
    f1 = write_marking(tmp_path / "a.json", m1)
    for level in (10_000, 10**6):
        m2 = AugMarking((GlueBlock(5, level), GlueBlock(0, 0)), m1.slots)
        f2 = write_marking(tmp_path / "b.json", m2)
        code, rep, _ = run(capsys, "dist", f1, f2)
        assert code == 0
        assert rep["outputs"]["formula_distance_T"] == formula_distance_T(m1, m2, TH)


def test_dist_oracle_deep_gluing_level_is_past_the_cap(tmp_path, capsys):
    # the gluing block's distance is closed form, so the oracle enumerates
    # none of the width(800) twist moves to find it, far past the 10 moves
    # that quasi_isometry_samples keeps
    m1 = flat()
    f1 = write_marking(tmp_path / "a.json", m1)
    deep_slot = SlotBlock(Slope(0, 1), Slope(1, 0), 800)
    for m2, want in (
        (AugMarking((GlueBlock(5, 800), GlueBlock(0, 0)), m1.slots),
         horo_distance(HoroPoint(0, 0), HoroPoint(5, 800))),
        (AugMarking(m1.glue, (deep_slot, m1.slots[1])), 800),
    ):
        f2 = write_marking(tmp_path / "b.json", m2)
        code, rep, _ = run(capsys, "dist", f1, f2, "--oracle")
        assert code == 0
        assert rep["outputs"]["bfs_distance"] == want > 10


def test_dist_oracle_prints_the_exact_distance_of_far_twists(tmp_path, capsys):
    # gluing twists 0 and 10^6 are 29 moves apart: the horoball distance
    m1 = flat()
    m2 = AugMarking((GlueBlock(10**6, 0), GlueBlock(0, 0)), m1.slots)
    f1 = write_marking(tmp_path / "a.json", m1)
    f2 = write_marking(tmp_path / "b.json", m2)
    code, rep, _ = run(capsys, "dist", f1, f2, "--oracle")
    assert code == 0
    assert rep["outputs"]["bfs_distance"] == 29
    assert horo_distance(HoroPoint(0, 0), HoroPoint(10**6, 0)) == 29


def test_dist_oracle_on_long_continued_fractions_is_past_the_cap(tmp_path, capsys):
    # Fibonacci slopes with about 2,000 continued-fraction terms: the slot's
    # Farey distance alone passes the cap, and the slot walk is linear in
    # the number of terms
    p, q = 1, 1
    for _ in range(2000):
        p, q = p + q, p
    m1 = flat()
    deep = Slope(p, q)
    m2 = AugMarking(m1.glue, (SlotBlock(deep, transversal_at(deep, 0), 0), m1.slots[1]))
    f1 = write_marking(tmp_path / "a.json", m1)
    f2 = write_marking(tmp_path / "b.json", m2)
    t0 = time.perf_counter()
    code, rep, _ = run(capsys, "dist", f1, f2, "--oracle")
    assert code == 0
    d = rep["outputs"]["bfs_distance"]
    # every Farey step is a flip
    assert d == bfs_distance(m1, m2) >= farey_distance(Slope(0, 1), deep) > 10
    assert time.perf_counter() - t0 < 30.0


def test_removed_config_fields_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps0_level": 1, "eps_pp_level": 3}))
    code, rep, _ = run(capsys, "--config", str(cfg), "dist", "x.json", "y.json")
    assert code == 2 and rep["error"] == "parse"
    assert "unknown config fields" in rep["message"]


def test_bad_thresholds_in_config_exit_2(tmp_path, capsys):
    # Config checks K, K_hat and R by the rule of Thresholds itself
    cfg = tmp_path / "cfg.json"
    for bad in ({"K": 0}, {"K": 5, "K_hat": 4}, {"R": 0}):
        cfg.write_text(json.dumps(bad))
        code, rep, _ = run(capsys, "--config", str(cfg), "dist", "x.json", "y.json")
        assert code == 2 and rep["error"] == "parse", bad
        assert rep["message"].startswith("need "), bad


def calibration_config(tmp_path, monkeypatch, **overrides) -> str:
    """A config whose calibration record is the packaged one with overrides.

    The environment variable beats the config path, so it is cleared.  The
    sweep's rate fit needs two grid points."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    record = save_constants(replace(load_constants(), **overrides), str(tmp_path / "cal.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"calibration": str(record), "d_grid": [10, 15]}))
    return str(cfg)


def test_nonqc_gate_fails_on_wrong_bounds(tmp_path, capsys, monkeypatch):
    # the CLI's checks are the only gate on the experiment's claims
    for overrides in ({"E0": -1.0}, {"c1": 100.0}):
        cfg = calibration_config(tmp_path, monkeypatch, **overrides)
        code, rep, _ = run(capsys, "--config", cfg, "nonqc", "--d", "10")
        assert code == 5 and rep["error"] == "assertion", overrides
        assert rep["message"].startswith("claims failed at d=10.0")
    cfg = calibration_config(tmp_path, monkeypatch, E0=-1.0)
    code, rep, _ = run(capsys, "--config", cfg, "nonqc", "--sweep")
    assert code == 5 and rep["error"] == "assertion"
    assert rep["message"].startswith("claims failed at d=10.0")


def test_nonqc_gate_fails_on_wrong_bounds_under_python_O(tmp_path, monkeypatch):
    # python -O strips assert statements; while the claims were gated by
    # one, this run exited 0 and printed "endpoints_flat: pass"
    src = str(Path(coarse_teich.__file__).resolve().parent.parent)
    cfg = calibration_config(tmp_path, monkeypatch, E0=-1.0)
    out = subprocess.run(
        [sys.executable, "-O", "-m", "coarse_teich.cli", "--config", cfg, "nonqc", "--d", "10"],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode == 5, out.stderr
    rep = json.loads(out.stdout)
    assert rep["error"] == "assertion"
    assert rep["message"].startswith("claims failed at d=10.0")


def test_src_has_no_assert_statements():
    # python -O drops them, so a check in src/ raises AssertionError itself
    found = [
        f"{p.name}:{node.lineno}"
        for p in sorted(Path(coarse_teich.__file__).resolve().parent.rglob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_calibrate_check_reports_relative_drift(tmp_path, capsys, monkeypatch):
    packaged = load_constants()
    cfg = calibration_config(tmp_path, monkeypatch, E0=2 * packaged.E0)
    code, rep, _ = run(capsys, "--config", cfg, "calibrate", "--check")
    assert code == 1
    out = rep["outputs"]
    assert out["drifted"] == [f"E0: {2 * packaged.E0} -> {packaged.E0}"]
    assert out["drift"]["E0"] == pytest.approx(0.5)
    assert {k: v for k, v in out["drift"].items() if k != "E0"} == dict.fromkeys(
        set(packaged.to_json()) - {"E0"}, 0.0
    )


def test_calibrate_writes_the_record_that_check_reads(tmp_path, capsys, monkeypatch):
    # with the variable and a config path both set, calibrate wrote the config's
    # file while every read, --check included, took the variable's
    fitted = replace(load_constants(), E0=7.5)
    monkeypatch.setattr("coarse_teich.cli.calibrate", lambda seed, th: fitted)
    env, named = tmp_path / "env.json", tmp_path / "named.json"
    monkeypatch.setenv(ENV_VAR, str(env))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"calibration": str(named)}))
    code, rep, _ = run(capsys, "--config", str(cfg), "calibrate")
    assert code == 0 and rep["outputs"]["path"] == str(env)
    assert load_constants(str(env)) == fitted and not named.exists()
    code, rep, _ = run(capsys, "--config", str(cfg), "calibrate", "--check")
    assert code == 0 and rep["outputs"]["recorded_digest"] == fitted.digest()


_FUZZ_VALUES = (
    2**70, 10**300, 1e300, float("nan"), True, False, None, "7", "x", [1], {},
    "0/0", "2/4", "1/2/3", -1, 0.5,
)


def _fuzz_value(rng: random.Random):
    return copy.deepcopy(rng.choice(_FUZZ_VALUES))


def _fuzz_marking(rng: random.Random, obj: dict):
    """One to three random mutations of a marking's JSON object."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 3)):
        if not isinstance(obj, dict):
            break
        kind = rng.randrange(7)
        blocks = [b for key in ("glue", "slots") if isinstance(obj.get(key), list)
                  for b in obj[key] if isinstance(b, dict)]
        blk = rng.choice(blocks) if blocks else None
        if kind == 0 and blk:  # a field takes a wrong value
            blk[rng.choice(sorted(blk))] = _fuzz_value(rng)
        elif kind == 1 and blk:  # a huge but legal twist or level
            field = "D" if "base" in blk or rng.random() < 0.5 else "tau"
            blk[field] = rng.choice((2**70, 10**300, 1e300))
        elif kind == 2 and blk:  # a field goes missing
            del blk[rng.choice(sorted(blk))]
        elif kind == 3:  # a key goes missing or an extra one appears
            if rng.random() < 0.5 and obj:
                del obj[rng.choice(sorted(obj))]
            else:
                target = blk if blk and rng.random() < 0.5 else obj
                target["extra"] = _fuzz_value(rng)
        elif kind == 4:  # glue and slot lengths stop matching
            key = rng.choice(("glue", "slots"))
            if isinstance(obj.get(key), list) and obj[key]:
                if rng.random() < 0.5:
                    obj[key].pop()
                else:
                    obj[key].append(copy.deepcopy(obj[key][0]))
        elif kind == 5:  # a block list is not a list
            obj[rng.choice(("glue", "slots"))] = _fuzz_value(rng)
        elif kind == 6:  # the top level is not an object
            obj = rng.choice((_fuzz_value(rng), [obj]))
    return obj


def test_fuzzed_marking_json_ends_in_a_documented_exit_code(tmp_path, capsys):
    rng = random.Random(2024)
    for case in range(300):
        base = sample_marking(rng, rng.choice((2, 3)))
        f_base = write_marking(tmp_path / "base.json", base)
        fuzzed = tmp_path / "fuzzed.json"
        fuzzed.write_text(json.dumps(_fuzz_marking(rng, base.to_json())))
        f = str(fuzzed)
        for argv in (
            ["dist", f, f_base],
            ["dist", "--oracle", f, f_base],
            ["project", f, "--slot", "0"],
            ["project", f, "--annulus", "0:1/2"],
            ["fix-search", f],
            ["barycenter", f, "--generator", str(rng.choice((1, 2, -1)))],
        ):
            t0 = time.perf_counter()
            code = main(argv)
            out = capsys.readouterr().out
            context = (case, argv[0], fuzzed.read_text()[:200])
            assert code in (0, 2, 3, 4, 5, 6), context
            if out.strip():
                json.loads(out)
            assert time.perf_counter() - t0 < 2.0, context


def _fuzz_calibration(rng: random.Random, record: dict):
    """One mutation that makes a calibration record invalid."""
    record = dict(record)
    name = rng.choice(sorted(record))
    kind = rng.randrange(6)
    if kind == 0:  # the top level is not an object
        return rng.choice(([1], [record], None, "x", 7))
    if kind == 1:  # a field takes a wrong type
        record[name] = rng.choice(("x", "7", None, [1], {}))
    elif kind == 2:  # a field is not finite
        record[name] = rng.choice((float("nan"), float("inf"), -float("inf")))
    elif kind == 3:  # a field is a bool
        record[name] = rng.choice((True, False))
    elif kind == 4:  # a key goes missing
        del record[name]
    else:  # an extra key appears
        record[rng.choice(("extra", "K"))] = _fuzz_value(rng)
    return record


def test_fuzzed_calibration_records_exit_2(tmp_path, capsys, monkeypatch):
    rng = random.Random(2025)
    good = load_constants().to_json()
    record = tmp_path / "cal.json"
    record.write_text(json.dumps(good))
    monkeypatch.setenv(ENV_VAR, str(record))
    f = write_marking(tmp_path / "m.json", planted_symmetric())
    commands = (["dist", f, f], ["nonqc", "--d", "10"], ["barycenter", f])
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
    for case in range(40):
        record.write_text(json.dumps(_fuzz_calibration(rng, good)))
        for argv in commands:
            code, rep, _ = run(capsys, *argv)
            assert code == 2 and rep["error"] == "parse", (case, argv, record.read_text())


_BAD_CONFIG_VALUES = {
    "int": (True, False, 3.5, 1e400, float("nan"), "3", None, [3], {}),
    "number": (True, float("inf"), -1e999, float("nan"), 10**400, "0.1", [0.1], {}),
    "grid": ("10", 10, None, {}, [True, 10], [1e999, 10], [float("nan")], ["10"], [[10]]),
    "path": (7, True, 0.5, [], {}),
}
_CONFIG_KINDS = {
    "K": "int", "K_hat": "int", "R": "int", "k": "int", "seed": "int",
    "c": "number", "delta": "number", "d_grid": "grid", "calibration": "path",
}


def _fuzz_config(rng: random.Random) -> object:
    """A config that some field's type or range makes invalid."""
    if rng.random() < 0.1:  # the top level is not an object
        return rng.choice(([], [{"K": 3}], "K", 7, None))
    # three valid fields (json writes the d_grid tuple as a list), one bad one
    cfg = {name: getattr(Config(), name) for name in rng.sample(sorted(_CONFIG_KINDS), 3)}
    name = rng.choice(sorted(_CONFIG_KINDS))
    cfg[name] = copy.deepcopy(rng.choice(_BAD_CONFIG_VALUES[_CONFIG_KINDS[name]]))
    return cfg


def test_config_rejects_wrong_types():
    for data in ({"K": True, "K_hat": True}, {"K": 3.5, "K_hat": 4}, {"k": 1e400},
                 {"d_grid": [1e999, 10]}, {"delta": False}, {"calibration": 1}, [1]):
        with pytest.raises(ValueError):
            Config.from_json(data)
    ok = Config.from_json({"K": 2, "K_hat": 2, "c": 1, "delta": None, "calibration": None})
    assert (ok.K, ok.c, ok.delta) == (2, 1, None)


def test_fuzzed_config_json_exits_2(tmp_path, capsys):
    rng = random.Random(2026)
    f = write_marking(tmp_path / "m.json", planted_symmetric())
    config = tmp_path / "config.json"
    commands = (["dist", f, f], ["nonqc", "--d", "10"], ["barycenter", f])
    for case in range(40):
        config.write_text(json.dumps(_fuzz_config(rng)))
        for argv in commands:
            code, rep, _ = run(capsys, "--config", str(config), *argv)
            assert code == 2 and rep["error"] == "parse", (case, argv, config.read_text())
