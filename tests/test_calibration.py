"""Tests for calibration storage, lookup precedence, and the fitting sweeps."""

import json
import random

import pytest

from coarse_teich.calibration import (
    CALIBRATION_VERSION,
    ENV_VAR,
    CalibrationConstants,
    barycenter_samples,
    compare_constants,
    constant_drift,
    fit_quasi_isometry,
    load_constants,
    packaged_path,
    presegment_projection_sweep,
    quasi_isometry_samples,
    resolve_path,
    sample_marking,
    save_constants,
)
from coarse_teich.marking import AugMarking
from coarse_teich.metrics import Thresholds

TH = Thresholds()


def make_constants(**overrides) -> CalibrationConstants:
    base = dict(
        version=CALIBRATION_VERSION,
        L=2.0,
        C=6,
        M2=4,
        horoball_mult=2.0,
        horoball_add=1.9,
        K_tilde=1.0,
        C_tilde=2.0,
        E0=6.0,
        c1=1.5,
        c2=2.0,
    )
    base.update(overrides)
    return CalibrationConstants(**base)


def test_constants_roundtrip_and_digest():
    consts = make_constants()
    again = CalibrationConstants.from_json(consts.to_json())
    assert again == consts
    assert again.digest() == consts.digest()
    assert len(consts.digest()) == 12
    assert make_constants(L=2.5).digest() != consts.digest()
    with pytest.raises(ValueError):
        CalibrationConstants.from_json(dict(consts.to_json(), version=99))


def test_save_and_load(tmp_path):
    consts = make_constants()
    p = save_constants(consts, tmp_path / "cal.json")
    assert load_constants(str(p)) == consts
    raw = json.loads(p.read_text())
    for key in ("L", "C", "M2"):
        assert key in raw


def test_resolution_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert resolve_path(None) == packaged_path()
    assert str(resolve_path(None)).endswith("data/calibration.json")
    explicit = tmp_path / "explicit.json"
    assert resolve_path(str(explicit)) == explicit
    env = tmp_path / "env.json"
    monkeypatch.setenv(ENV_VAR, str(env))
    assert resolve_path(str(explicit)) == env
    save_constants(make_constants(L=3.3), str(env))
    assert load_constants(str(explicit)).L == 3.3


def test_packaged_constants_are_pinned():
    consts = load_constants()
    assert consts.version == CALIBRATION_VERSION
    assert consts.L >= 1.0 and consts.C >= 0
    assert consts.horoball_mult <= 4.0 and consts.horoball_add <= 8.0
    # tripwire: regenerating the packaged file is a deliberate act
    assert consts.digest() == "8aab84cd9c1d"


def test_compare_constants_flags_drift():
    a = make_constants()
    assert compare_constants(a, a) == []
    assert compare_constants(a, make_constants(L=2.01)) == []
    drift = compare_constants(a, make_constants(L=3.0))
    assert drift and drift[0].startswith("L:")
    assert compare_constants(a, make_constants(C=12))
    # the list is read off the per-field relative drift
    assert constant_drift(a, a) == dict.fromkeys(a.to_json(), 0.0)
    drift = constant_drift(a, make_constants(E0=8.0))
    assert drift == dict(dict.fromkeys(a.to_json(), 0.0), E0=pytest.approx(0.25))
    assert compare_constants(a, make_constants(E0=8.0)) == ["E0: 6.0 -> 8.0"]
    # floored at scale 1: 0.02 -> 0.06 is a drift of 0.04, not of 67%
    assert constant_drift(make_constants(c2=0.02), make_constants(c2=0.06))["c2"] == pytest.approx(0.04)
    assert compare_constants(make_constants(c2=0.02), make_constants(c2=0.06)) == []


def test_fit_quasi_isometry_synthetic():
    samples = [(0, 0), (5, 5), (7, 0), (10, 10)]
    # 2L + C(L) = 2L + 7/L on these samples, minimized on-grid at 1.9
    L, C = fit_quasi_isometry(samples)
    assert (L, C) == (1.9, 6)
    for b, f in samples:
        assert b / L <= f + C
        assert f <= L * b + C


def test_sample_marking_always_validates():
    rng = random.Random(0)
    for _ in range(200):
        m = sample_marking(rng, rng.choice((2, 3, 4)))
        assert isinstance(m, AugMarking)


def test_quasi_isometry_samples_within_cap():
    samples = quasi_isometry_samples(2, TH, seed=5, basepoints=3)
    assert samples
    for b, f in samples:
        assert 0 <= b <= 10
        assert f >= 0
    assert any(f > 0 for _, f in samples)
    assert samples == quasi_isometry_samples(2, TH, seed=5, basepoints=3)


def test_component_sweeps_smoke():
    m2 = presegment_projection_sweep(TH, seed=2)
    assert 0 <= m2 <= 8
    pts = barycenter_samples(2, TH, seed=3, instances=25)
    assert len(pts) == 25
    assert all(y <= 40 for _, y in pts)
    consts = load_constants()
    assert m2 <= consts.M2
