"""The four benchmark workloads: inputs, the op, and its output checks.

Every op's inputs come from a seeded generator here or from the program's
own seeded samplers; the program only ever receives the generated inputs.
Inputs are made in batches outside the timed phase.  A batch is
``batch(seed, index)``, so any op can be regenerated from (seed, index)
alone, which is what ties an op to its recorded output.

Each workload checks every op twice: against the paper's gate for that op
(``gate``), and, where a record exists for the op's key, for exact equality
with the output recorded from the commit that defined the benchmark
(``encode`` gives the recorded form).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    key: str  # record key; the same inputs always get the same key
    kind: str  # sub-kind, for per-kind latency
    args: tuple


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Oracle:
    """calibration.quasi_isometry_samples, one basepoint per op."""

    name = "oracle"
    why = ("criterion 03 and calibrate: one basepoint and its 6 partners through "
           "bfs_distance(cap=10) and formula_distance_T; the BFS does almost all work")
    # Op cost runs from 0.5 s to over 10 s on the same sampler, so a seeded
    # draw of a few ops per run cannot give steady figures.  The run goes
    # through a fixed deck instead, the first DECK_SIZE sampler seeds taken
    # in order, not chosen by cost; --seed orders each pass.
    DECK_SIZE = 6
    whole_batches = True

    def __init__(self, ct):
        self.ct = ct
        self.th = ct.metrics.Thresholds()
        self.deck = [(2 + j % 2, j) for j in range(self.DECK_SIZE)]

    def sizes(self) -> dict:
        return {"deck": [f"k={k} seed={s}" for k, s in self.deck],
                "basepoints": 1, "cap": 10, "partners_per_basepoint": 6}

    def batch(self, seed: int, index: int) -> list[Op]:
        order = list(self.deck)
        random.Random(f"oracle:{seed}:{index}").shuffle(order)
        return [Op(f"k{k}:{s}", f"k{k}", (k, s)) for k, s in order]

    def call(self, op: Op):
        k, s = op.args
        return self.ct.calibration.quasi_isometry_samples(k, self.th, s, basepoints=1)

    def gate(self, op: Op, out, cal) -> bool:
        # criterion 03: the pinned two-sided (L, C) bounds
        return all(b / cal.L - cal.C <= f <= cal.L * b + cal.C for b, f in out)

    def encode(self, out):
        return [[b, f] for b, f in out]


class Formula:
    """metrics.formula_distance_T on pre-generated pairs."""

    name = "formula"
    why = ("CLI dist and criteria 04/05/08, no BFS: repeating small slopes (cache "
           "hits) mixed with distinct deep slopes (cache misses)")
    BATCH = 64
    # share of pairs per kind; the rest are "small".  The shares and deep
    # sizes are chosen, not measured from a caller (README.md gives the
    # caller each kind stands for); per-kind p50 is reported apart.
    K8_SHARE = 0.15
    DEEP_SHARE = 0.05
    DEEP_MAX = 10_000  # |p|, q of deep base slopes
    DEEP_TWIST = 1_000  # twist and transversal index of deep markings
    CHECK_EVERY = 16  # ops between equivariance checks
    whole_batches = False

    def __init__(self, ct):
        self.ct = ct
        self.th = ct.metrics.Thresholds()

    def sizes(self) -> dict:
        return {
            "small": f"{1 - self.K8_SHARE - self.DEEP_SHARE:.2f} of pairs: sample_marking, k=2..4",
            "k8": f"{self.K8_SHARE:.2f} of pairs: sample_marking, k=8",
            "deep": f"{self.DEEP_SHARE:.2f} of pairs: k=2..4, base |p|,q <= {self.DEEP_MAX}, "
                    f"twists <= {self.DEEP_TWIST}",
        }

    def _deep(self, rng: random.Random, k: int):
        m, s = self.ct.marking, self.ct.slots
        glue = tuple(
            m.GlueBlock(rng.randint(-self.DEEP_TWIST, self.DEEP_TWIST), rng.randint(0, 1))
            for _ in range(k)
        )
        blocks = []
        for _ in range(k):
            base = s.Slope.of(rng.randint(-self.DEEP_MAX, self.DEEP_MAX),
                              rng.randint(1, self.DEEP_MAX))
            trans = s.transversal_at(base, rng.randint(-self.DEEP_TWIST, self.DEEP_TWIST))
            blocks.append(m.SlotBlock(base, trans, rng.randint(0, 1)))
        return m.AugMarking(glue, tuple(blocks))

    def batch(self, seed: int, index: int) -> list[Op]:
        rng = random.Random(f"formula:{seed}:{index}")
        sample = self.ct.calibration.sample_marking
        ops = []
        for j in range(self.BATCH):
            u = rng.random()
            if u < self.DEEP_SHARE:
                k = rng.randint(2, 4)
                kind, pair = "deep", (self._deep(rng, k), self._deep(rng, k))
            elif u < self.DEEP_SHARE + self.K8_SHARE:
                kind, pair = "k8", (sample(rng, 8), sample(rng, 8))
            else:
                k = rng.randint(2, 4)
                kind, pair = "small", (sample(rng, k), sample(rng, k))
            ops.append(Op(f"{seed}:{index * self.BATCH + j}", kind, pair))
        return ops

    def call(self, op: Op):
        m1, m2 = op.args
        return self.ct.metrics.formula_distance_T(m1, m2, self.th)

    def gate(self, op: Op, out, cal) -> bool:
        m1, m2 = op.args
        if not isinstance(out, int) or out < 0 or (m1 == m2 and out != 0):
            return False
        index = int(op.key.split(":")[1])
        if index % self.CHECK_EVERY:
            return True
        # criterion 04 on a sample of ops: exact equivariance
        act = self.ct.marking.act
        return self.ct.metrics.formula_distance_T(act(1, m1), act(1, m2), self.th) == out

    def encode(self, out):
        return out


class Symmetric:
    """search.fixed_point_search then search.coarse_barycenter, as one op."""

    name = "symmetric"
    why = ("the only workload in the search layer: structured orbit pairs, twists "
           "up to 10^6 and deep horoball apex scans")
    # One op runs both kinds back to back.  Run as separate ops, the median
    # latency would sit in the gap between the two kinds' latencies.
    BATCH = 32
    BASES = ((0, 1), (1, 1), (1, 2), (2, 1))  # criterion 06
    BARY_BASES = ((0, 1), (1, 1), (1, 2), (2, 1), (1, 0))  # criterion 08
    whole_batches = False

    def __init__(self, ct):
        self.ct = ct
        self.th = ct.metrics.Thresholds()

    def sizes(self) -> dict:
        return {
            "search": "criterion 06 planted almost-fixed markings, k=2..4, "
                      "twist 10^1..10^6",
            "barycenter": "criterion 08 orbit samples, k=2..4, twists and "
                          "transversal indices up to 30, generator 1",
        }

    def _planted(self, rng: random.Random):
        m, s = self.ct.marking, self.ct.slots
        k = rng.choice((2, 3, 4))
        mag = 10 ** rng.randint(1, 6)
        base = s.Slope(*rng.choice(self.BASES))
        glue = tuple(m.GlueBlock(mag + rng.randint(0, 1), 0) for _ in range(k))
        slots = tuple(
            m.SlotBlock(base, s.transversal_at(base, -mag + rng.randint(0, 1)), 0)
            for _ in range(k)
        )
        return m.AugMarking(glue, slots)

    def _orbit_sample(self, rng: random.Random):
        m, s = self.ct.marking, self.ct.slots
        k = rng.choice((2, 3, 4))
        base = s.Slope.of(*rng.choice(self.BARY_BASES))
        mag = rng.randint(0, 30)
        glue = tuple(m.GlueBlock(rng.randint(-mag, mag), rng.randint(0, 2)) for _ in range(k))
        slots = tuple(
            m.SlotBlock(base, s.transversal_at(base, rng.randint(-mag, mag)), rng.randint(0, 2))
            for _ in range(k)
        )
        return m.AugMarking(glue, slots)

    def batch(self, seed: int, index: int) -> list[Op]:
        rng = random.Random(f"symmetric:{seed}:{index}")
        ops = []
        for j in range(self.BATCH):
            mu = self._planted(rng)
            sigma = self._orbit_sample(rng)
            ops.append(Op(f"{seed}:{index * self.BATCH + j}", f"k{mu.k}", (mu, sigma)))
        return ops

    def call(self, op: Op):
        search = self.ct.search
        mu, sigma = op.args
        return (search.fixed_point_search(mu, self.th),
                search.coarse_barycenter(sigma, 1, self.th))

    def gate(self, op: Op, out, cal) -> bool:
        # criterion 06 for the search, exact symmetry for the barycenter
        is_fixed = self.ct.search.is_fixed
        (fixed, trace), bary = out
        return (is_fixed(fixed) and trace.final_distance <= 2 * self.th.R
                and is_fixed(bary))

    def encode(self, out):
        (fixed, trace), bary = out
        return _digest({"search": fixed.to_json(), "final_distance": trace.final_distance,
                        "barycenter": bary.to_json()})


class Flat:
    """flatsim.nonqc_experiment over the default d grid."""

    name = "flat"
    why = ("flatsim: longdouble lattice reduction, shadow and rafi_formula, which "
           "no other workload reaches")
    D_GRID = (10, 15, 20, 25, 30, 35, 40)
    C = 0.1
    N_STEPS = 40
    whole_batches = False

    def __init__(self, ct):
        self.ct = ct

    def sizes(self) -> dict:
        return {"d_grid": list(self.D_GRID), "c": self.C, "n_steps": self.N_STEPS}

    def batch(self, seed: int, index: int) -> list[Op]:
        grid = list(self.D_GRID)
        random.Random(f"flat:{seed}:{index}").shuffle(grid)
        return [Op(f"d{d}", f"d{d}", (d,)) for d in grid]

    def call(self, op: Op):
        return self.ct.flatsim.nonqc_experiment(op.args[0], c=self.C, n_steps=self.N_STEPS)

    def gate(self, op: Op, res, cal) -> bool:
        # criterion 09 per d: flat ends, midpoint growth, peak near midpoint
        return (
            max(res.endpoint_max, res.ref_start_gap, res.ref_end_gap) <= cal.E0
            and res.midpoint >= cal.c1 * res.d - cal.c2
            and 0.8 * res.d <= res.peak_t <= 1.2 * res.d
        )

    def encode(self, res):
        return [
            [round(r.t, 6), round(r.orbit_diam, 6), round(r.dist_to_fixed, 6),
             [str(s) for s in r.slot_slopes], round(r.glue_loglen, 6)]
            for r in res.rows
        ]


WORKLOADS = {w.name: w for w in (Oracle, Formula, Symmetric, Flat)}
