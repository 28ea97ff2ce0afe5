"""Seeded op generators for the benchmark workloads.

An op is the argv of one ``memchan`` invocation.  A cycle is the smallest
group of ops with a fixed mix; runs always end on a cycle boundary, so the
mix behind a median does not depend on how many ops a run completed.
Cycle ``k`` of seed ``s`` is derived from ``(workload, s, k)`` alone, so a
worker process can start at any cycle and a second run of the same seed
sees the same inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

AD_DOMAIN = (0.0, math.pi / 2)
P_DOMAIN = (0.0, 1.0)
# Threshold draws of chi keep this far from the domain edges.  There the
# Bell-minus-product gap flattens like chi**2 and its root is
# ill-conditioned: within 1e-3 of an edge the numeric and closed-form roots
# disagree by ~1e-8, beyond the 1e-9 answer check.
AD_EDGE_MARGIN = 0.01

SWEEP_MU_SPEC = "0:1:21"
SWEEP_THETA_SPEC = f"0:{math.pi / 4!r}:5"
SWEEP_PARAM_COUNT = 21

THRESHOLD_TOL = "1e-12"
SCALAR_DRAWS = 7
INEQUALITY_COUNTS = (60, 70)
# A round value users type.  Its threshold mu_t = 0.25 sits on the
# bisection's seed grid, where the program returns null: a known defect
# that counts as a failed op until it is fixed.
ROUND_DP_OP = ("threshold", "dp", "0.5", THRESHOLD_TOL)


def _param_spec(rng: random.Random, lo: float, hi: float) -> str:
    a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
    return f"{a!r}:{b!r}:{SWEEP_PARAM_COUNT}"


def sweep_cycle(rng: random.Random) -> list:
    return [
        ["sweep", tag, SWEEP_MU_SPEC, _param_spec(rng, *domain), SWEEP_THETA_SPEC]
        for tag, domain in (("ad", AD_DOMAIN), ("dp", P_DOMAIN))
    ]


def scalar_cycle(rng: random.Random) -> list:
    ops = []
    for _ in range(SCALAR_DRAWS):
        chi = rng.uniform(AD_DOMAIN[0] + AD_EDGE_MARGIN, AD_DOMAIN[1] - AD_EDGE_MARGIN)
        ops.append(["threshold", "ad", repr(chi), THRESHOLD_TOL])
        ops.append(["threshold", "dp", repr(rng.uniform(*P_DOMAIN)), THRESHOLD_TOL])
    ops.append(list(ROUND_DP_OP))
    ops.append(["inequality", str(rng.randint(*INEQUALITY_COUNTS))])
    return ops


def verify_cycle(rng: random.Random) -> list:
    return [["verify"]]


@dataclass(frozen=True)
class Workload:
    name: str
    make_cycle: Callable[[random.Random], list]

    def cycle(self, seed: int, index: int) -> list:
        return self.make_cycle(random.Random(f"{self.name}/{seed}/{index}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_cycle),
        Workload("scalar", scalar_cycle),
        Workload("verify", verify_cycle),
    )
}
