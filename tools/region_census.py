"""Count how the stationary pipeline answers across the stability region.

    PYTHONPATH=src python3 tools/region_census.py

Each draw is one system at the default baths (hot T = 10, lambda^2 =
1e-8; cold T = 5, lambda^2 = 1e-4; cutoff 1e3), 1,500 of them taken
from seed 0:

- omega_h log-uniform in [0.1, 10];
- omega_c/omega_h exactly 1, 10^U(-0.3, 0.3) or 10^U(-8, 8), one third
  each in chance ("resonant", "near", "far");
- 1 - |k|/(omega_h omega_c) log-uniform in [1e-12, 1], either sign of k;
  the draw is at the "edge" when that gap is below 1e-3, else "inner".

For each of LME, GME and Redfield it runs build -> steady_state ->
heat_current and records the outcome: ok, StabilityError,
ConsistencyError, NumericalError (a stationary state that does not
conserve energy among them), or any other error. It prints one markdown
table of the outcome counts per region and label, then the totals per
label. Every run prints the same table.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from meqlab import BathSpec, SystemSpec, build, heat_current, steady_state
from meqlab.errors import ConsistencyError, NumericalError, StabilityError

LABELS = ("LME", "GME", "Redfield")
HOT, COLD = BathSpec(1e-8, 10.0, 1e3), BathSpec(1e-4, 5.0, 1e3)
OUTCOMES = ("ok", "StabilityError", "ConsistencyError", "NumericalError", "other")
REGIONS = ("inner, resonant or near", "inner, far", "edge, resonant", "edge, near", "edge, far")
#: 1 - |k|/(omega_h omega_c) below this is the edge
EDGE_GAP = 1e-3


def draw(rng: np.random.Generator) -> tuple[str, float, float, float]:
    """One system's region and (omega_h, omega_c, k)."""
    omega_h = 10.0 ** rng.uniform(-1.0, 1.0)
    detuning = ("resonant", "near", "far")[rng.integers(3)]
    ratio = {"resonant": 1.0, "near": 10.0 ** rng.uniform(-0.3, 0.3),
             "far": 10.0 ** rng.uniform(-8.0, 8.0)}[detuning]
    omega_c = omega_h * ratio
    gap = 10.0 ** rng.uniform(-12.0, 0.0)
    k = rng.choice((-1.0, 1.0)) * (1.0 - gap) * omega_h * omega_c
    if gap >= EDGE_GAP:
        region = "inner, far" if detuning == "far" else "inner, resonant or near"
    else:
        region = f"edge, {detuning}"
    return region, omega_h, omega_c, k


def outcome(label: str, omega_h: float, omega_c: float, k: float) -> str:
    try:
        sys_ = SystemSpec(omega_h, omega_c, k)
        gen = build(label, sys_, HOT, COLD)
        heat_current(label, sys_, HOT, COLD, steady_state(gen, sys_))
    except (StabilityError, ConsistencyError, NumericalError) as exc:
        return type(exc).__name__
    except Exception:
        return "other"
    return "ok"


def census(draws: int, seed: int) -> dict[tuple[str, str], Counter]:
    """Outcome counts by (region, label) over ``draws`` seeded draws."""
    rng = np.random.default_rng(seed)
    counts = {(region, label): Counter() for region in REGIONS for label in LABELS}
    for _ in range(draws):
        region, *system = draw(rng)
        for label in LABELS:
            counts[region, label][outcome(label, *system)] += 1
    return counts


def table(counts: dict[tuple[str, str], Counter]) -> str:
    lines = ["| region | label | draws | " + " | ".join(OUTCOMES) + " |",
             "|" + " --- |" * (len(OUTCOMES) + 3)]
    totals = {label: Counter() for label in LABELS}
    rows = [(region, label, counts[region, label]) for region in REGIONS for label in LABELS]
    for region, label, count in rows:
        totals[label].update(count)
    rows += [("all", label, totals[label]) for label in LABELS]
    for region, label, count in rows:
        cells = [str(count[name]) for name in OUTCOMES]
        lines.append(f"| {region} | {label} | {sum(count.values())} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> int:
    print(table(census(1500, 0)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
