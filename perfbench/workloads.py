"""The four benchmark workloads.

Each workload draws its parameter points from the seed while the amount
of work stays fixed, runs the commands that produce one of the paper's
figures (through ``meqlab.cli.main`` in this process, or the library
call where no command exists), and verifies the outputs it wrote
without golden bytes, so that last-digit changes stay valid.

``execute`` does the program's work and ``verify`` checks it; the
traced run records spans only during ``execute``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from meqlab import cli, epscan
from meqlab.errors import MeqlabError
from meqlab.generators import GME, LME, REDFIELD
from meqlab.thermo import current_scale

#: scan worker threads; the benchmark host has this many cores
THREADS = 2

HEADER_TAGS = ((LME, "L"), (GME, "G"), (REDFIELD, "R"))


@dataclass
class Outcome:
    """Operations attempted and failed in one iteration, with the first
    few failure messages."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def run_cli(argv: list[str]) -> int:
    """Run one ``meqlab`` command in this process and return its exit
    code. The module attribute is looked up per call so a traced run sees
    the wrapped entry point; the command's progress line is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _assign(**entries) -> list[str]:
    """Config assignments ``a.b=value`` from keyword ``a__b``; values are
    JSON, so floats round-trip exactly."""
    return [f"{key.replace('__', '.')}={json.dumps(value)}" for key, value in entries.items()]


def _sets(assignments: list[str]) -> list[str]:
    return [arg for a in assignments for arg in ("--set", a)]


def _physics(assignments: list[str]):
    """(system, hot, cold) as the command parses them from these overrides."""
    return cli.parse_physics(cli.load_config(None, assignments))


def _read_csv(path: Path, header: list[str], numeric: int | None = None) -> np.ndarray:
    """The first `numeric` columns (default: all) of a CSV with this header."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != ",".join(header):
        raise ValueError(f"{path.name}: header {first!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=range(numeric or len(header)))


class Workload:
    name = ""
    threads: int | None = None

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    @property
    def units(self) -> dict[str, int]:
        """Work done by one iteration, in the workload's own units."""
        raise NotImplementedError

    @property
    def operations(self) -> int:
        """Verified operations one iteration attempts."""
        raise NotImplementedError

    def first_call(self, out: Path) -> None:
        """The smallest run of every command the workload uses: import-time
        and first-call work (fixture compile, caches, thread pool)."""
        raise NotImplementedError

    def execute(self, out: Path):
        raise NotImplementedError

    def verify(self, out: Path, raw) -> Outcome:
        raise NotImplementedError

    def checked(self, out: Path, raw) -> Outcome:
        """``verify``, counting missing or malformed output as failed."""
        try:
            return self.verify(out, raw)
        except (OSError, ValueError) as exc:
            return Outcome(self.operations, self.operations, [f"unreadable output: {exc!r}"])

    def expected_counts(self) -> dict[str, int]:
        """Counter values one traced iteration must show exactly."""
        return {}


def _require_ok(code: int, what: str) -> None:
    if code != 0:
        raise RuntimeError(f"{what} exited with {code}")


class EpMap(Workload):
    """kappa(omega, k) maps: every label, both blocks, CSV output."""

    name = "ep-map"
    threads = THREADS
    LABELS = (LME, GME, REDFIELD)
    BLOCKS = ("first", "second")
    RESOLUTION = 128
    #: scan points per (label, block) recomputed one at a time
    SAMPLES = 16
    KAPPA_RTOL = 1e-6

    def __init__(self, seed: int):
        super().__init__(seed)
        self.omega = [0.5 + 0.1 * self.rng.random(), 1.4 + 0.1 * self.rng.random()]
        _, self.hot, self.cold = _physics([])
        k_factor = 1.3 + 0.4 * self.rng.random()
        self.k = [0.0, k_factor * epscan.exceptional_line(self.omega[1], self.hot, self.cold)]
        self.sample_seed = self.rng.randrange(2**32)

    @property
    def units(self):
        n = self.RESOLUTION
        points = len(self.LABELS) * len(self.BLOCKS) * n * n
        return {"scan_points": points,
                "resampled_points": len(self.LABELS) * len(self.BLOCKS) * self.SAMPLES}

    @property
    def operations(self):
        return sum(self.units.values())

    def argv(self, out: Path, n: int) -> list[str]:
        return ["scan-ep", "--out", str(out), "--threads", str(THREADS)] + _sets(_assign(
            generators=list(self.LABELS), scan__blocks=list(self.BLOCKS),
            scan__omega=self.omega, scan__k=self.k, scan__resolution=[n, n]))

    def first_call(self, out):
        _require_ok(run_cli(self.argv(out, 2)), "scan-ep")

    def execute(self, out):
        return run_cli(self.argv(out, self.RESOLUTION))

    def verify(self, out, code):
        result = Outcome(attempted=self.operations)
        if code != 0:
            result.fail(result.attempted, f"scan-ep exited with {code}")
            return result
        n = self.RESOLUTION
        omegas = np.linspace(*self.omega, n)
        ks = np.linspace(*self.k, n)
        grid_w = np.tile(np.repeat(omegas, n), len(self.BLOCKS))
        grid_k = np.tile(ks, n * len(self.BLOCKS))
        block_of_row = np.repeat(self.BLOCKS, n * n)
        picker = random.Random(self.sample_seed)
        for label in self.LABELS:
            path = out / f"scan_{label}.csv"
            rows = _read_csv(path, ["omega", "k", "kappa", "block"], numeric=3)
            blocks = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(3,), dtype=str)
            if rows.shape[0] != grid_w.size:
                result.fail(grid_w.size, f"{label}: {rows.shape[0]} rows")
                continue
            misplaced = ((rows[:, 0] != grid_w) | (rows[:, 1] != grid_k)
                         | (blocks != block_of_row))
            if misplaced.any():
                result.fail(int(misplaced.sum()), f"{label}: rows off the requested grid")
            kappa = rows[:, 2]
            bad = ~((kappa >= 1.0 - 1e-12) | np.isposinf(kappa))  # NaN fails too
            if bad.any():
                result.fail(int(bad.sum()), f"{label}: {int(bad.sum())} kappa values "
                            f"not >= 1 (NaN: {int(np.isnan(kappa).sum())})")
            for block in self.BLOCKS:
                self._resample(result, picker, label, block, rows,
                               np.flatnonzero((block_of_row == block)
                                              & (kappa < epscan.EP_KAPPA_THRESHOLD)))
        return result

    def _resample(self, result, picker, label, block, rows, candidates) -> None:
        """Recompute SAMPLES seeded points one at a time and compare kappa.

        The single matrix is built as a 1x1 grid, which gives the bits
        the scan saw. That matters for the second block: its eigenvalues
        (sums of first-block ones) are near-repeated almost everywhere, so
        its kappa moves by up to a few percent under a last-bit change of
        the matrix, while the first block's moves by < 1e-7.
        """
        for i in picker.sample(list(candidates), min(self.SAMPLES, len(candidates))):
            mat = epscan.grid_block_matrices(
                label, block, np.full((1, 1), rows[i, 0]), np.full((1, 1), rows[i, 1]),
                self.hot, self.cold)[0, 0]
            single = epscan.condition_number_of(mat)
            if not abs(single - rows[i, 2]) <= self.KAPPA_RTOL * single:
                result.fail(1, f"{label} {block} at row {i}: scan kappa "
                            f"{rows[i, 2]!r}, single {single!r}")

    def serial_scan_seconds(self) -> float:
        """Time of the same grid scanned by one thread."""
        start = time.perf_counter()
        epscan.scan(self.LABELS, self.BLOCKS, tuple(self.omega), tuple(self.k),
                    (self.RESOLUTION, self.RESOLUTION), self.hot, self.cold, threads=1)
        return time.perf_counter() - start

    def expected_counts(self):
        return {"epscan.scan.calls": 1, "epscan.scan.points": self.units["scan_points"],
                "generators.build.calls": 0}


class CouplingSweep(Workload):
    """Stationary currents against k: a resonant log sweep and a detuned one."""

    name = "coupling-sweep"
    RESONANT_POINTS = 30
    DETUNED_POINTS = 10
    #: |Q_hot + Q_cold| allowed, relative to the noise-floor current scale
    #: (the conservation bound of the acceptance suite)
    SUM_RTOL = 1e-10
    HEADER = ["k", "Qh_L", "Qc_L", "Qh_G", "Qc_G", "Qh_R", "Qc_R"]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.k_min = 1e-7 * 10 ** (0.3 * self.rng.random())
        self.k_max = 9e-5 * (0.85 + 0.15 * self.rng.random())
        self.omega_c = 1.05 + 0.02 * (self.rng.random() - 0.5)
        self.sweeps = {"resonant": (1.0, self.RESONANT_POINTS),
                       "detuned": (self.omega_c, self.DETUNED_POINTS)}

    @property
    def units(self):
        points = self.RESONANT_POINTS + self.DETUNED_POINTS
        return {"sweep_points": points, "verified_currents": 3 * points}

    @property
    def operations(self):
        return self.units["verified_currents"]

    def argv(self, out: Path, omega_c: float, points: int) -> list[str]:
        return ["steady", "--out", str(out)] + _sets(_assign(
            system__omega_c=omega_c, steady__k_min=self.k_min,
            steady__k_max=self.k_max, steady__points=points, steady__spacing="log"))

    def first_call(self, out):
        for name, (omega_c, _) in self.sweeps.items():
            _require_ok(run_cli(self.argv(out / name, omega_c, 1)), "steady")

    def execute(self, out):
        return {name: run_cli(self.argv(out / name, omega_c, points))
                for name, (omega_c, points) in self.sweeps.items()}

    def verify(self, out, codes):
        result = Outcome(attempted=self.operations)
        for name, (omega_c, points) in self.sweeps.items():
            if codes[name] != 0:
                result.fail(3 * points, f"steady ({name}) exited with {codes[name]}")
                continue
            system, hot, cold = _physics(_assign(system__omega_c=omega_c))
            rows = _read_csv(out / name / "steady.csv", self.HEADER)
            if rows.shape[0] != points:
                result.fail(3 * points, f"{name}: {rows.shape[0]} rows")
                continue
            off_grid = rows[:, 0] != np.geomspace(self.k_min, self.k_max, points)
            if off_grid.any():
                result.fail(3 * int(off_grid.sum()), f"{name}: k column off the sweep")
            q_hot, q_cold = rows[:, 1::2], rows[:, 2::2]
            scale = current_scale(system, hot, cold)
            unbalanced = ~(np.abs(q_hot + q_cold) <= self.SUM_RTOL * scale)
            if unbalanced.any():
                result.fail(int(unbalanced.sum()), f"{name}: Q_hot + Q_cold != 0 "
                            f"(worst {np.nanmax(np.abs(q_hot + q_cold)) / scale:g} of scale)")
            clausius = q_hot[:, 1] / hot.temperature + q_cold[:, 1] / cold.temperature
            violated = ~(clausius <= 0.0)
            if violated.any():
                result.fail(int(violated.sum()), f"{name}: GME Clausius sum > 0")
        return result

    def expected_counts(self):
        currents = self.units["verified_currents"]
        return {"generators.build.calls": currents, "dynamics.steady_state.calls": currents,
                "thermo.heat_current.calls": currents, "epscan.scan.calls": 0}


class TransientEp(Workload):
    """Transient currents of all three pictures at the exceptional coupling."""

    name = "transient-ep"
    POINTS = 4000
    #: the last sample may keep this share of the largest deviation from
    #: the stationary current along the trajectory. At a first-block EP the
    #: second block has a Jordan chain of length 3, whose slowest mode
    #: decays as (1 + x + x^2/2 + x^3/6) e^-x: 4.7e-4 at x = 14 time units.
    DECAY = 1e-3
    HEADER = ["t", "Q_hot_L", "Q_hot_G", "Q_hot_R", "Q_cold_L", "Q_cold_G", "Q_cold_R"]

    def __init__(self, seed: int):
        super().__init__(seed)
        t_hot = 8.0 + 4.0 * self.rng.random()
        t_cold = 4.0 + 2.0 * self.rng.random()
        self.factor = 14.0 + 2.0 * self.rng.random()
        temps = _assign(baths__hot__temperature=t_hot, baths__cold__temperature=t_cold)
        system, hot, cold = _physics(temps)
        k_ep = epscan.exceptional_line(system.omega_h, hot, cold)
        self.overrides = temps + _assign(system__k=k_ep)
        self.system, self.hot, self.cold = _physics(self.overrides)

    @property
    def units(self):
        return {"time_points": self.POINTS, "verified_samples": 3 * self.POINTS}

    @property
    def operations(self):
        return self.units["verified_samples"] + 3  # and the 3 stationary currents

    def argv(self, out: Path, points: int) -> list[str]:
        return ["transient", "--out", str(out)] + _sets(self.overrides + _assign(
            transient__points=points, transient__t_max_factor=self.factor))

    def first_call(self, out):
        _require_ok(run_cli(self.argv(out, 2)), "transient")

    def execute(self, out):
        return run_cli(self.argv(out, self.POINTS))

    def verify(self, out, code):
        result = Outcome(attempted=self.operations)
        if code != 0:
            result.fail(result.attempted, f"transient exited with {code}")
            return result
        rows = _read_csv(out / "transient.csv", self.HEADER)
        extras = json.loads((out / "transient.meta.json").read_text())["extras"]
        if rows.shape[0] != self.POINTS:
            result.fail(result.attempted, f"{rows.shape[0]} rows")
            return result
        times = np.linspace(0.0, self.factor * extras["time_unit"], self.POINTS)
        if not np.array_equal(rows[:, 0], times):
            result.fail(3 * self.POINTS, "t column off the requested grid")
        non_finite = ~np.isfinite(rows[:, 1:])
        if non_finite.any():
            result.fail(int(non_finite.sum()), "non-finite currents")
        floor = 1e-9 * current_scale(self.system, self.hot, self.cold)
        for label, tag in HEADER_TAGS:
            steady = extras["steady_currents"][label]
            for side in ("hot", "cold"):
                column = rows[:, self.HEADER.index(f"Q_{side}_{tag}")]
                target = steady[f"Q_{side}"]
                deviation = np.abs(column - target)
                if not deviation[-1] <= self.DECAY * deviation.max() + floor:
                    result.fail(1, f"{label} Q_{side}: final sample {column[-1]!r} "
                                f"not near stationary {target!r}")
        return result

    def expected_counts(self):
        samples = self.units["verified_samples"]
        return {"generators.build.calls": 3, "thermo.samples_verified": samples,
                "dynamics.propagate.steps": samples, "thermo.heat_current.calls": 3,
                "dynamics.steady_state.calls": 3, "epscan.scan.calls": 0}


class EpLocate(Workload):
    """Scalar EP location: refine_ep around the exceptional line at seeded
    omega, then the rigidity profile across the EP."""

    name = "ep-locate"
    OMEGAS = 12
    REFINE_LABELS = ((LME, 1e-9), (REDFIELD, 1e-6))  # label, rel. tolerance to k*
    RIGIDITY_LABELS = (LME, GME, REDFIELD)
    RIGIDITY_POINTS = 1000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.omegas = [0.6 + 0.8 * self.rng.random() for _ in range(self.OMEGAS)]
        self.system, self.hot, self.cold = _physics([])
        self.k_ep = epscan.exceptional_line(self.system.omega_h, self.hot, self.cold)
        self.k_range = [self.k_ep * (0.02 + 0.04 * self.rng.random()),
                        self.k_ep * (1.8 + 0.4 * self.rng.random())]

    @property
    def units(self):
        return {"refines": self.OMEGAS * len(self.REFINE_LABELS),
                "rigidity_points": self.RIGIDITY_POINTS,
                "verified_rigidities": len(self.RIGIDITY_LABELS) * self.RIGIDITY_POINTS}

    @property
    def operations(self):
        return self.units["refines"] + self.units["verified_rigidities"]

    def argv(self, out: Path, points: int) -> list[str]:
        return ["rigidity", "--out", str(out)] + _sets(_assign(
            generators=list(self.RIGIDITY_LABELS), rigidity__k_min=self.k_range[0],
            rigidity__k_max=self.k_range[1], rigidity__points=points))

    def _refine(self, label: str, omega: float) -> float:
        k_star = epscan.exceptional_line(omega, self.hot, self.cold)
        return epscan.refine_ep(label, "first", omega, (0.5 * k_star, 1.5 * k_star),
                                self.hot, self.cold)

    def first_call(self, out):
        self._refine(LME, 1.0)
        _require_ok(run_cli(self.argv(out, 2)), "rigidity")

    def execute(self, out):
        refined = []
        for omega in self.omegas:
            for label, _ in self.REFINE_LABELS:
                try:
                    refined.append(self._refine(label, omega))
                except (MeqlabError, np.linalg.LinAlgError) as exc:
                    refined.append(exc)
        return refined, run_cli(self.argv(out, self.RIGIDITY_POINTS))

    def verify(self, out, raw):
        refined, code = raw
        units = self.units
        result = Outcome(attempted=self.operations)
        pairs = [(omega, label, tol) for omega in self.omegas
                 for label, tol in self.REFINE_LABELS]
        for (omega, label, tol), k in zip(pairs, refined):
            k_star = epscan.exceptional_line(omega, self.hot, self.cold)
            if isinstance(k, Exception) or not abs(k - k_star) <= tol * k_star:
                result.fail(1, f"refine_ep {label} at omega={omega!r}: {k!r}, "
                            f"exceptional line {k_star!r}")
        if code != 0:
            result.fail(units["verified_rigidities"], f"rigidity exited with {code}")
            return result
        header = ["k"] + [f"phi_{label}_{i}" for label in self.RIGIDITY_LABELS
                          for i in range(1, 5)]
        rows = _read_csv(out / "rigidity.csv", header)
        ks = np.linspace(*self.k_range, self.RIGIDITY_POINTS)
        if rows.shape[0] != ks.size or not np.array_equal(rows[:, 0], ks):
            result.fail(units["verified_rigidities"], "k column off the requested sweep")
            return result
        step = ks[1] - ks[0]
        for j, label in enumerate(self.RIGIDITY_LABELS):
            phi = rows[:, 1 + 4 * j: 5 + 4 * j]
            outside = ~((phi >= 0.0) & (phi <= 1.0 + 1e-9)).all(axis=1)
            if outside.any():
                result.fail(int(outside.sum()), f"{label}: rigidity outside [0, 1]")
            weakest = np.nanmin(phi, axis=1)
            if label == GME:
                if not weakest.min() > 0.9:  # the secular picture has no EP
                    result.fail(1, f"GME rigidity dips to {weakest.min()!r}")
            elif not (weakest.min() < 0.1
                      and abs(ks[np.argmin(weakest)] - self.k_ep) <= step):
                result.fail(1, f"{label}: rigidity minimum {weakest.min()!r} at "
                            f"k={ks[np.argmin(weakest)]!r}, EP at {self.k_ep!r}")
        return result

    def expected_counts(self):
        return {"epscan.refine_ep.calls": self.units["refines"],
                "eigen.phase_rigidity_profile.calls": len(self.RIGIDITY_LABELS),
                "generators.build.calls": 0, "epscan.scan.calls": 0}


WORKLOADS = {w.name: w for w in (EpMap, CouplingSweep, TransientEp, EpLocate)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
