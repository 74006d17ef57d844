"""Command-line front end: config ingestion, subcommands, CSV/JSON emission.

Subcommands: scan-ep, transient, steady, rigidity, ep-line, matrices.
One JSON config document drives everything (--config), with individual
--set key=value overrides using dotted paths. Numeric output is
formatted with 17 significant digits and '\\n' line endings, so
identical configs produce byte-identical files.

Exit codes: 0 success, 2 validation error, 3 physics error (instability
or no steady state), 4 numerical/internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__
from .bath import BathSpec
from .dynamics import slowest_timescale, steady_state, thermal_product_state
from .epscan import EP_KAPPA_THRESHOLD, exceptional_line, scan
from .errors import (
    BracketError,
    ConsistencyError,
    ContractError,
    DomainError,
    MeqlabError,
    NumericalError,
    StabilityError,
    ValidationError,
)
from .generators import (
    GENERATOR_LABELS,
    GME,
    LME,
    LOCAL_FRAME,
    REDFIELD,
    build,
)
from .epscan import grid_block_matrices
from .eigen import phase_rigidity_profile
from .model import SystemSpec
from .thermo import heat_current, transient_currents

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PHYSICS = 3
EXIT_NUMERICAL = 4

DEFAULT_CONFIG = {
    "system": {"omega_h": 1.0, "omega_c": 1.0, "k": 4.999495000505e-05},
    "baths": {
        "hot": {"lambda_sq": 1e-08, "temperature": 10.0},
        "cold": {"lambda_sq": 1e-04, "temperature": 5.0},
    },
    "cutoff": 1000.0,
    "generators": [LME, GME, REDFIELD],
    "scan": {
        "omega": [0.5, 1.5],
        "k": None,  # None: [0, 1.5 * k*(omega_max)]
        "resolution": [200, 200],
        "blocks": ["first"],
    },
    "transient": {"t_max_factor": 10.0, "points": 400},
    "steady": {"k_min": 1e-07, "k_max": 9e-05, "points": 25, "spacing": "log"},
    "rigidity": {"k_min": 1e-06, "k_max": 1e-04, "points": 101},
    "matrices": {"label": LME, "frame": LOCAL_FRAME},
    "output": {"dir": ".", "format": "csv"},
}


def _fmt(value: float | str) -> str:
    if isinstance(value, str):
        return value
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.17g}"


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown config key {here!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValidationError(f"config key {here!r} must be an object")
            out[key] = _deep_merge(base[key], value, here)
        else:
            out[key] = value
    return out


def _set_override(cfg: dict, assignment: str) -> dict:
    """Merge one dotted-path assignment over ``cfg`` by the --config rules."""
    if "=" not in assignment:
        raise ValidationError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    return _deep_merge(cfg, value)


def _as_number(node, path: str, positive: bool = False) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValidationError(f"config {path!r} must be a number, got {node!r}")
    value = float(node)
    if not math.isfinite(value):
        raise ValidationError(f"config {path!r} must be finite")
    if positive and value <= 0.0:
        raise ValidationError(f"config {path!r} must be positive, got {value!r}")
    return value


def _require_number(cfg: dict, path: str, positive: bool = False) -> float:
    node = cfg
    for part in path.split("."):
        node = node[part]
    return _as_number(node, path, positive)


def _require_range(node, path: str) -> tuple[float, float]:
    if not isinstance(node, list) or len(node) != 2:
        raise ValidationError(f"config {path!r} must be two numbers, got {node!r}")
    return tuple(_as_number(v, path) for v in node)


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"config {path!r} is not valid JSON: line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(user, dict):
            raise ValidationError("config root must be a JSON object")
        cfg = _deep_merge(cfg, user)
    for assignment in overrides:
        cfg = _set_override(cfg, assignment)
    return cfg


def parse_physics(cfg: dict) -> tuple[SystemSpec, BathSpec, BathSpec]:
    """Validate the physical block of the config and build the specs."""
    for path in (
        "system.omega_h",
        "system.omega_c",
        "baths.hot.lambda_sq",
        "baths.hot.temperature",
        "baths.cold.lambda_sq",
        "baths.cold.temperature",
        "cutoff",
    ):
        _require_number(cfg, path, positive=True)
    _require_number(cfg, "system.k")
    labels = cfg["generators"]
    if not isinstance(labels, list) or not labels:
        raise ValidationError("config 'generators' must be a non-empty list")
    for label in labels:
        if label not in GENERATOR_LABELS:
            raise ValidationError(
                f"unknown generator label {label!r}; choose from {GENERATOR_LABELS}"
            )
    cutoff = cfg["cutoff"]
    system = SystemSpec(
        cfg["system"]["omega_h"], cfg["system"]["omega_c"], cfg["system"]["k"]
    )
    hot = BathSpec(
        cfg["baths"]["hot"]["lambda_sq"], cfg["baths"]["hot"]["temperature"], cutoff
    )
    cold = BathSpec(
        cfg["baths"]["cold"]["lambda_sq"], cfg["baths"]["cold"]["temperature"], cutoff
    )
    return system, hot, cold


def _out_dir(cfg: dict, args) -> Path:
    directory = args.out if args.out is not None else cfg["output"]["dir"]
    if not isinstance(directory, str):
        raise ValidationError(f"output.dir must be a string, got {directory!r}")
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {directory!r}: {exc}") from exc
    return Path(directory)


def _out_format(cfg: dict, args) -> str:
    fmt = args.format if args.format is not None else cfg["output"]["format"]
    if fmt not in ("csv", "json"):
        raise ValidationError(f"output format must be 'csv' or 'json', got {fmt!r}")
    return fmt


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_table(path: Path, header: list[str], rows, fmt: str) -> Path:
    """Write one table deterministically; CSV uses 17-significant-digit
    floats, strings verbatim and '\\n' endings."""
    if fmt == "csv":
        target = path.with_suffix(".csv")
        with open(target, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        target = path.with_suffix(".json")
        _write_json(target, {"header": header, "rows": [[_fmt(v) for v in row] for row in rows]})
    return target


def _write_sidecar(path: Path, command: str, cfg: dict, outputs: list[str],
                   extras: dict | None = None) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "outputs": sorted(outputs),
    }
    if extras:
        payload["extras"] = extras
    _write_json(path, payload)


# -- subcommands ------------------------------------------------------------


def cmd_scan(cfg: dict, args) -> int:
    system, hot, cold = parse_physics(cfg)
    block_cfg = cfg["scan"]
    omega_lo, omega_hi = _require_range(block_cfg["omega"], "scan.omega")
    res = block_cfg["resolution"]
    if (
        not isinstance(res, list)
        or len(res) != 2
        or any((isinstance(r, bool) or not isinstance(r, int) or r < 1) for r in res)
    ):
        raise ValidationError("scan.resolution must be two integers >= 1")
    blocks = block_cfg["blocks"]
    for b in blocks:
        if b not in ("first", "second"):
            raise ValidationError(f"scan.blocks entries must be 'first'/'second', got {b!r}")
    if block_cfg["k"] is None:
        k_lo, k_hi = 0.0, 1.5 * exceptional_line(omega_hi, hot, cold)
    else:
        k_lo, k_hi = _require_range(block_cfg["k"], "scan.k")
    result = scan(
        cfg["generators"], blocks, (omega_lo, omega_hi), (k_lo, k_hi),
        (res[0], res[1]), hot, cold, threads=args.threads,
    )
    out = _out_dir(cfg, args)
    fmt = _out_format(cfg, args)
    # each grid value repeats on many rows: format it once
    omegas = [_fmt(w) for w in result.omegas]
    ks = [_fmt(k) for k in result.ks]
    outputs = []
    for label in cfg["generators"]:
        rows = (
            (w, k, kappa, block)
            for block in blocks
            for w, kap_row in zip(omegas, result.kappas[(label, block)])
            for k, kappa in zip(ks, kap_row)
        )
        target = _write_table(out / f"scan_{label}", ["omega", "k", "kappa", "block"], rows, fmt)
        outputs.append(target.name)
    _write_sidecar(
        out / "scan.meta.json", "scan-ep", cfg, outputs,
        extras={"ep_kappa_threshold": EP_KAPPA_THRESHOLD,
                "nan_points": result.metadata["nan_points"],
                "norm": result.metadata["norm"]},
    )
    print(f"wrote {len(outputs)} scan file(s) to {out}")
    return EXIT_OK


_TRANSIENT_LABELS = ((LME, "L"), (GME, "G"), (REDFIELD, "R"))


def cmd_transient(cfg: dict, args) -> int:
    system, hot, cold = parse_physics(cfg)
    points = cfg["transient"]["points"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 1:
        raise ValidationError("transient.points must be an integer >= 1")
    factor = _require_number(cfg, "transient.t_max_factor", positive=True)

    gens = {label: build(label, system, hot, cold) for label, _ in _TRANSIENT_LABELS}
    time_unit = slowest_timescale(gens[REDFIELD])
    times = np.linspace(0.0, factor * time_unit, points)
    state0 = thermal_product_state(system, hot, cold)

    columns = {}
    steady_values = {}
    for label, tag in _TRANSIENT_LABELS:
        samples = transient_currents(
            label, system, hot, cold, state0, times, gen=gens[label]
        )
        columns[f"Q_hot_{tag}"] = [s.q_hot for s in samples]
        columns[f"Q_cold_{tag}"] = [s.q_cold for s in samples]
        ss = steady_state(gens[label], system)
        steady = heat_current(label, system, hot, cold, ss)
        steady_values[label] = {"Q_hot": steady.q_hot, "Q_cold": steady.q_cold}

    header = ["t", "Q_hot_L", "Q_hot_G", "Q_hot_R", "Q_cold_L", "Q_cold_G", "Q_cold_R"]
    rows = [
        (t, columns["Q_hot_L"][i], columns["Q_hot_G"][i], columns["Q_hot_R"][i],
         columns["Q_cold_L"][i], columns["Q_cold_G"][i], columns["Q_cold_R"][i])
        for i, t in enumerate(times)
    ]
    out = _out_dir(cfg, args)
    target = _write_table(out / "transient", header, rows, _out_format(cfg, args))
    _write_sidecar(
        out / "transient.meta.json", "transient", cfg, [target.name],
        extras={"steady_currents": steady_values,
                "time_unit": time_unit,
                "time_unit_definition": "1/|max Re eigenvalue| of the Redfield "
                                        "second-moment block"},
    )
    print(f"wrote {target}")
    return EXIT_OK


def cmd_steady(cfg: dict, args) -> int:
    system, hot, cold = parse_physics(cfg)
    sweep = cfg["steady"]
    k_min = _require_number(cfg, "steady.k_min")
    k_max = _require_number(cfg, "steady.k_max")
    points = sweep["points"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 1:
        raise ValidationError("steady.points must be an integer >= 1")
    if sweep["spacing"] == "log":
        if k_min <= 0.0:
            raise ValidationError("steady.k_min must be positive for log spacing")
        ks = np.geomspace(k_min, k_max, points)
    elif sweep["spacing"] == "linear":
        ks = np.linspace(k_min, k_max, points)
    else:
        raise ValidationError("steady.spacing must be 'log' or 'linear'")

    rows = []
    for k in ks:
        sys_k = SystemSpec(system.omega_h, system.omega_c, float(k))
        row = [float(k)]
        for label, _tag in _TRANSIENT_LABELS:
            gen = build(label, sys_k, hot, cold)
            sample = heat_current(
                label, sys_k, hot, cold, steady_state(gen, sys_k)
            )
            row.extend([sample.q_hot, sample.q_cold])
        rows.append(tuple(row))
    header = ["k", "Qh_L", "Qc_L", "Qh_G", "Qc_G", "Qh_R", "Qc_R"]
    out = _out_dir(cfg, args)
    target = _write_table(out / "steady", header, rows, _out_format(cfg, args))
    _write_sidecar(out / "steady.meta.json", "steady", cfg, [target.name])
    print(f"wrote {target}")
    return EXIT_OK


def cmd_rigidity(cfg: dict, args) -> int:
    system, hot, cold = parse_physics(cfg)
    sweep = cfg["rigidity"]
    k_min = _require_number(cfg, "rigidity.k_min")
    k_max = _require_number(cfg, "rigidity.k_max")
    points = sweep["points"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise ValidationError("rigidity.points must be an integer >= 2")
    ks = np.linspace(k_min, k_max, points)
    omega = system.omega_h
    if np.any(np.abs(ks) >= omega**2):
        raise ValidationError("rigidity k range leaves the stability region |k| < omega^2")

    header = ["k"]
    profiles = {}
    for label in cfg["generators"]:
        profile = phase_rigidity_profile(
            lambda k, lbl=label: grid_block_matrices(lbl, "first", omega, k, hot, cold),
            ks,
        )
        profiles[label] = profile
        header.extend(f"phi_{label}_{i + 1}" for i in range(4))
    rows = []
    for idx, k in enumerate(ks):
        row = [k]
        for label in cfg["generators"]:
            row.extend(profiles[label].rigidities[idx])
        rows.append(tuple(row))
    out = _out_dir(cfg, args)
    target = _write_table(out / "rigidity", header, rows, _out_format(cfg, args))
    flagged = {
        label: list(map(int, profiles[label].flagged)) for label in cfg["generators"]
    }
    _write_sidecar(
        out / "rigidity.meta.json", "rigidity", cfg, [target.name],
        extras={"omega": omega, "flagged_samples": flagged},
    )
    print(f"wrote {target}")
    return EXIT_OK


def cmd_epline(cfg: dict, args) -> int:
    _system, hot, cold = parse_physics(cfg)
    omega = cfg["system"]["omega_h"]
    exact = exceptional_line(omega, hot, cold, mode="exact")
    asymptotic = exceptional_line(omega, hot, cold, mode="large-cutoff")
    print(f"omega = {_fmt(omega)}")
    print(f"k_exceptional_exact = {_fmt(exact)}")
    print(f"k_exceptional_large_cutoff = {_fmt(asymptotic)}")
    return EXIT_OK


def cmd_matrices(cfg: dict, args) -> int:
    system, hot, cold = parse_physics(cfg)
    label = cfg["matrices"]["label"]
    gen = build(label, system, hot, cold, frame=cfg["matrices"]["frame"])
    payload = {
        "label": gen.label,
        "frame": gen.frame,
        "basis": list(gen.basis_labels),
        "block1": [[_fmt(v) for v in row] for row in gen.block1],
        "block2": [[_fmt(v) for v in row] for row in gen.block2],
        "const2": [_fmt(v) for v in gen.const2],
        "system": cfg["system"],
        "baths": cfg["baths"],
        "cutoff": cfg["cutoff"],
        "version": __version__,
    }
    out = _out_dir(cfg, args)
    target = out / f"matrices_{label}.json"
    _write_json(target, payload)
    print(f"wrote {target}")
    return EXIT_OK


COMMANDS = {
    "scan-ep": cmd_scan,
    "transient": cmd_transient,
    "steady": cmd_steady,
    "rigidity": cmd_rigidity,
    "ep-line": cmd_epline,
    "matrices": cmd_matrices,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meqlab",
        description="Moment-dynamics generators, exceptional-point scans, and "
                    "heat currents for two coupled thermal resonators.",
    )
    parser.add_argument("--version", action="version", version=f"meqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (defaults built in)")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config entry (dotted path, JSON value)",
        )
        p.add_argument("--out", help="output directory (default: config output.dir)")
        p.add_argument("--format", choices=["csv", "json"], help="table format")
        p.add_argument("--threads", type=int, help="scan worker count")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        return COMMANDS[args.command](cfg, args)
    except (ValidationError, DomainError, ContractError, BracketError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except StabilityError as exc:
        print(f"physics error: {exc}", file=_sys.stderr)
        return EXIT_PHYSICS
    except (NumericalError, ConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except MeqlabError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
