"""Command-line front end: config ingestion, subcommands, CSV/JSON emission.

Subcommands: scan-ep, transient, steady, rigidity, ep-line, matrices.
One JSON config document drives everything (--config), with individual
--set key=value overrides using dotted paths. SETTINGS holds each
setting's default and rule; load_config checks the whole document
against it, whichever command reads it, and each command then reads
plain values. Numeric output has 17 significant digits, byte for byte
as '%.17g' % x, and '\\n' line endings, so identical configs produce
byte-identical files. Tables are spelled column-wise by meqlab.spell;
only non-finite values, nonzero magnitudes outside [1e-290, 1e290) and
possible rounding ties fall back to '%.17g' one value at a time.

Exit codes: 0 success, 2 validation error, 3 physics error (instability
or no steady state), 4 numerical/internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__, spell
from .bath import BathSpec
from .dynamics import slowest_timescale, steady_state, thermal_product_state
from .epscan import BLOCKS, EP_KAPPA_THRESHOLD, exceptional_line, grid_block_matrices, scan
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
    FRAME_NAMES,
    GENERATOR_LABELS,
    GME,
    LME,
    LOCAL_FRAME,
    REDFIELD,
    build,
)
from .eigen import phase_rigidity_profile
from .model import SystemSpec, is_resonant
from .thermo import heat_current, transient_currents

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PHYSICS = 3
EXIT_NUMERICAL = 4

def _fmt_row(values) -> list[str]:
    """Each number of a 1-D sequence spelled as the tables spell it."""
    values = np.asarray(values, dtype=np.float64)
    return b"".join(spell.table_lines([values], values.shape)).decode().splitlines()


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


def _number(node, path: str, positive: bool = False) -> None:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValidationError(f"config {path!r} must be a number, got {node!r}")
    if not abs(node) <= _sys.float_info.max:  # inf, nan, or an int past the floats
        raise ValidationError(f"config {path!r} must be finite")
    if positive and node <= 0:
        raise ValidationError(f"config {path!r} must be positive, got {float(node)!r}")


def _positive(node, path: str) -> None:
    _number(node, path, positive=True)


def _integer(minimum: int, pair: bool = False):
    """Rule: an integer, or a list of two, each at least ``minimum``."""
    what = "two integers" if pair else "an integer"

    def check(node, path: str) -> None:
        values = (node if isinstance(node, list) and len(node) == 2 else [None]) if pair else [node]
        if any(isinstance(v, bool) or not isinstance(v, int) or v < minimum for v in values):
            raise ValidationError(f"{path} must be {what} >= {minimum}")
    return check


def _range(node, path: str) -> None:
    if not isinstance(node, list) or len(node) != 2:
        raise ValidationError(f"config {path!r} must be two numbers, got {node!r}")
    for value in node:
        _number(value, path)


def _one_of(options: tuple, many: bool = False):
    """Rule: one of ``options`` or, with ``many``, a non-empty list of
    distinct ones."""
    what = "a non-empty list of distinct entries of" if many else "one of"

    def check(node, path: str) -> None:
        entries = (node if isinstance(node, list) else [None]) if many else [node]
        if (not entries or not all(isinstance(e, str) and e in options for e in entries)
                or len(set(entries)) < len(entries)):
            raise ValidationError(f"config {path!r} must be {what} {options}, got {node!r}")
    return check


def _string(node, path: str) -> None:
    if not isinstance(node, str):
        raise ValidationError(f"config {path!r} must be a string, got {node!r}")


#: every setting by dotted path: its default (the paper's operating point)
#: and its rule, in the order the rules run; DEFAULT_CONFIG nests the defaults
SETTINGS = {
    "system.omega_h": (1.0, _positive),
    "system.omega_c": (1.0, _positive),
    "system.k": (4.999495000505e-05, _number),
    "baths.hot.lambda_sq": (1e-08, _positive),
    "baths.hot.temperature": (10.0, _positive),
    "baths.cold.lambda_sq": (1e-04, _positive),
    "baths.cold.temperature": (5.0, _positive),
    "cutoff": (1000.0, _positive),
    "generators": ([LME, GME, REDFIELD], _one_of(GENERATOR_LABELS, many=True)),
    "scan.omega": ([0.5, 1.5], _range),
    "scan.k": (None, lambda node, path: node is None or _range(node, path)),  # null: auto-ranged
    "scan.resolution": ([200, 200], _integer(1, pair=True)),
    "scan.blocks": (["first"], _one_of(BLOCKS, many=True)),
    "transient.t_max_factor": (10.0, _positive),
    "transient.points": (400, _integer(1)),
    "steady.k_min": (1e-07, _number),
    "steady.k_max": (9e-05, _number),
    "steady.points": (25, _integer(1)),
    "steady.spacing": ("log", _one_of(("log", "linear"))),
    "rigidity.k_min": (1e-06, _number),
    "rigidity.k_max": (1e-04, _number),
    "rigidity.points": (101, _integer(2)),
    "matrices.label": (LME, _one_of(GENERATOR_LABELS)),
    "matrices.frame": (LOCAL_FRAME, _one_of(tuple(FRAME_NAMES))),
    "output.dir": (".", _string),
    "output.format": ("csv", _one_of(("csv", "json"))),
}


def _nest(flat: dict) -> dict:
    """The nested document whose leaves are the dotted paths of ``flat``."""
    document: dict = {}
    for path, value in flat.items():
        *parents, leaf = path.split(".")
        node = document
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return document


DEFAULT_CONFIG = _nest({path: default for path, (default, _) in SETTINGS.items()})


def _check_config(cfg: dict) -> None:
    """Raise ValidationError unless every setting of ``cfg`` obeys its rule."""
    for path, (_, rule) in SETTINGS.items():
        node = cfg
        for part in path.split("."):
            node = node[part]
        rule(node, path)
    if cfg["steady"]["spacing"] == "log":
        for name in ("k_min", "k_max"):
            if cfg["steady"][name] <= 0.0:
                raise ValidationError(f"steady.{name} must be positive for log spacing")


def load_config(path: str | None, overrides: list[str]) -> dict:
    """The defaults, merged with the JSON file at ``path`` and then with
    each --set assignment, checked whole: every command accepts the same
    documents, whichever sections it reads."""
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
    _check_config(cfg)
    return cfg


def parse_physics(cfg: dict) -> tuple[SystemSpec, BathSpec, BathSpec]:
    """The system and the hot and cold baths of a config from
    :func:`load_config`; the specs refuse what the config rules cannot
    see (an unstable coupling, a square that overflows)."""
    hot, cold = (BathSpec(cutoff=cfg["cutoff"], **cfg["baths"][name]) for name in ("hot", "cold"))
    return SystemSpec(**cfg["system"]), hot, cold


def _output(cfg: dict) -> tuple[Path, str]:
    """The config's output directory, created, and its table format."""
    directory = cfg["output"]["dir"]
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {directory!r}: {exc}") from exc
    return Path(directory), cfg["output"]["format"]


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_table(path: Path, header: list[str], columns, fmt: str,
                 shape: tuple[int, ...] | None = None) -> Path:
    """Write one table deterministically. Its rows run over ``shape``
    (default: the first column's length) in C order; each column is a
    float array, spelled by :func:`meqlab.spell.table_lines`, or an array
    of spelled cells (see there). A CSV row is its cells joined by ','
    with a '\\n' ending, a JSON row the list of the same cells."""
    lines = spell.table_lines(columns, shape or (len(columns[0]),))
    if fmt == "csv":
        target = path.with_suffix(".csv")
        with open(target, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            fh.writelines(lines)
    else:
        target = path.with_suffix(".json")
        rows = [line.split(",") for line in b"".join(lines).decode().splitlines()]
        _write_json(target, {"header": header, "rows": rows})
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
    _, hot, cold = parse_physics(cfg)
    settings = cfg["scan"]
    blocks = settings["blocks"]
    omega_range = tuple(map(float, settings["omega"]))
    if settings["k"] is None:
        k_range = (0.0, 1.5 * exceptional_line(omega_range[1], hot, cold))
    else:
        k_range = tuple(map(float, settings["k"]))
    result = scan(cfg["generators"], blocks, omega_range, k_range,
                  tuple(settings["resolution"]), hot, cold, threads=args.threads)
    out, fmt = _output(cfg)
    # rows run over (block, omega, k); each grid value repeats on many
    # rows: spell it once
    shape = (len(blocks), result.omegas.size, result.ks.size)
    spelled = [spell.cells(result.omegas)[None, :, None], spell.cells(result.ks)[None, None, :]]
    block_cells = spell.text_cells(blocks)[:, None, None]
    outputs = []
    for label in cfg["generators"]:
        kappas = np.stack([result.kappas[(label, block)] for block in blocks])
        target = _write_table(out / f"scan_{label}", ["omega", "k", "kappa", "block"],
                              [*spelled, kappas, block_cells], fmt, shape)
        outputs.append(target.name)
    _write_sidecar(out / "scan.meta.json", "scan-ep", cfg, outputs,
                   extras={"ep_kappa_threshold": EP_KAPPA_THRESHOLD, **result.metadata})
    print(f"wrote {len(outputs)} scan file(s) to {out}")
    return EXIT_OK


_TRANSIENT_LABELS = ((LME, "L"), (GME, "G"), (REDFIELD, "R"))


def cmd_transient(cfg: dict, args) -> int:
    system, hot, cold = parse_physics(cfg)
    gens = {label: build(label, system, hot, cold) for label, _ in _TRANSIENT_LABELS}
    time_unit = slowest_timescale(gens[REDFIELD])
    times = np.linspace(0.0, cfg["transient"]["t_max_factor"] * time_unit,
                        cfg["transient"]["points"])
    state0 = thermal_product_state(system, hot, cold)

    # every stationary state is decided before any trajectory is propagated
    steady_values = {}
    for label, _ in _TRANSIENT_LABELS:
        steady = heat_current(label, system, hot, cold, steady_state(gens[label], system))
        steady_values[label] = {"Q_hot": steady.q_hot, "Q_cold": steady.q_cold}
    columns = {"t": times}
    for label, tag in _TRANSIENT_LABELS:
        samples = transient_currents(label, system, hot, cold, state0, times, gen=gens[label])
        columns[f"Q_hot_{tag}"], columns[f"Q_cold_{tag}"] = samples.q_hot, samples.q_cold

    header = ["t"] + [f"Q_{side}_{tag}" for side in ("hot", "cold") for _, tag in _TRANSIENT_LABELS]
    out, fmt = _output(cfg)
    target = _write_table(out / "transient", header, [columns[name] for name in header], fmt)
    _write_sidecar(
        out / "transient.meta.json", "transient", cfg, [target.name],
        extras={"steady_currents": steady_values,
                "time_unit": time_unit,
                "time_unit_definition": "0.5/|max Re eigenvalue| of the Redfield "
                                        "drift block1"},
    )
    print(f"wrote {target}")
    return EXIT_OK


def cmd_steady(cfg: dict, args) -> int:
    system, hot, cold = parse_physics(cfg)
    sweep = cfg["steady"]
    spaced = np.geomspace if sweep["spacing"] == "log" else np.linspace
    ks = spaced(float(sweep["k_min"]), float(sweep["k_max"]), sweep["points"])

    rows = []
    for k in ks:
        sys_k = SystemSpec(system.omega_h, system.omega_c, float(k))
        row = [float(k)]
        for label, _tag in _TRANSIENT_LABELS:
            gen = build(label, sys_k, hot, cold)
            sample = heat_current(label, sys_k, hot, cold, steady_state(gen, sys_k))
            row.extend([sample.q_hot, sample.q_cold])
        rows.append(row)
    header = ["k"] + [f"Q{side}_{tag}" for _, tag in _TRANSIENT_LABELS for side in "hc"]
    out, fmt = _output(cfg)
    target = _write_table(out / "steady", header, list(np.array(rows).T), fmt)
    _write_sidecar(out / "steady.meta.json", "steady", cfg, [target.name])
    print(f"wrote {target}")
    return EXIT_OK


def cmd_rigidity(cfg: dict, args) -> int:
    system, hot, cold = parse_physics(cfg)
    if not is_resonant(system):
        raise ValidationError("rigidity is resonant: system.omega_c must equal system.omega_h")
    sweep = cfg["rigidity"]
    ks = np.linspace(float(sweep["k_min"]), float(sweep["k_max"]), sweep["points"])
    omega = system.omega_h

    header = ["k"]
    profiles = {}
    for label in cfg["generators"]:
        # one stacked closed-form call per label; its rows have the bits
        # of the per-k drifts
        drifts = dict(zip(ks.tolist(), grid_block_matrices(label, "first", omega, ks, hot, cold)))
        profiles[label] = phase_rigidity_profile(drifts.__getitem__, ks)
        header.extend(f"phi_{label}_{i + 1}" for i in range(4))
    columns = [ks] + [column for label in cfg["generators"] for column in profiles[label].rigidities.T]
    out, fmt = _output(cfg)
    target = _write_table(out / "rigidity", header, columns, fmt)
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
    system, hot, cold = parse_physics(cfg)
    if not is_resonant(system):
        raise ValidationError("ep-line is resonant: system.omega_c must equal system.omega_h")
    omega = system.omega_h
    exact = exceptional_line(omega, hot, cold, mode="exact")
    asymptotic = exceptional_line(omega, hot, cold, mode="large-cutoff")
    omega_s, exact_s, asymptotic_s = _fmt_row([omega, exact, asymptotic])
    print(f"omega = {omega_s}")
    print(f"k_exceptional_exact = {exact_s}")
    print(f"k_exceptional_large_cutoff = {asymptotic_s}")
    return EXIT_OK


def cmd_matrices(cfg: dict, args) -> int:
    system, hot, cold = parse_physics(cfg)
    label = cfg["matrices"]["label"]
    gen = build(label, system, hot, cold, frame=cfg["matrices"]["frame"])
    payload = {
        "label": gen.label,
        "frame": gen.frame,
        "basis": list(gen.basis_labels),
        "block1": [_fmt_row(row) for row in gen.block1],
        "block2": [_fmt_row(row) for row in gen.block2],
        "const2": _fmt_row(gen.const2),
        "system": cfg["system"],
        "baths": cfg["baths"],
        "cutoff": cfg["cutoff"],
        "version": __version__,
    }
    out, _ = _output(cfg)
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


@functools.lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and each parse copies the --set default before appending."""
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
        # each command takes only the flags it reads
        if name != "ep-line":
            p.add_argument("--out", dest="dir", help="output directory (default: output.dir)")
        if name not in ("ep-line", "matrices"):
            p.add_argument("--format", choices=["csv", "json"], help="table format")
        if name == "scan-ep":
            p.add_argument("--threads", type=int, help="scan worker count")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        # a given --out or --format wins over the checked config and is what its sidecar records
        for key in ("dir", "format"):
            if getattr(args, key, None) is not None:
                cfg["output"][key] = getattr(args, key)
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
