"""Golden matrix templates and their instantiation.

Each JSON file under ``fixtures/`` stores one closed-form coefficient
matrix (or constant vector) with entries as expressions over named rate
and frequency symbols, so a single template serves every parameter
point. ``instantiate`` substitutes numbers (or numpy arrays, which
broadcast, making grid evaluation cheap) and returns the ndarray.
Only 4x4 first-moment blocks and 10-vector constants are stored; each
10x10 block is derived from its drift by ``algebra.second_moment_flow``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import ValidationError

__all__ = ["fixture_names", "fixture_symbols", "instantiate"]


@lru_cache(maxsize=None)
def _load(name: str) -> dict:
    try:
        path = resources.files("meqlab") / "fixtures" / f"{name}.json"
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"unknown fixture template {name!r}") from None
    return payload


def fixture_names() -> list[str]:
    root = resources.files("meqlab") / "fixtures"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def fixture_symbols(name: str) -> tuple[str, ...]:
    return tuple(_load(name)["symbols"])


@lru_cache(maxsize=None)
def _compiled(name: str):
    payload = _load(name)
    if "matrix" in payload:
        rows = payload["matrix"]
        shape = (len(rows), len(rows[0]))
        entries = [e for row in rows for e in row]
    else:
        entries = list(payload["vector"])
        shape = (len(entries),)
    code = [compile(e, f"<fixture {name}>", "eval") for e in entries]
    return shape, code, tuple(payload["symbols"])


def instantiate(name: str, **symbols) -> np.ndarray:
    """Evaluate a template at the given symbol values.

    Values may be scalars or broadcastable numpy arrays; the template
    axes are appended last, so a (n, m) grid of symbols yields an
    (n, m, rows, cols) stack of matrices.
    """
    shape, code, declared = _compiled(name)
    missing = set(declared) - set(symbols)
    if missing:
        raise ValidationError(f"fixture {name!r} missing symbols {sorted(missing)}")
    unknown = set(symbols) - set(declared)
    if unknown:
        raise ValidationError(f"fixture {name!r} got unknown symbols {sorted(unknown)}")
    env = {"__builtins__": {}}
    env.update(symbols)
    values = [eval(c, env) for c in code]  # trusted package data
    broadcast = np.broadcast_shapes(*(np.shape(v) for v in values))
    stacked = np.stack(
        [np.broadcast_to(np.asarray(v, dtype=float), broadcast) for v in values],
        axis=-1,
    )
    return stacked.reshape(broadcast + shape)
