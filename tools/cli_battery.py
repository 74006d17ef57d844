"""Run a fixed battery of `meqlab` invocations against one checkout and
record a hash of everything each run leaves behind.

    python3 tools/cli_battery.py CHECKOUT OUTDIR

Each run executes `python -m meqlab.cli ...` with PYTHONPATH=CHECKOUT/src
in its own subdirectory OUTDIR/<run>, the default output directory ".",
and stores the run's stdout, stderr and exit code there next to the files
it wrote. OUTDIR/manifest.txt then holds one "sha256  <run>/<file>" line
per file, in sorted order, so two checkouts give the same results exactly
when their manifests are equal:

    python3 tools/cli_battery.py parent /tmp/a
    python3 tools/cli_battery.py .      /tmp/b
    diff /tmp/a/manifest.txt /tmp/b/manifest.txt

The runs cover every command at its defaults, every generator label in
both frames at and off resonance (k = 0 and the smallest detuning
included), a detuned sweep from k = 0 (the one path where currents meet
modes of zero weight), a scan whose rows are longer than one scan tile,
both table formats, the configs near the stability edge, and those
closer to it or past it that exit with an error code (a stationary state
that does not conserve energy, an unstable coupling).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

LABELS = ("LME", "GME", "Redfield", "GME-zeroth", "Redfield-zeroth")
FRAMES = ("local-quadratures", "normal-mode-quadratures")
SMALL_SCAN = ("--set", "scan.resolution=[6,8]", "--set", "scan.k=[0.0, 8e-5]")
ALL_LABELS = ("--set", "generators=" + json.dumps(LABELS))
#: the smallest detuning above omega_h = 1
NEXT_AFTER_ONE = repr(float.fromhex("0x1.0000000000001p+0"))


def _runs() -> dict[str, tuple[str, ...]]:
    runs = {
        f"default-{command}": (command,)
        for command in ("scan-ep", "transient", "steady", "rigidity", "ep-line", "matrices")
    }
    systems = {
        "resonant": (),
        "detuned": ("--set", "system.omega_c=1.05"),
        "nextafter": ("--set", f"system.omega_c={NEXT_AFTER_ONE}"),
        "decoupled": ("--set", "system.k=0"),
        "detuned-decoupled": ("--set", "system.omega_c=1.05", "--set", "system.k=0"),
    }
    for system, settings in systems.items():
        for label in LABELS:
            for frame in FRAMES:
                runs[f"matrices-{system}-{label}-{frame.split('-')[0]}"] = (
                    "matrices", "--set", f"matrices.label={label}",
                    "--set", f"matrices.frame={frame}", *settings,
                )
    runs.update({
        "json-scan-ep": ("scan-ep", *SMALL_SCAN, "--format", "json"),
        "json-transient": ("transient", "--set", "transient.points=40", "--format", "json"),
        "json-steady": ("steady", "--set", "steady.points=5", "--format", "json"),
        "json-rigidity": ("rigidity", "--set", "rigidity.points=11", "--format", "json"),
        "all-labels-scan-ep": ("scan-ep", *SMALL_SCAN, *ALL_LABELS),
        # rows longer than a scan tile, cut into column pieces
        "long-row-scan-ep": ("scan-ep", "--set", "scan.resolution=[3, 1100]",
                             "--set", 'scan.blocks=["first","second"]'),
        "all-labels-rigidity": ("rigidity", "--set", "rigidity.points=21", *ALL_LABELS),
        "detuned-transient": ("transient", "--set", "system.omega_c=1.05"),
        "detuned-steady": ("steady", "--set", "system.omega_c=1.05"),
        "detuned-decoupled-steady": ("steady", "--set", "system.omega_c=1.05",
                                     "--set", "steady.spacing=linear", "--set", "steady.k_min=0",
                                     "--set", "steady.k_max=1e-4", "--set", "steady.points=3"),
        "nextafter-steady": ("steady", "--set", f"system.omega_c={NEXT_AFTER_ONE}"),
        "detuned-rigidity": ("rigidity", "--set", "system.omega_c=1.05"),
        "detuned-ep-line": ("ep-line", "--set", "system.omega_c=1.05"),
        "strong-steady": ("steady", "--set", "steady.k_min=0.01", "--set", "steady.k_max=0.5",
                          "--set", "steady.points=7", "--set", "steady.spacing=linear"),
        "near-edge-steady": ("steady", "--set", "steady.k_min=0.99", "--set", "steady.k_max=0.9999",
                             "--set", "steady.points=2"),
        "near-edge-transient": ("transient", "--set", "system.k=0.9999"),
        "non-conserving-steady": ("steady", "--set", "steady.spacing=linear",
                                  "--set", "steady.k_min=0.99999999",
                                  "--set", "steady.k_max=0.99999999", "--set", "steady.points=1"),
        "unstable-matrices": ("matrices", "--set", "system.k=1.0"),
    })
    return runs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: cli_battery.py CHECKOUT OUTDIR", file=sys.stderr)
        return 2
    checkout, outdir = Path(argv[0]).resolve(), Path(argv[1])
    if not (checkout / "src" / "meqlab").is_dir():
        print(f"no src/meqlab under {checkout}", file=sys.stderr)
        return 2
    if outdir.exists() and any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    lines = []
    for name, args in _runs().items():
        run_dir = outdir / name
        run_dir.mkdir(parents=True)
        done = subprocess.run([sys.executable, "-m", "meqlab.cli", *args], cwd=run_dir,
                              env=env, capture_output=True)
        (run_dir / "stdout.txt").write_bytes(done.stdout)
        (run_dir / "stderr.txt").write_bytes(done.stderr)
        (run_dir / "exit_code.txt").write_text(f"{done.returncode}\n")
        print(f"{done.returncode}  {name}")
        for path in sorted(run_dir.iterdir()):
            lines.append(f"{_sha256(path)}  {name}/{path.name}\n")
    (outdir / "manifest.txt").write_text("".join(lines))
    print(f"{len(lines)} files from {len(_runs())} runs in {outdir / 'manifest.txt'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
