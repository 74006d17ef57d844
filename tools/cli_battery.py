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
both table formats, a partial --config file and a whole section set by
--set (the config merge), a scan whose every point overflows, the
configs near the stability edge, a steady sweep of more points than the
memoised functions keep entries, one ulp inside the edge at a frequency whose
libm square (omega**2) is an ulp below its product omega*omega, and
those closer to it or past it that exit with an error code (a stationary
state that does not conserve energy, an unstable coupling, a channel
table beyond the float range, also with a second bath that fails later
in the channel order), both sides of the Hurwitz threshold, matrices at
huge frequencies, a bath whose omega/T underflows to zero, a Redfield
transient whose logged uncertainty violation names its first time, and tables
that reach every branch of the column-wise float spelling (fixed
notation at every exponent from -4 to 16, 2- and 3-digit exponents, 0,
-0, and cells outside its range, in CSV and JSON).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

LABELS = ("LME", "GME", "Redfield", "GME-zeroth", "Redfield-zeroth")
FRAMES = ("local-quadratures", "normal-mode-quadratures")
#: scan-ep on a fixed worker count, which scan.meta.json records: the
#: manifest then does not depend on the host's CPUs
SCAN_EP = ("scan-ep", "--threads", "2")
SMALL_SCAN = ("--set", "scan.resolution=[6,8]", "--set", "scan.k=[0.0, 8e-5]")
ALL_LABELS = ("--set", "generators=" + json.dumps(LABELS))
#: the smallest detuning above omega_h = 1
NEXT_AFTER_ONE = repr(float.fromhex("0x1.0000000000001p+0"))
#: a resonant frequency whose libm square is an ulp below its product, and
#: the coupling one ulp inside the stability edge |k| < omega*omega there
MISROUNDED = ("--set", "system.omega_h=0.8683284008647664",
              "--set", "system.omega_c=0.8683284008647664")
INSIDE_EDGE = repr(math.nextafter(0.8683284008647664 * 0.8683284008647664, 0.0))
#: the config.json a run finds in its directory, by run name
CONFIG_FILES = {"config-file-steady": {"system": {"k": 1e-5}, "steady": {"points": 3}}}


def _build_order_runs() -> dict[str, tuple[str, ...]]:
    """matrices runs, in both frames, at build()'s extremes: at omega =
    8.9e153, k = 7e307 the normal-frame block2 overflows, an error in both
    frames of GME and Redfield, which the local-frame build meets after
    its local cross-check passes; at omega = 1e105, where Redfield's drift
    coefficients are below 1e-207, Redfield builds in both frames."""
    huge = ("--set", "system.omega_h=8.94427190999916e+153",
            "--set", "system.omega_c=8.94427190999916e+153", "--set", "system.k=7e307")
    far = ("--set", "system.omega_h=1e105", "--set", "system.omega_c=1e105",
           "--set", "system.k=5e209")
    cases = {"huge-GME": ("GME", huge), "huge-Redfield": ("Redfield", huge),
             "redfield-1e105": ("Redfield", far)}
    return {
        f"{case}-matrices-{frame.split('-')[0]}": (
            "matrices", "--set", f"matrices.label={label}",
            "--set", f"matrices.frame={frame}", *settings)
        for case, (label, settings) in cases.items() for frame in FRAMES
    }


def _runs() -> dict[str, tuple[str, ...]]:
    runs = {
        f"default-{command}": SCAN_EP if command == "scan-ep" else (command,)
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
        "json-scan-ep": (*SCAN_EP, *SMALL_SCAN, "--format", "json"),
        "json-transient": ("transient", "--set", "transient.points=40", "--format", "json"),
        "json-steady": ("steady", "--set", "steady.points=5", "--format", "json"),
        "json-rigidity": ("rigidity", "--set", "rigidity.points=11", "--format", "json"),
        "all-labels-scan-ep": (*SCAN_EP, *SMALL_SCAN, *ALL_LABELS),
        # rows longer than a scan tile, cut into column pieces
        "long-row-scan-ep": (*SCAN_EP, "--set", "scan.resolution=[3, 1100]",
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
        # more points than a memoised function of the specs keeps: the
        # sweep's early entries are evicted on the way
        "long-steady": ("steady", "--set", "steady.spacing=linear", "--set", "steady.k_min=1e-6",
                        "--set", "steady.k_max=0.9", "--set", "steady.points=100"),
        "near-edge-transient": ("transient", "--set", "system.k=0.9999"),
        # the Hurwitz threshold, -HURWITZ_RTOL * ||block1||_F, grows with
        # omega_c^2 past the slowest decay, about 5e-9: 700 passes, 710 and
        # a transient at 1000 are refused
        "hurwitz-700-steady": ("steady", "--set", "system.omega_c=700"),
        "hurwitz-710-steady": ("steady", "--set", "system.omega_c=710"),
        "hurwitz-1000-transient": ("transient", "--set", "system.omega_c=1000"),
        # squeezed by strong, unequal couplings near zero temperature, the
        # Redfield trajectory leaves the physical cone: logged, not fatal
        "redfield-uncertainty-transient": (
            "transient", "--set", "system.k=0.9", "--set", "baths.hot.lambda_sq=0.002",
            "--set", "baths.hot.temperature=0.015", "--set", "baths.cold.lambda_sq=0.1",
            "--set", "baths.cold.temperature=0.005", "--set", "transient.points=200"),
        "non-conserving-steady": ("steady", "--set", "steady.spacing=linear",
                                  "--set", "steady.k_min=0.99999999",
                                  "--set", "steady.k_max=0.99999999", "--set", "steady.points=1"),
        "unstable-matrices": ("matrices", "--set", "system.k=1.0"),
        "misrounded-edge-matrices-LME": ("matrices", *MISROUNDED, "--set",
                                         f"system.k={INSIDE_EDGE}", "--set", "matrices.label=LME"),
        "misrounded-edge-matrices-GME": ("matrices", *MISROUNDED, "--set",
                                         f"system.k={INSIDE_EDGE}", "--set", "matrices.label=GME"),
        "misrounded-edge-rigidity": ("rigidity", *MISROUNDED, "--set",
                                     f"rigidity.k_max={INSIDE_EDGE}"),
        # one ulp inside the edge at omega = 1e-150: the soft mode's channel
        # table overflows, a numerical error
        "overflow-table-matrices-GME": ("matrices", "--set", "system.omega_h=1e-150",
                                        "--set", "system.omega_c=1e-150",
                                        "--set", "system.k=9.999999999999999e-301",
                                        "--set", "matrices.label=GME"),
        # the same with a cold bath at T = 1e300, whose noise coefficient
        # overflows too: the hot bath's table, rated first, decides
        "overflow-table-hot-first-matrices-GME": (
            "matrices", "--set", "system.omega_h=1e-150", "--set", "system.omega_c=1e-150",
            "--set", "system.k=9.999999999999999e-301", "--set", "matrices.label=GME",
            "--set", "baths.cold.temperature=1e300"),
        # omega/T underflows to zero in the cold bath: a validation error
        "underflow-ratio-matrices": ("matrices", "--set", "system.omega_h=1e-30",
                                     "--set", "system.omega_c=1e-30", "--set", "system.k=0",
                                     "--set", "baths.cold.temperature=1e300"),
        "config-file-steady": ("steady", "--config", "config.json"),
        **_build_order_runs(),
        "section-set-steady": ("steady", "--set", 'steady={"points":3,"spacing":"linear",'
                                                  '"k_min":0,"k_max":1e-4}'),
        # every point's square overflows: NaN kappa, counted in nan_points
        "overflow-scan-ep": (*SCAN_EP, "--set", "scan.omega=[1e200,1e200]",
                             "--set", "scan.k=[0,1]", "--set", "scan.resolution=[1,2]",
                             "--set", 'scan.blocks=["first","second"]'),
        # the branches of the table spelling: a k column from 1e-4 to 3e16
        # in fixed notation, every decimal exponent from -4 to 16 ...
        "fixed-notation-steady": ("steady", "--set", "system.omega_h=2e8",
                                  "--set", "system.omega_c=2e8", "--set", "cutoff=1e12",
                                  "--set", "baths.hot.lambda_sq=1e4",
                                  "--set", "baths.cold.lambda_sq=1e4",
                                  "--set", "steady.k_min=1e-4", "--set", "steady.k_max=3e16",
                                  "--set", "steady.points=21"),
        # ... 3-digit exponents and 0 ...
        "three-digit-exponent-scan-ep": (*SCAN_EP, "--set", "scan.omega=[1e-120,1e-100]",
                                         "--set", "scan.k=[0,1e-250]",
                                         "--set", "scan.resolution=[3,3]"),
        # ... -0 ...
        "negative-zero-steady": ("steady", "--set", "steady.spacing=linear",
                                 "--set", "steady.k_min=0", "--set", "steady.k_max=-0.0",
                                 "--set", "steady.points=2"),
        # ... and magnitudes past the kernel's power table, 1e300 and
        # 5e-303, which '%.17g' spells itself
        "fallback-scan-ep": (*SCAN_EP, "--set", "scan.omega=[1e300,1e300]",
                             "--set", "scan.k=[0,1]", "--set", "scan.resolution=[1,2]"),
        "json-fallback-scan-ep": (*SCAN_EP, "--set", "scan.omega=[1e300,1e300]",
                                  "--set", "scan.k=[0,1]", "--set", "scan.resolution=[1,2]",
                                  "--format", "json"),
        "fallback-matrices-LME": ("matrices", "--set", "system.omega_h=1e150",
                                  "--set", "system.omega_c=1e150", "--set", "matrices.label=LME"),
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
        if name in CONFIG_FILES:
            (run_dir / "config.json").write_text(json.dumps(CONFIG_FILES[name]) + "\n")
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
