"""Set-up probe: a fresh process imports meqlab and does one workload's
first-call work, then exits. ``run.py`` times several of these to give
``setup_s``.

Usage: python3 first_call.py WORKLOAD SEED SRC_DIR OUT_DIR
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    name, seed, src, out = argv
    sys.path.insert(0, src)
    import workloads

    workloads.make(name, int(seed)).first_call(Path(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
