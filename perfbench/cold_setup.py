#!/usr/bin/env python3
"""One cold ``train`` set-up in a fresh process; prints its seconds.

    python3 perfbench/cold_setup.py SEED

Timed from this script's first statement, so imports and first-touch costs
count, through world generation, split and trainer construction. The
``train`` workload runs it several times and reports the median as
``setup_s``: a set-up repeated inside one process would hide the first
one's cost (about 0.9 s against 0.2 s later on a 2-core box).
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    from pipeline import make_trainer, make_world

    make_trainer(make_world(), int(sys.argv[1]), epochs=1)
    print(time.perf_counter() - STARTED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
