"""Set-up probe: a fresh interpreter imports majsphere and finishes the
warm-up call of one workload.  ``run.py`` times it from spawn to exit.

    python3 bench/probe.py <workload> <seed>     (from the checkout root)
"""

import os
import sys

sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = workloads.WORKLOADS[name](seed)
    item = workload.warmup()
    results = workload.run(item, lambda fn, *args: fn(*args))
    return 0 if workload.check(item, results).failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
