"""Set-up probe: a fresh interpreter gets ready to run one workload.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SIZE SEED``.  Imports
``repro``, builds what the workload's first timed operation needs (the
nine systems, or the sweep spec plus a started worker pool) and prints the
``time.monotonic()`` reading at that point; the parent subtracts its own
reading taken just before it started this process.
"""

from __future__ import annotations

import sys
import time


def main(argv) -> int:
    workload, size, seed = argv[0], argv[1], int(argv[2])
    from common import use_checkout

    use_checkout()
    if workload == "catalog-sweep":
        import catalog

        catalog.build_spec(seed, size)
        ready = catalog.start_pool()
    else:
        import star

        wl = star.WORKLOADS[workload]
        wl.source()
        for protocol in star.PROTOCOLS:
            wl.build(protocol)
        ready = time.monotonic()
    print(repr(ready))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
