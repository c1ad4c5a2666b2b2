"""Record the simulated outputs the benchmark's correctness gate expects.

Usage: ``python3 perfbench/record_digests.py``.  Writes
``perfbench/digests.json``: runs every workload once at the default seed
and stores, per star protocol and size, ``(acc, messages, events executed,
completed ops, latency p50, p99)``, and per catalog cell a hash of its
canonical result row.  Re-record only when a change is *meant* to alter
simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import DEFAULT_SEED, DIGESTS, use_checkout  # noqa: E402


def main() -> int:
    use_checkout()
    import catalog
    import star

    data = {"seed": DEFAULT_SEED}
    for name, wl in star.WORKLOADS.items():
        data[name] = {}
        for size, ops in star.OPS.items():
            cells = star.run_pass(wl, wl.source(), ops, DEFAULT_SEED)
            bad = [c.protocol for c in cells if c.error or c.incomplete]
            if bad:
                raise SystemExit(f"{name}/{size}: failed runs {bad}")
            data[name][size] = star.digests(cells)
    spec, _origin = catalog.build_spec(DEFAULT_SEED, "full")
    sweep = catalog.run_pool_sweep(spec)
    if sweep.failed:
        raise SystemExit(f"catalog-sweep: {sweep.failed} failed cells")
    data["catalog-sweep"] = catalog.digests(sweep.rows)
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
