#!/usr/bin/env python3
"""Record the golden result digests tier-1 checks simulated results against.

    python3 tests/record_golden.py

Simulates every case of ``tests/test_golden_results.py`` under the dense
reference schedule and writes one digest per result field to
``tests/golden_results.json``.  Rerun it only for a change meant to
alter simulated results, and name each changed case and the model
change in CHANGES.md; a change meant only to speed the simulator up
must leave every digest as it is.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from tests.test_golden_results import (  # noqa: E402  (needs the path)
    CASES, GOLDEN_PATH, field_digests, simulate,
)


def main() -> int:
    recorded = {
        name: field_digests(simulate(name, scheduler="dense"))
        for name in sorted(CASES)
    }
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(recorded)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
