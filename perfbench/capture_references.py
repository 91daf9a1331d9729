"""Recompute ``references.json``, the pinned outputs the oracle checks.

Usage: ``python3 perfbench/capture_references.py``

Run it only on a commit whose outputs are known to be right; every later
benchmark run is checked against what it writes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oracle import REFERENCES  # noqa: E402
from workloads import capture_references  # noqa: E402

if __name__ == "__main__":
    references = capture_references()
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True)
                          + "\n", encoding="utf-8")
    print(f"wrote {len(references)} unit references to {REFERENCES}")
