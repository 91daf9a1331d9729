"""Output oracle: every unit's response is checked against a pinned reference.

A reference holds, per response, the step count, the evaluation count, the
final opacity and a sha256 of the removed and inserted edge lists.  The
references in ``references.json`` were computed by the serial in-process
path (``anonymize`` / ``run_grid(max_workers=0)``), so the pooled grid and
the service are also checked against the path they must be bit-identical
to.  Regenerate them with ``python3 perfbench/capture_references.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Sequence

REFERENCES = Path(__file__).with_name("references.json")


def summarize(response: Any) -> Dict[str, Any]:
    """The fields of one ``AnonymizationResponse`` a reference pins."""
    edits = json.dumps([[list(edge) for edge in response.removed_edges],
                        [list(edge) for edge in response.inserted_edges]],
                       separators=(",", ":"))
    return {
        "error": response.error,
        "num_steps": response.num_steps,
        "evaluations": response.evaluations,
        "final_opacity": response.final_opacity,
        "edits_sha256": hashlib.sha256(edits.encode("ascii")).hexdigest(),
    }


class Oracle:
    """Counts units attempted and units that failed their reference."""

    def __init__(self) -> None:
        self.references: Dict[str, List[Dict[str, Any]]] = json.loads(
            REFERENCES.read_text(encoding="utf-8"))
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, unit_id: str, responses: Sequence[Any]) -> bool:
        """Compare one unit's responses with its reference; count the unit."""
        self.attempted += 1
        expected = self.references.get(unit_id)
        got = [summarize(response) for response in responses]
        if expected is None:
            self.failures.append(f"{unit_id}: no pinned reference")
            return False
        if got != expected:
            wrong = [index for index, (a, b) in enumerate(zip(got, expected))
                     if a != b]
            self.failures.append(
                f"{unit_id}: differs from the reference "
                f"(responses {wrong or 'count'}; first error "
                f"{next((g['error'] for g in got if g['error']), None)})")
            return False
        return True

    def fail(self, unit_id: str, reason: str) -> None:
        """Count a unit that raised or got an error response."""
        self.attempted += 1
        self.failures.append(f"{unit_id}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)
