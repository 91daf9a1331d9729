"""Condense a pytest-benchmark JSON dump into a ``BENCH_<pr>.json`` entry.

The CI benchmark jobs run every ``bench_*.py`` at smoke size with
``--benchmark-json``; this script reduces that verbose dump to the small,
diff-friendly trajectory format committed at the repo root (ROADMAP:
performance trajectory as a first-class artifact)::

    {"pr": 6, "created": "...", "env": {..., "cpu_count": 2, "commit": "..."},
     "benchmarks": [
        {"name": "bench_grid_direct", "group": "...", "seconds": 0.0268,
         "median": 0.0265, "min": 0.0261, "iqr": 0.0004, "rounds": 5},
        ...
    ]}

``seconds`` is the mean; ``commit`` is ``null`` when the script does not
run inside a git checkout.  Without ``--pr`` the PR number is the highest
``PR <n>`` entry of the repository's ``CHANGES.md`` (shallow CI checkouts
have no git history to count), and a ``{pr}`` in ``--output`` is replaced
by that number.

Usage::

    python -m pytest benchmarks -q -o python_files='bench_*.py' \\
        -o python_functions='bench_*' --benchmark-json=/tmp/bench.json
    python benchmarks/persist_trajectory.py /tmp/bench.json \\
        --output 'BENCH_{pr}.json'
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from typing import Optional

#: The changelog whose newest entry names the PR a run belongs to.
CHANGES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "CHANGES.md")

#: A changelog entry: a list item opening with ``PR <n>``, optionally bold.
_ENTRY = re.compile(r"^[-*]\s+(?:\*\*)?PR\s+(\d+)\b", re.MULTILINE)


def _group_for(bench: dict) -> str:
    """Benchmark group, falling back to the bench module's stem.

    Benches that never assign ``benchmark.group`` used to persist
    ``"group": null``, which sorts all ungrouped entries into one
    indistinguishable bucket across files. The module stem
    (``benchmarks/bench_grid_cache.py::bench_x`` -> ``bench_grid_cache``)
    is always available in the dump and keeps the trajectory diffable.
    """
    group = bench.get("group")
    if group:
        return group
    module = bench.get("fullname", "").split("::", 1)[0]
    stem = module.replace("\\", "/").rsplit("/", 1)[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    return stem or "ungrouped"


def git_commit(directory: str) -> Optional[str]:
    """HEAD of the git checkout containing ``directory``, else ``None``."""
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=directory,
                                   capture_output=True, text=True, check=False)
    except OSError:
        return None
    commit = completed.stdout.strip()
    return commit if completed.returncode == 0 and commit else None


def pr_from_changes(path: str) -> int:
    """The highest ``PR <n>`` entry of the changelog at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            numbers = [int(number) for number in _ENTRY.findall(handle.read())]
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not numbers:
        raise ValueError(f"{path} has no 'PR <n>' entry")
    return max(numbers)


def condense(raw: dict, pr: int, commit: Optional[str] = None) -> dict:
    """Reduce a pytest-benchmark dump to the trajectory entry format."""
    machine = raw.get("machine_info", {})
    entries = []
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        entries.append({
            "name": bench["name"],
            "group": _group_for(bench),
            "seconds": round(stats["mean"], 6),
            "median": round(stats["median"], 6),
            "min": round(stats["min"], 6),
            "iqr": round(stats["iqr"], 6),
            "rounds": stats["rounds"],
        })
    entries.sort(key=lambda entry: (entry["group"], entry["name"]))
    return {
        "pr": pr,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "env": {
            "python": machine.get("python_version",
                                  platform.python_version()),
            "machine": machine.get("machine", platform.machine()),
            "system": machine.get("system", platform.system()),
            "smoke": bool(raw.get("_smoke", False)),
            "cpu_count": os.cpu_count(),
            "commit": commit,
        },
        "benchmarks": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dump", help="pytest-benchmark --benchmark-json file")
    parser.add_argument("--pr", type=int, default=None,
                        help="PR number this run belongs to (default: the "
                             "highest 'PR <n>' entry of CHANGES.md)")
    parser.add_argument("--output", required=True,
                        help="trajectory file to write; '{pr}' is replaced "
                             "by the PR number (BENCH_{pr}.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="mark the entry as a smoke-sized run")
    args = parser.parse_args(argv)
    pr = args.pr
    if pr is None:
        try:
            pr = pr_from_changes(CHANGES)
        except ValueError as exc:
            parser.error(f"--pr not given and {exc}")
    output = args.output.replace("{pr}", str(pr))
    with open(args.dump, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    raw["_smoke"] = args.smoke
    entry = condense(raw, pr,
                     commit=git_commit(os.path.dirname(os.path.abspath(__file__))))
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output} ({len(entry['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
