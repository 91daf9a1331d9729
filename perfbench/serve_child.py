"""Start ``repro-lopacity serve`` for the service-loop workload.

Usage: ``python3 perfbench/serve_child.py [--trace-dir DIR] <serve flags>``

With ``--trace-dir`` the layer wrappers of :mod:`tracing` are installed
before the server starts, and the spans are written to ``DIR`` when it
exits (the workload stops it with SIGINT, serve's clean shutdown).
"""

import atexit
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv):
    if argv[:1] == ["--trace-dir"]:
        from tracing import Tracer

        tracer = Tracer(argv[1]).install()
        atexit.register(tracer.flush)
        argv = argv[2:]
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
