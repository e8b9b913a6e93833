"""``repro serve`` for the serve-delay workload, with the fixture guard.

    python3 perfbench/daemon.py --socket PATH --ready-file FILE

Runs the unmodified ``repro serve`` command (ephemeral TCP port plus the
unix socket) after making any characterization-cache miss an error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--ready-file", required=True)
    args = parser.parse_args(argv)

    import harness
    from repro.cli import main as repro_main

    harness.install_fixture_guard()
    return repro_main(["serve", "--port", "0", "--socket", args.socket,
                       "--ready-file", args.ready_file])


if __name__ == "__main__":
    sys.exit(main())
