"""Entry point of the campaign benchmark.

    python3 perfbench/run.py --workload epr-tiny-mix --seed 23587 \
        --seconds 20 --trace 0

Run from the repository root; see perfbench/README.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
