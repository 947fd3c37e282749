"""End-to-end and per-layer benchmark of the simulator.

``python3 -m bench.run`` is the entry point (see ``bench/README.md``).
The package imports the simulator from the ``src`` directory next to
it, so it runs from a plain checkout without installing anything.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
