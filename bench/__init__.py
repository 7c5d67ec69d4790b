"""Wall-clock benchmark of the threaded CRFS plane (see bench/README.md).

The package drives ``repro`` through its public API only.  It is run
from a source checkout, so when ``repro`` is not installed the
checkout's ``src/`` directory is put on ``sys.path`` here — the one
place every entry point (``bench.run``, ``bench.child``,
``bench.selfcheck``, the tests) passes through.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

#: The checkout root: the benchmark reads and writes only below it.
ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark leaves behind (data files, traces); ignored by git.
OUT_DIR = Path(__file__).resolve().parent / "out"

if importlib.util.find_spec("repro") is None and (ROOT / "src" / "repro").is_dir():
    sys.path.insert(0, str(ROOT / "src"))
