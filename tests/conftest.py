"""Let the suite run from a fresh checkout without installing the package, and load bccsim
before any test module loads numpy, so numpy starts no OpenBLAS worker thread in this
process and the forked-worker tests fork a process of one thread."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bccsim  # noqa: E402,F401
