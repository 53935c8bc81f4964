"""Let the suite run from a fresh checkout without installing the package, and load bccsim
before any test module loads numpy, so numpy starts no OpenBLAS worker thread in this
process and every fork in the suite forks a process of one thread."""

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bccsim  # noqa: E402,F401


@pytest.fixture(autouse=True)
def one_thread_forks(monkeypatch):
    """Fail a test that forks this process while it runs more than one thread, since a child
    gets a copy of the forking thread alone; not checked where /proc/self/task is missing."""
    if not os.path.isdir("/proc/self/task"):
        return

    def fork(fork=os.fork):
        assert len(os.listdir("/proc/self/task")) == 1, "forked a process of several threads"
        return fork()

    monkeypatch.setattr(os, "fork", fork)
