"""Let the suite run from a fresh checkout without installing the package, and load bccsim
before any test module loads numpy, so numpy starts no OpenBLAS worker thread in this
process and every fork in the suite forks a process of one thread."""

import errno
import os
import signal
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


@pytest.fixture
def second_fork_fails(monkeypatch):
    """Make the second os.fork of the test fail with EAGAIN, as under a process limit; the value
    is the message of the ChildProcessError that a run with two workers then raises."""
    calls, fork = [], os.fork

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    return f"could not start a worker process: {os.strerror(errno.EAGAIN)}"


@pytest.fixture
def killed_while_sending(monkeypatch):
    """Make each forked worker write the first half of its pickled counts into its pipe and
    then die by SIGKILL, as a worker killed while it sends them; montecarlo's other opens, the
    parent's read ends, are the builtin's."""
    class HalfThenKilled:
        def __init__(self, fd):
            self.fd = fd

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            os.close(self.fd)

        def write(self, payload):
            os.write(self.fd, payload[:len(payload) // 2])
            os.kill(os.getpid(), signal.SIGKILL)

    def stand_in(file, mode="r", *args, **kwargs):
        return HalfThenKilled(file) if mode == "wb" else open(file, mode, *args, **kwargs)

    monkeypatch.setattr(bccsim.montecarlo, "open", stand_in, raising=False)
