"""Shared fixtures for the test suite."""

import builtins
import io
import sys

import pytest


class _NoStdin(io.TextIOBase):
    def read(self, *args):
        raise AssertionError("the program read stdin")

    readline = read


@pytest.fixture
def no_stdin(monkeypatch):
    """Fail the test on any read of stdin: ``sys.stdin`` raises, and so does
    opening an integer file descriptor, which is how a path given as 0
    would read it."""
    real_open = builtins.open

    def guarded_open(file, *args, **kwargs):
        if isinstance(file, int):  # a bool too: open(True) is stdout
            raise AssertionError(f"the program opened file descriptor {file!r}")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded_open)
    monkeypatch.setattr(sys, "stdin", _NoStdin())
