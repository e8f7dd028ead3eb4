"""The package's one working-set budget, set for a block of a test."""

from contextlib import contextmanager

import wfk.filters


@contextmanager
def work_entries(budget):
    """``wfk.filters._WORK_ENTRIES``, which every blocked loop of the
    package reads when it runs, set to ``budget`` (None keeps the default)
    for the ``with`` body.  A context manager rather than a fixture, so
    that code run in a one-thread child process can set it too."""
    default = wfk.filters._WORK_ENTRIES
    wfk.filters._WORK_ENTRIES = default if budget is None else budget
    try:
        yield
    finally:
        wfk.filters._WORK_ENTRIES = default
