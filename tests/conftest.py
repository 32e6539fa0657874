from collections import Counter

import numpy as np
import pytest

TRANSFORMS = ("rfft", "irfft", "fft", "ifft", "fftn", "ifftn")


class TransformLog:
    """numpy.fft calls in the order made: entries holds one (name, rows,
    points) per call, rows being the 1-D transforms it takes and points
    the real (or complex) samples of each."""

    def __init__(self):
        self.entries = []

    @property
    def calls(self) -> dict:
        """name -> number of calls."""
        return dict(Counter(name for name, _, _ in self.entries))

    @property
    def rows(self) -> dict:
        """name -> number of rows transformed."""
        out = Counter()
        for name, rows, _ in self.entries:
            out[name] += rows
        return dict(out)


def _rows_and_points(name, a, n=None, axis=-1, *_, **__):
    """(rows, points per row) of one numpy.fft call, read from its
    arguments; an n-D transform counts as one row of the whole array."""
    shape = np.shape(a)
    if name.endswith("fftn"):
        return 1, int(np.prod(shape))
    length = shape[axis]
    if n is None:
        n = 2 * (length - 1) if name == "irfft" else length
    return int(np.prod(shape)) // length, n


@pytest.fixture
def count_fft(monkeypatch):
    """count_fft() starts logging numpy.fft calls and returns the live
    TransformLog; the wrappers are removed after the test."""

    def start():
        log = TransformLog()

        def logged(name, original):
            def wrapper(*args, **kwargs):
                log.entries.append((name,) + _rows_and_points(name, *args, **kwargs))
                return original(*args, **kwargs)
            return wrapper

        for name in TRANSFORMS:
            monkeypatch.setattr(np.fft, name, logged(name, getattr(np.fft, name)))
        return log

    return start
