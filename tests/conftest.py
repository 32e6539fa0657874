import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tamelab.cli import main

R5_CFG = Path(__file__).resolve().parent.parent / "configs" / "r5.cfg"

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


@pytest.fixture
def r5_demo(tmp_path, capsys):
    """r5_demo(*items) runs r5-demo on the shipped r5.cfg with each item as
    a --set override and returns the k = 0 slopes of r5_clean.csv and
    r5_with.csv, and the stdout."""
    calls = itertools.count()

    def demo(*items):
        out = tmp_path / f"r5_{next(calls)}"
        argv = ["r5-demo", "--config", str(R5_CFG), "--output_dir", str(out)]
        for item in items:
            argv += ["--set", item]
        assert main(argv) == 0
        clean, with_r5 = (float((out / name).read_text().splitlines()[1].split(",")[1])
                          for name in ("r5_clean.csv", "r5_with.csv"))
        return clean, with_r5, capsys.readouterr().out

    return demo
