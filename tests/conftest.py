import numpy as np
import pytest

TRANSFORMS = ("rfft", "irfft", "fft", "ifft", "fftn", "ifftn")


@pytest.fixture
def count_fft(monkeypatch):
    """count_fft() starts counting numpy.fft calls by name and returns the
    live name -> count dict; the wrappers are removed after the test."""

    def start():
        calls = {}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapper

        for name in TRANSFORMS:
            monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        return calls

    return start
