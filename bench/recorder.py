"""Span and counter recorder for the traced benchmark run.

The recorder measures tamelab from outside: it replaces each layer's public
functions, in every loaded ``tamelab`` module namespace that holds them, with
wrappers that open a span around the call, and it wraps the ``numpy.fft``
transforms to count calls, points and the flops and bytes computed from the
transform sizes.  ``install`` and ``uninstall`` swap the wrappers in and out,
so untraced operations run the unmodified functions.

A span is (id, name, start, end, parent id, op id).  Spans stay in memory
and are written out once, by ``write_spans``, after the measured loop.
Self time is a span's duration minus the time its direct children cover;
the call stack is strictly nested (one thread), so that is a plain sum.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
from time import perf_counter

import numpy as np

# Layer metric name -> (module, attribute path) of the public function it
# times.  A dotted attribute path names a method on a class.
LAYER_FUNCTIONS = (
    ("gridfield.ck_norm", "tamelab.gridfield", "ck_norm"),
    ("gridfield.derivative", "tamelab.gridfield", "derivative"),
    ("gridfield.random_trig_polynomial", "tamelab.gridfield", "random_trig_polynomial"),
    # Every instance build goes through one of the three factories;
    # ProblemConfig.build only dispatches, so wrapping it too would count
    # each build twice.
    ("problem.build", "tamelab.problem", "make_scalar_toy"),
    ("problem.build", "tamelab.problem", "make_varying_toy"),
    ("problem.build", "tamelab.problem", "make_two_component_toy"),
    ("problem.remainder", "tamelab.problem", "RemainderSpec.__call__"),
    ("problem.term_apply", "tamelab.problem", "RemainderTerm.apply"),
    ("iteration.run", "tamelab.iteration", "run"),
    ("iteration.step", "tamelab.iteration", "initial_step"),
    ("iteration.step", "tamelab.iteration", "step"),
    ("ledger.propagate", "tamelab.ledger", "propagate"),
    ("verify.verify_remainder_class", "tamelab.verify", "verify_remainder_class"),
    ("verify.class_bound_rhs", "tamelab.verify", "class_bound_rhs"),
    ("verify.fit_decay", "tamelab.verify", "fit_decay"),
    ("cli.main", "tamelab.cli", "main"),
)

FFT_SPAN = "gridfield.fft"
COMPLEX_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
REAL_TRANSFORMS = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                   "hfft", "ihfft")
ONE_AXIS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
TWO_AXES = ("fft2", "ifft2", "rfft2", "irfft2")


def _transform_axes(name, args, kwargs, ndim):
    """Axes a numpy.fft call transforms, from its signature conventions."""
    if name in ONE_AXIS:
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        return (axis % ndim,)
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        if name in TWO_AXES:
            axes = (-2, -1)
        else:
            s = kwargs.get("s", args[1] if len(args) > 1 else None)
            axes = range(-len(s), 0) if s is not None else range(ndim)
    return tuple(a % ndim for a in axes)


def fft_work(name, args, kwargs, result):
    """(points, flops, bytes) of one transform, computed from its sizes.

    points counts real-space samples over the whole batch.  flops use the
    usual 5 N log2 N per complex transform of N points, half that for a real
    one.  bytes are the input plus the output array sizes, which is what a
    transform must at least touch; caches are not modelled.
    """
    x = np.asarray(args[0])
    out = np.asarray(result)
    axes = _transform_axes(name, args, kwargs, out.ndim)
    n = 1
    for a in axes:
        n *= max(x.shape[a], out.shape[a])
    batch = out.size // max(1, math.prod(out.shape[a] for a in axes))
    per = 5.0 if name in COMPLEX_TRANSFORMS else 2.5
    flops = per * n * math.log2(n) * batch if n > 1 else 0.0
    return n * batch, flops, x.nbytes + out.nbytes


class Recorder:
    """Collects spans, per-name totals and counters for the traced ops."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        # fft calls made while a span of the given name was open
        self.fft_inside = {}
        self._stack = []          # [span id, name, start, child seconds]
        self._next_id = 0
        self.op_id = -1
        self._patches = []        # (owner, attribute, original)

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self, name):
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.spans.append((span_id, name, start, end, parent, self.op_id))

    def _span_wrapper(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _after_fft(self, transform, args, kwargs, result):
        points, flops, nbytes = fft_work(transform, args, kwargs, result)
        self.count(FFT_SPAN + ".points", points)
        self.count(FFT_SPAN + ".flops_computed", flops)
        self.count(FFT_SPAN + ".bytes_computed", nbytes)
        for open_name in {frame[1] for frame in self._stack}:
            self.fft_inside[open_name] = self.fft_inside.get(open_name, 0) + 1

    def _after_run(self, args, kwargs, trace):
        instance = args[0] if args else kwargs["instance"]
        requested = kwargs.get("n_steps", args[1] if len(args) > 1 else None)
        if requested is None:
            requested = instance.params.n_steps
        self.count("iteration.steps_requested", requested)
        self.count("iteration.steps_completed", trace.n_steps)

    def install(self):
        """Put the wrappers in place in numpy.fft and every tamelab module."""
        if self._patches:
            raise RuntimeError("recorder is already installed")
        replacements = {}   # id(original) -> (original, wrapper)
        for transform in COMPLEX_TRANSFORMS + REAL_TRANSFORMS:
            original = getattr(np.fft, transform)
            after = functools.partial(self._after_fft, transform)
            replacements[id(original)] = (
                original, self._span_wrapper(FFT_SPAN, original, after))
        for name, module_name, path in LAYER_FUNCTIONS:
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            after = self._after_run if name == "iteration.run" else None
            wrapper = self._span_wrapper(name, original, after)
            replacements[id(original)] = (original, wrapper)
            if classes:
                self._patch(owner, attr, wrapper, original)
        namespaces = [np.fft] + [m for n, m in sorted(sys.modules.items())
                                 if n == "tamelab" or n.startswith("tamelab.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, attr, hit[1], value)

    def _patch(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def metrics(self, n_ops):
        """Per-operation layer metrics: name -> (value, unit)."""
        m = {}
        for name in dict.fromkeys([FFT_SPAN] + [n for n, _, _ in LAYER_FUNCTIONS]):
            m[f"{name}.calls"] = (self.calls.get(name, 0) / n_ops, "1/op")
            m[f"{name}.self_s"] = (self.self_s.get(name, 0.0) / n_ops, "s/op")
        for counter, unit in (("points", "1/op"), ("flops_computed", "flop/op"),
                              ("bytes_computed", "B/op")):
            name = f"{FFT_SPAN}.{counter}"
            m[name] = (self.counters.get(name, 0) / n_ops, unit)
        completed = self.counters.get("iteration.steps_completed", 0)
        requested = self.counters.get("iteration.steps_requested", 0)
        steps = self.calls.get("iteration.step", 0)
        m["iteration.steps_completed"] = (completed / n_ops, "1/op")
        m["iteration.steps_completed_ratio"] = (
            completed / requested if requested else 0.0, "ratio")
        m["iteration.fft_per_step"] = (
            self.fft_inside.get("iteration.step", 0) / steps if steps else 0.0, "1/step")
        return m

    def write_spans(self, path):
        """Write every span as gzip-compressed CSV, times in microseconds
        relative to the first span's start."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_us,end_us,parent,op\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(f"{span_id},{name},{(start - origin) * 1e6:.3f},"
                         f"{(end - origin) * 1e6:.3f},{parent},{op}\n")
