"""Experiment orchestration: config files, subcommands, CSV and SVG output.
It alone reads configs and writes files; every CSV goes through _csv.

Subcommands: run | decay | remainder-audit | ledger | r5-demo | sweep.  Each
reads `--config <path>` (flat key = value lines) with `--set key=value`
overrides, judges every key by the KEYS table (a key the subcommand does not
read is an error), and writes its CSVs into --output_dir.  With --plot an
SVG chart of ln ||E_i||_k vs i is emitted; all outputs are byte-deterministic
for identical configs and seeds.

Exit codes: 0 success, 1 config, validation, usage or write error, 2
numerical failure (an unexpected escape from the inverse's domain, a value
that overflows the float range, or too few usable steps).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from . import gridfield, iteration, ledger, verify
from .gridfield import MAX_SAMPLES, PERIOD, RESOLUTION_FACTOR, ResolutionError
from .problem import (
    IterationParams,
    NeighborhoodViolation,
    ProblemInstance,
    make_scalar_toy,
    make_two_component_toy,
    make_varying_toy,
    stock_remainder_terms,
    with_self_interaction,
)

EXPERIMENTS = ("run", "decay", "remainder-audit", "ledger", "r5-demo", "sweep")
# Subcommands that run the iteration on the configured problem, and those
# plus r5-demo, which builds its scalar instances from it.
RUNS = ("run", "decay", "sweep")
BUILDS = RUNS + ("r5-demo",)
# Subcommands that read kind but take scalar fields only.
SCALAR_ONLY = ("r5-demo", "remainder-audit")
# Subcommands that fit decay rates, and the first step each fits.
FIT_FROM = {"decay": 1, "sweep": 1, "r5-demo": verify.R5_FIT_FROM}

SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Key:
    """How the CLI reads one config key: the parser of its text, the
    single-key range check and the words that describe a valid value, the
    IterationParams or ExperimentConfig field it sets, and the subcommands
    that read it.  Every other subcommand refuses the key."""

    parse: Callable[[str], Any]
    valid: Callable[[Any], bool]
    expect: str
    field: str
    commands: tuple[str, ...]


def _boolean(raw: str) -> bool:
    if raw.lower() not in ("true", "false", "1", "0"):
        raise ValueError(raw)
    return raw.lower() in ("true", "1")


# Range checks that several keys share.  Chained with math.inf, a
# comparison refuses nan and inf as well.
_ANY = lambda v: True
_AT_LEAST_ONE = lambda v: v >= 1
_POSITIVE = lambda v: 0 < v < math.inf
_NON_NEGATIVE = lambda v: 0 <= v < math.inf
# The top frequency that any accepted grid resolves.
MAX_LAMBDA = MAX_SAMPLES // RESOLUTION_FACTOR

KEYS = {
    "experiment": Key(str, _ANY, "a subcommand", "experiment", EXPERIMENTS),
    "output_dir": Key(str, _ANY, "a path", "output_dir", EXPERIMENTS),
    "seed": Key(int, lambda v: v >= 0, "an integer >= 0", "seed", EXPERIMENTS),
    "kind": Key(str, lambda v: v in ("scalar", "two_component"),
                "scalar or two_component", "kind", BUILDS + ("remainder-audit",)),
    "lambda": Key(int, lambda v: 1 <= v <= MAX_LAMBDA,
                  f"a positive integer up to {MAX_LAMBDA}", "lam",
                  BUILDS + ("ledger",)),
    "ell": Key(float, lambda v: 0 < v < PERIOD, "a number in (0, 2*pi)", "ell",
               ("run", "decay", "r5-demo", "ledger", "remainder-audit")),
    "k0": Key(int, lambda v: 1 <= v <= ledger.MAX_ORDER,
              f"a positive integer up to {ledger.MAX_ORDER}", "k0",
              BUILDS + ("ledger",)),
    "k1": Key(int, _AT_LEAST_ONE, "an integer >= 1", "k1", BUILDS),
    "C_F": Key(float, _POSITIVE, "finite and positive", "c_f", BUILDS + ("ledger",)),
    "amplitude": Key(float, _NON_NEGATIVE, "finite and >= 0", "amplitude", BUILDS),
    "drift": Key(float, _NON_NEGATIVE, "finite and >= 0", "drift", RUNS),
    "r5_strength": Key(float, _NON_NEGATIVE, "finite and >= 0", "r5_strength",
                       BUILDS),
    "n_points": Key(int, lambda v: 2 <= v <= MAX_SAMPLES and v & (v - 1) == 0,
                    f"a power of two from 2 to {MAX_SAMPLES}", "n_points",
                    BUILDS + ("remainder-audit",)),
    # No build takes more steps (k0 <= MAX_ORDER, k1 >= 1); it caps the ledger.
    "n_steps": Key(int, lambda v: 1 <= v < ledger.MAX_ORDER,
                   f"an integer from 1 to {ledger.MAX_ORDER - 1}", "n_steps",
                   BUILDS + ("ledger",)),
    "plot": Key(_boolean, _ANY, "true, false, 1 or 0", "plot", RUNS),
    "lambda_ell": Key(lambda raw: tuple(float(v) for v in raw.split(",")),
                      lambda values: all(1 < v < math.inf for v in values),
                      "a comma list of numbers above 1", "lambda_ell", ("sweep",)),
    "C": Key(float, _POSITIVE, "finite and positive", "ledger_c", ("ledger",)),
    "C_err": Key(float, _POSITIVE, "finite and positive", "ledger_c_err",
                 ("ledger",)),
    "C_r": Key(float, _POSITIVE, "finite and positive", "ledger_c_r", ("ledger",)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The problem's scales and budgets, and the values only the CLI reads."""

    problem: IterationParams = IterationParams()
    kind: str = "scalar"
    amplitude: float = 0.2
    drift: float = 0.0
    r5_strength: float = 0.0
    output_dir: str = "./out"
    plot: bool = False
    # ell = lambda_ell / lambda stays below 2*pi at the default lambda = 32.
    lambda_ell: tuple[float, ...] = (32.0, 64.0, 128.0)
    ledger_c: float = 1.0
    ledger_c_err: float = 1.0
    ledger_c_r: float = ledger.DEFAULT_REMAINDER_CONSTANT


def _check_across_keys(cfg: ExperimentConfig, command: str, reads: set) -> None:
    """Checks across keys or of a key against the subcommand, on the values
    after defaults; each runs only where the subcommand reads all its keys."""
    p = cfg.problem
    too_wide = [f"{ll:g}" for ll in cfg.lambda_ell if ll / p.lam >= PERIOD]
    stems: dict = {}
    for ll in cfg.lambda_ell:
        stems.setdefault(_sweep_stem(ll), []).append(repr(ll))
    shared = [f"values {', '.join(values)} share the file {stem}.csv"
              for stem, values in stems.items() if len(values) > 1]
    min_steps = (FIT_FROM[command] + verify.MIN_FIT_STEPS - 1
                 if command in FIT_FROM else 1)
    top = gridfield.top_finite_order(p.n_points)
    for keys, ok, message in (
        (("lambda", "ell"), p.lam * p.ell > 1,
         f"lambda*ell must exceed 1, got {p.lam * p.ell}"),
        (("lambda", "n_points"), RESOLUTION_FACTOR * p.lam <= p.n_points,
         f"frequency {p.lam} unresolved at n_points={p.n_points}"),
        (("lambda", "k1", "n_points"), p.k_safe >= p.k1,
         f"grid resolves norms only to order {p.k_safe} at frequency {p.lam}; "
         f"k1={p.k1} needs n_points >= {RESOLUTION_FACTOR * p.lam * (p.k1 + 1)}"),
        # The build's target norms would overflow only after the build.
        (("lambda", "k0", "n_points"), p.norm_order(0) <= top,
         f"norm order {p.norm_order(0)} overflows at n_points={p.n_points}: the "
         f"derivative multiplier (n_points/2)^k is finite only up to order {top}"),
        # Each step spends one derivative order; iteration.run would
        # refuse the budget only after the build.
        (("k0", "k1", "n_steps"), p.k1 <= p.k0 - p.n_steps,
         f"derivative budget too small: need k0 >= k1 + n_steps = "
         f"{p.k1 + p.n_steps}, got k0={p.k0}"),
        (("lambda", "lambda_ell"), not too_wide,
         f"lambda_ell {', '.join(too_wide)} gives ell >= 2*pi at lambda={p.lam}"),
        # Each value writes one file; a shared name would keep the last.
        (("lambda_ell",), not shared, f"lambda_ell {'; '.join(shared)}"),
        # The fit would refuse too few steps only after the build and the run.
        (("n_steps",), p.n_steps >= min_steps,
         f"{command} fits {verify.MIN_FIT_STEPS} steps from step "
         f"{FIT_FROM.get(command)}: n_steps must be >= {min_steps}, got {p.n_steps}"),
    ):
        if not ok and reads.issuperset(keys):
            raise ConfigError(message)


def _config_from_mapping(command: str, mapping: dict) -> ExperimentConfig:
    """Judge every key of mapping (raw text values) by KEYS for command."""
    reads = [key for key, spec in KEYS.items() if command in spec.commands]
    values = {}
    for key, raw in mapping.items():
        spec = KEYS.get(key)
        if spec is None:
            raise ConfigError(f"unknown config key {key!r}")
        if command not in spec.commands:
            raise ConfigError(f"{command} does not read {key!r}; it reads only "
                              f"{', '.join(reads)}")
        try:
            values[spec.field] = spec.parse(raw)
            valid = spec.valid(values[spec.field])
        except ValueError:
            valid = False
        if not valid:
            raise ConfigError(f"{key} must be {spec.expect}, got {raw!r}")
    named = values.pop("experiment", command)
    if named != command:
        raise ConfigError(f"config names experiment {named!r} but subcommand "
                          f"is {command!r}")
    problem_fields = {f.name for f in fields(IterationParams)}
    cfg = ExperimentConfig(
        IterationParams(**{f: v for f, v in values.items() if f in problem_fields}),
        **{f: v for f, v in values.items() if f not in problem_fields})
    if command in SCALAR_ONLY and cfg.kind != "scalar":
        raise ConfigError(f"{command} takes 'kind' = scalar only, got {cfg.kind!r}")
    _check_across_keys(cfg, command, set(reads))
    return cfg


def parse_flat_config(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"line {lineno}: empty key or value in {raw!r}")
        if key in mapping:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def load_experiment_config(command: str, config_path: Optional[str],
                           overrides: Sequence[str]) -> ExperimentConfig:
    """The config file's keys, then the key=value overrides, judged for
    command."""
    mapping: dict = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                mapping = parse_flat_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path!r}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return _config_from_mapping(command, mapping)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: floats as %.17g, which reads back bit for bit, None as an
    empty cell, anything else (the header's names too) by str."""
    cell = lambda v: "" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


LEDGER_COLUMNS = ("step", "C", "C_err", "C_r", "C_diff", "threshold")
TRACE_COLUMNS = ("step", "k", "norm_a", "norm_error", "norm_r", "diff_norm",
                 "identity_residual", "clause1_margin", "clause2_margin",
                 "clause3_margin", "clause4_margin")


def _trace_rows(trace: iteration.IterationTrace):
    """One row per (step, k); step 0 has no transition or margin cells.  The
    norms and margins of a step all run to the order of norms_a (the field
    margin from k = 1), and zip(strict=True) holds them to it."""
    first, *later = trace.states
    for k, norms in enumerate(zip(first.norms_a.values, first.norms_error.values,
                                  first.norms_r.values, strict=True)):
        yield (first.step, k, *norms) + (None,) * 6
    margins, _ = ledger.margins(trace)
    for s, diff, residual, m in zip(later, trace.diff_norms,
                                    trace.identity_residuals, margins):
        for k, (a, e, r, d, field, error, remainder) in enumerate(zip(
                s.norms_a.values, s.norms_error.values, s.norms_r.values,
                diff.values, (None,) + m.field, m.error, m.remainder, strict=True)):
            yield (s.step, k, a, e, r, d, residual, m.field_sup, field, error,
                   remainder)


def _write_fits(path: Path, fits: Sequence[verify.DecayFit]) -> None:
    _atomic_write(path, _csv(
        ("k", "slope", "intercept", "r_squared", "first_step", "last_step"),
        [(f.k, f.slope, f.intercept, f.r_squared, *f.steps_used) for f in fits]))


def _svg_chart(series: Sequence[tuple[str, list[tuple[float, float]]]],
               x_label: str, y_label: str) -> str:
    """Minimal deterministic SVG line chart: polylines, ticks, legend."""
    width, height = 640.0, 480.0
    ml, mr, mt, mb = 70.0, 20.0, 20.0, 50.0
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    px = lambda x: ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)
    py = lambda y: height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{ml:.2f}" y1="{height - mb:.2f}" x2="{width - mr:.2f}" '
        f'y2="{height - mb:.2f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{ml:.2f}" y1="{mt:.2f}" x2="{ml:.2f}" '
        f'y2="{height - mb:.2f}" stroke="black" stroke-width="1"/>',
    ]
    n_ticks = 5
    for j in range(n_ticks):
        xv = x_lo + j * (x_hi - x_lo) / (n_ticks - 1)
        yv = y_lo + j * (y_hi - y_lo) / (n_ticks - 1)
        parts.append(f'<line x1="{px(xv):.2f}" y1="{height - mb:.2f}" '
                     f'x2="{px(xv):.2f}" y2="{height - mb + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{px(xv):.2f}" y="{height - mb + 18:.2f}" '
                     f'font-size="11" text-anchor="middle">{xv:.3g}</text>')
        parts.append(f'<line x1="{ml - 5:.2f}" y1="{py(yv):.2f}" '
                     f'x2="{ml:.2f}" y2="{py(yv):.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8:.2f}" y="{py(yv) + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 10:.2f}" '
                 f'font-size="13" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{(mt + height - mb) / 2:.2f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(mt + height - mb) / 2:.2f})">{y_label}</text>')
    for idx, (label, pts) in enumerate(series):
        color = SVG_COLORS[idx % len(SVG_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 16 * idx
        parts.append(f'<line x1="{width - mr - 90:.2f}" y1="{ly:.2f}" '
                     f'x2="{width - mr - 70:.2f}" y2="{ly:.2f}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr - 64:.2f}" y="{ly + 4:.2f}" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _orders(trace: iteration.IterationTrace) -> range:
    """The orders fitted and plotted: 0..2, capped by the step-1 norms."""
    return range(min(2, len(trace.states[1].norms_error) - 1) + 1)


def emit_plot(trace: iteration.IterationTrace, path) -> None:
    """Deterministic SVG of ln ||E_i||_k vs i over trace.log_errors, one
    polyline per order in _orders."""
    series = [(f"k={k}", pts) for k in _orders(trace)
              if (pts := trace.log_errors(k))]
    if not series:
        raise verify.InsufficientSteps("no error norms above the noise floor "
                                       "to plot")
    _atomic_write(Path(path), _svg_chart(series, "step i", "ln ||E_i||_k"))


def _write_trace(trace: iteration.IterationTrace, out: Path, stem: str,
                 plot: bool) -> None:
    _atomic_write(out / f"{stem}.csv", _csv(TRACE_COLUMNS, _trace_rows(trace)))
    if plot:
        emit_plot(trace, out / f"{stem}.svg")


def _print_escape(trace: iteration.IterationTrace) -> None:
    p = trace.instance.params
    print(f"numerical failure: escape from the inverse's domain at step "
          f"{trace.escape_step} (lambda*ell={p.lambda_ell:g}, stock threshold="
          f"{ledger.threshold(ledger.stock_constants(p)):g})", file=sys.stderr)


def _build(cfg: ExperimentConfig, params: IterationParams) -> ProblemInstance:
    """The configured kind at params, with its drift and self-interaction."""
    if cfg.kind == "two_component":
        instance = make_two_component_toy(params, cfg.amplitude, drift=cfg.drift)
    elif cfg.drift != 0.0:
        instance = make_varying_toy(params, cfg.drift, cfg.amplitude)
    else:
        instance = make_scalar_toy(params, cfg.amplitude)
    return with_self_interaction(instance, cfg.r5_strength)


def _cmd_run(cfg: ExperimentConfig, out: Path) -> int:
    trace = iteration.run(_build(cfg, cfg.problem))
    _write_trace(trace, out, "trace", cfg.plot)
    print(f"run: {trace.n_steps} steps, flag={trace.flag}, "
          f"max identity residual {max(trace.identity_residuals):.3e}")
    print(f"wrote {out / 'trace.csv'}")
    if trace.flag == "diverged":
        _print_escape(trace)
        return 2
    return 0


def _cmd_decay(cfg: ExperimentConfig, out: Path) -> int:
    trace = iteration.run(_build(cfg, cfg.problem))
    if trace.flag == "diverged":
        _print_escape(trace)
        return 2
    fits = [verify.fit_decay(trace, k) for k in _orders(trace)]
    _write_fits(out / "decay.csv", fits)
    _write_trace(trace, out, "trace", cfg.plot)
    ll = cfg.problem.lambda_ell
    for fit in fits:
        print(f"k={fit.k}: slope={fit.slope:+.4f} (-ln(lambda*ell)={-math.log(ll):+.4f}), "
              f"r^2={fit.r_squared:.4f}, steps {fit.steps_used[0]}..{fit.steps_used[1]}")
    print(f"wrote {out / 'decay.csv'}")
    return 0


def _cmd_remainder_audit(cfg: ExperimentConfig, out: Path) -> int:
    pairs = [(term, term.bound_class) for term in stock_remainder_terms()]
    *reports, control = verify.audit_classes(
        pairs + [verify.MISDECLARED_CONTROL], cfg.problem)
    _atomic_write(out / "audit.csv", _csv(
        ("class", "k", "constant", "lambda", "stable"),
        [(report.bound_class.kind, k, value, lam, "true" if report.stable else "false")
         for report in reports + [control]
         for lam, row in zip(report.lambda_grid, report.constants_by_lambda)
         for k, value in enumerate(row)]))
    for report in reports:
        print(f"class {report.bound_class.kind}: constants "
              f"{', '.join(f'{c:.3f}' for c in report.per_k_constants)} "
              f"stable={report.stable}")
    print(f"control (self-interaction audited as R2): stable={control.stable}")
    print(f"wrote {out / 'audit.csv'}")
    return 0


def _cmd_ledger(cfg: ExperimentConfig, out: Path, write_csv: bool) -> int:
    params = cfg.problem
    cs = replace(ledger.stock_constants(params), c=cfg.ledger_c,
                 c_err=cfg.ledger_c_err, c_r=cfg.ledger_c_r)
    print(f"threshold {ledger.threshold(cs):g}")
    rows = []
    for _ in range(params.n_steps):
        rows.append((cs.step, cs.c, cs.c_err, cs.c_r,
                     ledger.difference_constant(cs, params), ledger.threshold(cs)))
        cs = ledger.propagate(cs, params)
    name, *names = LEDGER_COLUMNS
    print(" ".join([f"{name:>4}"] + [f"{c:>12}" for c in names]))
    for step, *values in rows:
        print(" ".join([f"{step:>4}"] + [f"{v:>12.5g}" for v in values]))
    if write_csv:
        _atomic_write(out / "ledger.csv", _csv(LEDGER_COLUMNS, rows))
        print(f"wrote {out / 'ledger.csv'}")
    return 0


def _cmd_r5_demo(cfg: ExperimentConfig, out: Path) -> int:
    clean = _build(replace(cfg, r5_strength=0.0), cfg.problem)
    # Only the fits read these runs, so they record ||E_i|| alone.
    traces = [iteration.run(instance, full=False) for instance in
              (clean, with_self_interaction(clean, cfg.r5_strength))]
    for trace in traces:
        if trace.flag == "diverged":
            _print_escape(trace)
            return 2
    fit_clean, fit_with = [verify.fit_decay(t, 0, min_step=verify.R5_FIT_FROM)
                           for t in traces]
    _write_fits(out / "r5_clean.csv", [fit_clean])
    _write_fits(out / "r5_with.csv", [fit_with])
    if [s.norms_error for s in traces[0].states] == [
            s.norms_error for s in traces[1].states]:
        print("no effect: the two runs are identical (strength 0?)")
    else:
        ratio = abs(fit_with.slope) / abs(fit_clean.slope)
        print(f"clean slope {fit_clean.slope:+.4f}, "
              f"self-interaction slope {fit_with.slope:+.4f}, "
              f"ratio {ratio:.3f}, stalled={ratio < verify.R5_FACTOR}")
    print(f"wrote {out / 'r5_clean.csv'} and {out / 'r5_with.csv'}")
    return 0


def _sweep_stem(lambda_ell: float) -> str:
    """The name, without suffix, of the files sweep writes for lambda_ell."""
    return f"decay_ll{lambda_ell:g}"


def _cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    code = 0
    for ll in cfg.lambda_ell:
        params = replace(cfg.problem, ell=ll / cfg.problem.lam)
        trace = iteration.run(_build(cfg, params), full=False)
        if trace.flag == "diverged":
            _print_escape(trace)
            code = 2
            continue
        fits = [verify.fit_decay(trace, k) for k in _orders(trace)]
        stem = _sweep_stem(ll)
        _write_fits(out / f"{stem}.csv", fits)
        if cfg.plot:
            emit_plot(trace, out / f"{stem}.svg")
        print(f"lambda_ell={ll:g}: slope k=0 {fits[0].slope:+.4f} "
              f"(-ln={-math.log(ll):+.4f}), wrote {out / (stem + '.csv')}")
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the config-error code, not argparse's 2, which
    is the numerical-failure code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  parse_args keeps no state between
    calls, and building the parser costs a few tenths of a millisecond,
    mostly help formatting in add_argument."""
    parser = _Parser(
        prog="tamelab",
        description="Experiment runner for the corrector-iteration laboratory")
    parser.add_argument("command", choices=EXPERIMENTS)
    parser.add_argument("--config", default=None, help="flat key = value file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--output_dir", default=None,
                        help="output directory (default ./out or config value)")
    parser.add_argument("--plot", action="store_true",
                        help=f"emit SVG charts ({', '.join(KEYS['plot'].commands)})")
    parser.add_argument("--csv", action="store_true",
                        help="also write the table as CSV (ledger)")
    return parser


# An overflow or an invalid value raises FloatingPointError (OverflowError in
# Python float powers), a numerical failure: where one occurs depends on
# several keys at once (a drift that overflows at one lambda*ell runs at a
# larger one), so no key range refuses it.
@np.errstate(over="raise", invalid="raise")
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.csv and args.command != "ledger":
        parser.error(f"--csv is read by ledger only, not {args.command}")
    # The flags join the overrides last, so the key table judges them too.
    flags = [f"output_dir={args.output_dir}"] if args.output_dir is not None else []
    if args.plot:
        flags.append("plot=true")
    try:
        cfg = load_experiment_config(args.command, args.config,
                                     args.overrides + flags)
        command = {"run": _cmd_run, "decay": _cmd_decay,
                   "remainder-audit": _cmd_remainder_audit,
                   "ledger": lambda cfg, out: _cmd_ledger(cfg, out, args.csv),
                   "r5-demo": _cmd_r5_demo, "sweep": _cmd_sweep}[args.command]
        out = Path(cfg.output_dir)
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise ConfigError(f"output_dir {cfg.output_dir!r} is not a directory")
        return command(cfg, out)
    except (ConfigError, NeighborhoodViolation, ResolutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"write error: {exc}", file=sys.stderr)
        return 1
    except (iteration.DomainEscape, verify.InsufficientSteps,
            iteration.DerivativeBudgetExhausted, FloatingPointError,
            OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
