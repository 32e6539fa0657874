"""Output checks for one benchmark operation.

Four layers, each returning findings (an empty list is a pass):

1. the exit code and the stdout markers each job documents (``flag=...``,
   ``stalled=True``, the unstable control);
2. invariants inside the CSVs: identity residual <= 1e-9 (1 + ||T||_0), the
   k=0 decay slope within the criterion-2 band of -ln(lambda*ell), and the
   audit verdicts (four stock classes stable, the control unstable, each
   verdict consistent with its constants);
3. the seed-free CSVs against the checked-in references, with a tolerance
   that admits rounding changes (see ``compare_csv``);
4. byte-for-byte equality with the first operation of the same run, which
   had the same inputs.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

IDENTITY_TOL = 1e-9        # documented bound on the identity residual
SLOPE_RTOL = 0.15          # criterion 2 band (DecayBands.slope_rtol)
STABLE_FACTOR = 2.0        # audit stability: constants within this factor
ZERO_CONSTANT_TOL = 1e-14  # audit: an all-zero column counts as stable
STOCK_CLASSES = ("R1", "R2", "R3", "R4")

# Reference comparison.  A value passes when
#     |actual - reference| <= RTOL |reference| + ATOL_SCALE * scale * gain^k.
# Late-step error norms are differences of O(1) fields, so their relative
# rounding error is far above 1e-12, and differentiation amplifies the
# rounding noise at the grid's top mode n/2 by up to gain = n/(2 lambda)
# per order more than the signal at mode lambda.  scale is the largest norm
# in the trace row (same step and order).  Calibrated by perturbing every
# FFT input by 4 to 256 ulps and by an rfft-based transform: no cell used
# more than 6% of this allowance.
RTOL = 1e-9
ATOL_SCALE = 1e-14
# Fitted slopes and intercepts are logs of those norms; the same
# perturbations moved them by up to 6e-7.  The CLI prints them to four
# decimals and criterion 2 allows 15%.
FIT_ATOL = 1e-5
TRACE_NORMS = ("norm_a", "norm_error", "norm_r", "diff_norm")
# margin column -> (norm it divides, fixed order or None for the row's k)
TRACE_MARGINS = {
    "clause1_margin": ("norm_a", 0),
    "clause2_margin": ("norm_a", None),
    "clause3_margin": ("norm_error", None),
    "clause4_margin": ("norm_r", None),
}
FIT_VALUES = ("slope", "intercept", "r_squared")
EXACT_COLUMNS = ("step", "k", "first_step", "last_step")


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str):
    return None if cell == "" else float(cell)


def check_trace(path: Path) -> list[str]:
    rows = read_rows(path)
    target = [float(r["norm_error"]) for r in rows if r["step"] == "0" and r["k"] == "0"]
    if not target:
        return [f"{path.name}: no step-0 row for ||T||_0"]
    residuals = [float(r["identity_residual"]) for r in rows if r["identity_residual"]]
    if not residuals:
        return [f"{path.name}: no identity residuals"]
    bound = IDENTITY_TOL * (1.0 + target[0])
    if not max(residuals) <= bound:
        return [f"{path.name}: identity residual {max(residuals):.3e} exceeds "
                f"{bound:.3e}"]
    return []


def check_slope(path: Path, lambda_ell: float) -> list[str]:
    fits = {r["k"]: float(r["slope"]) for r in read_rows(path)}
    if "0" not in fits:
        return [f"{path.name}: no k=0 fit"]
    want = -math.log(lambda_ell)
    if not abs(fits["0"] - want) <= SLOPE_RTOL * abs(want):
        return [f"{path.name}: k=0 slope {fits['0']:.4f} not within "
                f"{SLOPE_RTOL:.0%} of {want:.4f}"]
    return []


def check_audit(path: Path) -> list[str]:
    """Reports appear in CSV order, the stock classes and then the control,
    each a block that restarts at the first (k, lambda) pair."""
    rows = read_rows(path)
    if not rows:
        return [f"{path.name}: empty"]
    first = (rows[0]["k"], rows[0]["lambda"])
    reports = []  # (class, stable cell, {k: constants over lambda})
    for row in rows:
        if (row["k"], row["lambda"]) == first:
            reports.append((row["class"], row["stable"], {}))
        reports[-1][2].setdefault(row["k"], []).append(float(row["constant"]))
    kinds = tuple(r[0] for r in reports)
    if kinds != STOCK_CLASSES + ("R2",):
        return [f"{path.name}: reports {kinds}, expected the stock classes "
                f"and the R2 control"]
    findings = []
    for index, (kind, verdict, columns) in enumerate(reports):
        stable = all(max(c) <= ZERO_CONSTANT_TOL or
                     (min(c) > ZERO_CONSTANT_TOL and max(c) / min(c) <= STABLE_FACTOR)
                     for c in columns.values())
        label = "control" if index == len(STOCK_CLASSES) else f"class {kind}"
        if verdict != str(stable).lower():
            findings.append(f"{path.name}: {label} says stable={verdict} but "
                            f"its constants give {stable}")
        if stable != (index < len(STOCK_CLASSES)):
            findings.append(f"{path.name}: {label} stable={stable}")
    return findings


def check_svg(path: Path) -> list[str]:
    text = path.read_text()
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return [f"{path.name}: not a complete SVG document"]
    return []


def _trace_tolerances(rows: list[dict], gain: float):
    """Per (row index, column) absolute tolerance for a reference trace."""
    scale = {}
    for r in rows:
        scale[(r["step"], r["k"])] = (max(abs(_num(r[c]) or 0.0) for c in TRACE_NORMS)
                                      * gain ** int(r["k"]))
    by_key = {(r["step"], r["k"]): r for r in rows}
    tol = {}
    for i, r in enumerate(rows):
        key = (r["step"], r["k"])
        for column in TRACE_NORMS:
            value = _num(r[column])
            if value is not None:
                tol[(i, column)] = RTOL * abs(value) + ATOL_SCALE * scale[key]
        for column, (norm, order) in TRACE_MARGINS.items():
            value = _num(r[column])
            if value is None:
                continue
            source_key = (r["step"], r["k"] if order is None else str(order))
            source = abs(_num(by_key[source_key][norm]) or 0.0)
            # a margin is its norm over a calibrated constant: it inherits
            # the norm's relative slack, plus that of the constant
            slack = ATOL_SCALE * scale[source_key] / source if source else math.inf
            tol[(i, column)] = abs(value) * (2 * RTOL + slack)
    return tol


def compare_csv(actual: Path, reference: Path, gain: float) -> list[str]:
    """Compare a seed-free CSV with its reference within rounding.

    Traces use the scaled tolerance above; the identity residual is rounding
    noise by construction and is checked as an invariant instead.  Fits use
    FIT_ATOL on slope, intercept and r^2; every other numeric cell (the
    ledger's closed-form constants) uses RTOL.  Step and order columns, and
    empty cells, must match exactly.
    """
    got, want = read_rows(actual), read_rows(reference)
    if len(got) != len(want) or (want and got and got[0].keys() != want[0].keys()):
        return [f"{actual.name}: shape differs from the reference "
                f"({len(got)} vs {len(want)} rows)"]
    is_trace = bool(want) and "identity_residual" in want[0]
    tol = _trace_tolerances(want, gain) if is_trace else {}
    for i, (g, w) in enumerate(zip(got, want)):
        for column, expected in w.items():
            if column == "identity_residual":
                continue
            found = g[column]
            if found == expected:
                continue
            if column in EXACT_COLUMNS or "" in (found, expected):
                return [f"{actual.name} row {i + 2} {column}: {found!r} != {expected!r}"]
            x, y = float(found), float(expected)
            if is_trace:
                limit = tol[(i, column)]
            elif column in FIT_VALUES:
                limit = FIT_ATOL
            else:
                limit = RTOL * abs(y)
            if not abs(x - y) <= limit:
                return [f"{actual.name} row {i + 2} {column}: {x!r} differs from "
                        f"reference {y!r} by {abs(x - y):.3e} > {limit:.3e}"]
    return []


def check_job(job, out: Path, exit_code: int, stdout: str,
              reference: Path) -> list[str]:
    """Layers 1-3 for one job whose outputs sit in out."""
    findings = []
    if exit_code != job.exit_code:
        findings.append(f"exit code {exit_code}, expected {job.exit_code}")
    findings += [f"stdout lacks {mark!r}" for mark in job.stdout_marks
                 if mark not in stdout]
    missing = [f for f in job.files if not (out / f).is_file()]
    if missing:
        return [f"{job.name}: {f}" for f in findings + [f"missing outputs {missing}"]]
    try:
        for name in job.files:
            if name == "trace.csv":
                findings += check_trace(out / name)
            elif name.endswith(".svg"):
                findings += check_svg(out / name)
        for name, lambda_ell in job.slopes.items():
            findings += check_slope(out / name, lambda_ell)
        if job.audit:
            findings += check_audit(out / job.audit)
        for name in job.seed_free:
            findings += compare_csv(out / name, reference / job.name / name, job.gain)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        findings.append(f"malformed output: {exc!r}")
    return [f"{job.name}: {f}" for f in findings]


def snapshot(out: Path) -> dict:
    """Relative path -> bytes of every file under out."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def compare_snapshots(got: dict, first: dict) -> list[str]:
    """Layer 4: the outputs must equal those of the run's first operation."""
    if got.keys() != first.keys():
        return [f"output files {sorted(got)} differ from the first operation's "
                f"{sorted(first)}"]
    return [f"{name}: bytes differ from the first operation's"
            for name in got if got[name] != first[name]]
