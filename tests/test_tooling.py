"""The traced benchmark wraps package functions by name; every name it lists
must still resolve, or `bench/run.py --trace 1` fails at install time, and
the wrapped names must see every instance build and every run once."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from tamelab import cli

ROOT = Path(__file__).resolve().parent.parent


def load_recorder():
    spec = importlib.util.spec_from_file_location(
        "bench_recorder", ROOT / "bench" / "recorder.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


@pytest.mark.parametrize("metric, module, path", load_recorder().LAYER_FUNCTIONS)
def test_wrapped_name_resolves(metric, module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), f"{metric}: {module}.{path}"


def test_recorder_counts_builds_and_runs(tmp_path, capsys):
    # problem.build makes one call of one of the three wrapped factories
    # per instance, so each build is counted once: r5-demo builds one
    # instance and runs it twice, sweep builds and runs three.
    config = ROOT / "configs"
    calls = [
        ["run", "--config", str(config / "default.cfg")],
        ["run", "--config", str(config / "two_component.cfg")],
        ["r5-demo", "--config", str(config / "r5.cfg")],
        ["sweep", "--config", str(config / "sweep.cfg")],
        ["run", "--config", str(config / "default.cfg"), "--set", "drift=0.5"],
    ]
    recorder = load_recorder().Recorder()
    recorder.install()
    try:
        codes = [cli.main(argv + ["--output_dir", str(tmp_path / str(i))])
                 for i, argv in enumerate(calls)]
    finally:
        recorder.uninstall()
    assert codes == [0] * len(calls)
    assert recorder.calls["problem.build"] == 7
    assert recorder.calls["iteration.run"] == 8
    # The recorder reads a second positional argument of run as n_steps, so
    # the CLI passes full by keyword: the counts are the configs'
    # 5 steps per run, 8 runs.
    assert recorder.counters["iteration.steps_requested"] == 40
    assert isinstance(recorder.counters["iteration.steps_completed"], int)



def _name(node):
    """The name a node mentions: bare, as an attribute or imported."""
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else
            node.name if isinstance(node, ast.alias) else None)


def _dotted_parts(node):
    """The parts of the module path an import names."""
    name = (node.name if isinstance(node, ast.alias) else
            node.module if isinstance(node, ast.ImportFrom) else None)
    return set(name.split(".")) if name else set()


def _callers(nodes, name):
    """The names of the functions among nodes that call name."""
    return {f.name for f in nodes if isinstance(f, ast.FunctionDef)
            and name in {_name(n.func) for n in ast.walk(f)
                         if isinstance(n, ast.Call)}}


def test_layering():
    # Only problem names the factories: problem.build makes every instance,
    # and in the CLI only _build calls it, so a test that stubs _build stubs
    # every build.  Only problem and the CLI add the self-interaction term,
    # only iteration and the CLI run instances, and the package namespace
    # imports nothing.  Only gridfield names RESOLUTION_FACTOR or raises
    # ResolutionError, so the resolution rule (points_needed) and its one
    # refusal (check_resolution) live there, and no module defines _sup or
    # _check_orders: row_sups is the one sup.  No module names
    # polyfit, polyval or numpy's linalg: the decay fits are closed-form,
    # and a first LAPACK call leaves about 1 MB resident.  Only gridfield
    # names numpy's fft, so every transform takes the one spectral path and
    # batching stays in gridfield.  No module defines or names ck_norms or
    # norm_batch_rows: FieldSpectrum.norms is the one norm method for a
    # field or a stack, and holds the batch rule.  Only problem raises
    # DomainEscape, so the domain of F is checked in one place.  No line
    # names n_components: every field is one 1-D sample array.  Only
    # gridfield names its transform workspace, so no view of it escapes the
    # module, and its derivative kernel; inside it only _derivative_spectra
    # reads the multiplier cache, so the multiplier form is known in one
    # place.  Only gridfield names bit_length, where the finite-order rule
    # lives, and only problem constructs a BoundClass, so every class is
    # declared there.  Only problem and ledger hold a class kind as a
    # string, so the records and the ledger's formula are the only places
    # that read a kind's name.  In verify, audit_classes and class_bound_rhs
    # both call _chunk_arguments, so the audit and the one-sample estimate
    # share the chunk path for argument norms, and no line names
    # random_trig_polynomial: the audit draws each chunk through
    # trig_coefficients and trig_rows.  Inside gridfield only trig_rows
    # reads the angle tables, so the self-check, the audit and
    # random_trig_polynomial evaluate their rows in one place.  A field is
    # made one way, GridFunction(samples): no module defines axpy, scale,
    # from_samples, with_samples or zeros, and every GridFunction call takes
    # one argument.  The ledger's one floor is CONSTANT_FLOOR: it holds no
    # other float literal below 1.
    factories = {"make_scalar_toy", "make_varying_toy", "make_two_component_toy"}
    for path in sorted((ROOT / "src" / "tamelab").glob("*.py")):
        source = path.read_text()
        assert "n_components" not in source, path.stem
        module, nodes = path.stem, list(ast.walk(ast.parse(source)))
        names = {_name(n) for n in nodes}.union(*map(_dotted_parts, nodes))
        assert not {"polyfit", "polyval", "linalg"} & names, module
        defined = {n.name for n in nodes
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert not {"ck_norms", "norm_batch_rows"} & (names | defined), module
        assert not {"_sup", "_check_orders", "axpy", "scale", "from_samples",
                    "with_samples", "zeros"} & defined, module
        assert all(len(n.args) + len(n.keywords) == 1 for n in nodes
                   if isinstance(n, ast.Call) and _name(n.func) == "GridFunction"), module
        if module == "ledger":
            small = [n.value for n in nodes if isinstance(n, ast.Constant)
                     and isinstance(n.value, float) and 0.0 < n.value < 1.0]
            floor = [n.value.value for n in nodes if isinstance(n, ast.Assign)
                     and _name(n.targets[0]) == "CONSTANT_FLOOR"]
            assert small == floor, small
        raised = {_name(getattr(n.exc, "func", n.exc)) for n in nodes
                  if isinstance(n, ast.Raise) and n.exc is not None}
        if module != "gridfield":
            assert not {"fft", "_workspace", "_order_block", "_derivative_spectra",
                        "_order_sups", "bit_length", "RESOLUTION_FACTOR"} & names, module
            assert "ResolutionError" not in raised, module
        else:
            callers = _callers(nodes, "_order_block")
            assert callers == {"_derivative_spectra"}, callers
            callers = _callers(nodes, "_angle_tables")
            assert callers == {"trig_rows"}, callers
        if module != "problem":
            assert not factories & names, module
            assert "DomainEscape" not in raised, module
            assert "BoundClass" not in {_name(n.func) for n in nodes
                                        if isinstance(n, ast.Call)}, module
        if module not in ("problem", "ledger"):
            constants = {n.value for n in nodes if isinstance(n, ast.Constant)}
            assert not {f"R{i}" for i in range(1, 7)} & constants, module
        if module == "verify":
            callers = _callers(nodes, "_chunk_arguments")
            assert callers == {"audit_classes", "class_bound_rhs"}, callers
            assert "random_trig_polynomial" not in names, module
        if module not in ("problem", "cli"):
            assert "with_self_interaction" not in names, module
        if module == "cli":
            assert _callers(nodes, "build") == {"_build"}, module
        if module not in ("iteration", "cli"):
            assert "run" not in {_name(n.func) for n in nodes
                                 if isinstance(n, ast.Call)}, module
        if module == "__init__":
            assert not any(isinstance(n, (ast.Import, ast.ImportFrom))
                           for n in nodes)
