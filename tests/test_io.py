"""The shared CSV writer and reader, a guard that keeps CSV rows in them and
print calls in the CLI, one that keeps the CLI's CSV rows in the modules'
writers, one that keeps each module's package imports to earlier layers, a
guard that each module exports only what it defines, one that each exported
name has a caller or a stated reason, one that the package exports exactly
its layer modules' exports, and one that keeps the tests' ODE reference
solves in the shared oracles;
the shared argument checks, driven through every entry point that uses
them, a guard that keeps finiteness and bitstring checks in them and one
that keeps the reads of real arguments in _io.require_finite; a
guard that keeps the bit order in register._view; the scalar-in,
float-out rule of every entry point; and the in-place writes of every
writer."""
import ast
import functools
import importlib
import inspect
import io
import math
import os
import pathlib
import re
import stat
import struct
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qperceptron
from qperceptron import _io, dynamics
from qperceptron._io import open_text, read_rows, write_rows
from qperceptron.cli import main
from qperceptron.control import faquad_schedule, schedule_to_csv
from qperceptron.dynamics import FidelityReport, report_to_csv, response_curve, response_to_csv
from qperceptron.synthesis import (
    Peak,
    Rectangle,
    Sampled,
    SynthesisResult,
    analytic_rectangle,
    composition_angle,
    composition_to_csv,
    target_angle,
)

PACKAGE = pathlib.Path(qperceptron.__file__).parent
TESTS = pathlib.Path(__file__).parent
ROOT = TESTS.parent
MAX = 1.7976931348623157e308
EDGES = [0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, 1 / 3, 2.2250738585072014e-308]


def bits(values):
    """The IEEE-754 bytes of each value, so -0.0 and 0.0 differ."""
    return [struct.pack("<d", v) for v in values]


@functools.lru_cache(maxsize=None)
def _tree(text):
    return ast.parse(text)


def parsed(path):
    """The module at ``path`` as an ``ast`` tree, parsed once per source text and shared by
    the guards here and in test_register.py; a guard walks the tree and never changes it."""
    return _tree(path.read_text(encoding="utf-8"))


def call_name(call):
    """The bare name a call invokes: ``f`` of both ``f(...)`` and ``m.f(...)``."""
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def io_offences(path):
    """(line, what) for each file or stream operation the module makes itself,
    a bare ``print`` call included."""
    found = []
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            found.append((node.lineno, "import csv"))
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append((node.lineno, "import csv"))
        elif isinstance(node, ast.Call):
            f, name = node.func, call_name(node)
            if name == "open":
                found.append((node.lineno, "open"))
            elif name in ("readline", "readlines") and isinstance(f, ast.Attribute):
                found.append((node.lineno, ".readline"))
            elif name in ("write", "writelines") and isinstance(f, ast.Attribute):
                found.append((node.lineno, ".write"))
            elif name == "print" and isinstance(f, ast.Name):
                found.append((node.lineno, "print"))
    return found


# the package's modules in layer order: each imports package modules from earlier ones only
LAYERS = ("_io", "activation", "control", "dynamics", "register", "network", "training",
          "synthesis", "cli")


def layer_offences(path):
    """(line, module) for each package module the file imports that is not earlier than the
    file's own in LAYERS, relative or absolute; "qperceptron" for the whole package."""
    rank = {m: i for i, m in enumerate(LAYERS)}
    found = []
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["qperceptron" if node.level else None, node.module]))
            names = [f"{base}.{a.name}" for a in node.names] if base == "qperceptron" else [base]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "qperceptron":
                module = parts[1] if len(parts) > 1 else "qperceptron"
                if rank.get(module, len(LAYERS)) >= rank[path.stem]:
                    found.append((node.lineno, module))
    return sorted(found)


def scipy_imports(path):
    """Lines where the module imports scipy or one of its submodules, at any depth."""
    return [node.lineno for node in ast.walk(parsed(path))
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy"
                                                    for a in node.names)
            or isinstance(node, ast.ImportFrom) and not node.level
            and node.module.split(".")[0] == "scipy"]


def row_writer_uses(path):
    """Lines where the module imports or reaches ``write_rows``, the shared CSV row writer."""
    return [node.lineno for node in ast.walk(parsed(path))
            if isinstance(node, ast.ImportFrom) and any(a.name == "write_rows" for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "write_rows"]


class TestSingleIoModule:
    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_only_io_touches_files(self, module):
        # records go through logging; only the CLI prints
        allowed = {"_io.py": {"import csv", "open", ".readline", ".write"}, "cli.py": {".write", "print"}}
        bad = [(line, what) for line, what in io_offences(PACKAGE / module)
               if what not in allowed.get(module, set())]
        assert bad == [], f"{module} reads or writes a stream itself: {bad}"

    def test_guard_sees_each_offence(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text("import csv\nfrom csv import reader\nopen('f')\nfh.readline()\n"
                       "fh.write('x')\nio.open('f')\n")
        assert io_offences(src) == [(1, "import csv"), (2, "import csv"), (3, "open"),
                                    (4, ".readline"), (5, ".write"), (6, "open")]

    def test_guard_sees_a_print(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text("print('x')\nlog.info('x')\nprint('y', file=fh)\nfh.print('z')\n")
        assert io_offences(src) == [(1, "print"), (3, "print")]

    def test_cli_writes_rows_through_module_writers(self):
        # each CLI artifact's rows come from its module's *_to_csv, so its format exists once
        assert row_writer_uses(PACKAGE / "cli.py") == []

    def test_guard_sees_a_row_writer(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text("from ._io import open_text, write_rows\nfrom . import _io\n"
                       "_io.write_rows(fh, 'x', [])\nwrite_rows_out = 1\nfrom ._io import read_rows\n")
        assert row_writer_uses(src) == [1, 3]


class TestScipyOnlyInSynthesis:
    """The runtime is numpy-only but for synthesize's least-squares fit."""

    def test_no_other_module_imports_scipy(self):
        found = {p.name: scipy_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
        assert [name for name, lines in found.items() if lines] == ["synthesis.py"]

    def test_guard_sees_each_import(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text("import scipy\nimport numpy, scipy.special\ndef f():\n"
                       "    from scipy.special import expit\nfrom .scipy import x\nimport scipyx\n")
        assert scipy_imports(src) == [1, 2, 4]


class TestLayerOrder:
    def test_every_module_has_a_layer(self):
        assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)

    @pytest.mark.parametrize("module", LAYERS)
    def test_module_imports_only_earlier_layers(self, module):
        assert layer_offences(PACKAGE / f"{module}.py") == []

    def test_guard_sees_a_late_import(self, tmp_path):
        src = tmp_path / "register.py"
        src.write_text("from ._io import as_index\nfrom .network import forward\n"
                       "from . import dynamics, training\nimport qperceptron.cli\n"
                       "from qperceptron import synthesis\nimport qperceptron\n"
                       "from .register import _view\nimport numpy\nfrom qperceptron.control import X\n")
        assert layer_offences(src) == [(2, "network"), (3, "training"), (4, "cli"),
                                       (5, "synthesis"), (6, "qperceptron"), (7, "register")]


def foreign_exports(module):
    """Functions and classes in the module's ``__all__`` that another module defines."""
    return [name for name in getattr(module, "__all__", ())
            if (inspect.isfunction(obj := getattr(module, name)) or inspect.isclass(obj))
            and obj.__module__ != module.__name__]


class TestExportsAreOwn:
    """Layer-by-layer timing reads each module's ``__all__`` as the functions
    that layer owns; a re-exported name would claim another layer's function."""

    @pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                              if p.stem != "__init__"))
    def test_all_names_only_own_definitions(self, module):
        mod = importlib.import_module(f"qperceptron.{module}")
        assert foreign_exports(mod) == [], f"{module} re-exports {foreign_exports(mod)}"

    def test_guard_sees_a_reexport(self):
        mod = types.ModuleType("qperceptron.fake")
        exec("from json import dumps\nfrom fractions import Fraction\n"
             "def own():\n    pass\nLIMIT = 3\n"
             "__all__ = ['dumps', 'Fraction', 'own', 'LIMIT']", vars(mod))
        assert foreign_exports(mod) == ["dumps", "Fraction"]


def caller_texts(module):
    """Text of each file where a public name of ``module`` may have its caller: the other
    package modules, the files of demos/ and perfbench/, and the acceptance tests."""
    files = [p for p in PACKAGE.glob("*.py") if p.stem not in (module, "__init__")]
    files += [p for d in ("demos", "perfbench") for p in sorted((ROOT / d).iterdir()) if p.is_file()]
    return [p.read_text(encoding="utf-8") for p in files + [TESTS / "test_acceptance.py"]]


def uncalled_exports(module, texts):
    """Names in the module's ``__all__`` that no text names as a whole word."""
    return [name for name in getattr(module, "__all__", ())
            if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)]


class TestEachExportHasACaller:
    """A public name stays for a caller outside its module and the unit tests,
    or for one of four stated reasons; a name with neither leaves the API."""

    REASONS = {
        "type": "a type that a public function takes, returns or raises",
        "round-trip": "one half of a serialized round-trip pair",
        "constant": "a constant that a caller passes in or checks against",
        "paper": "a quantity of the paper that the README names",
    }
    UNCALLED = {
        "ControlSchedule": "type",
        "EigenSystem": "type",
        "AdiabaticDiagnostics": "type",
        "FidelityReport": "type",
        "ZeroProbabilityError": "type",
        "Dataset": "type",
        "TrainReport": "type",
        "TargetResponse": "type",
        "CompositionSpec": "type",
        "SynthesisResult": "type",
        "schedule_to_csv": "round-trip",
        "network_to_json": "round-trip",
        "dataset_to_csv": "round-trip",
        "dataset_from_csv": "round-trip",
        "LOGISTIC": "constant",
        "STEP": "constant",
        "MAX_QUBITS": "constant",
        "adiabatic_mu": "paper",  # the mu that FAQUAD holds constant
        "protocol_duration": "paper",  # the abstract's "dominated by the number of layers"
        "target_angle": "paper",  # the rotation angle a perceptron composition is fitted to
    }

    @pytest.mark.parametrize("module", LAYERS)
    def test_every_export_has_a_caller_or_a_reason(self, module):
        mod = importlib.import_module(f"qperceptron.{module}")
        bad = [name for name in uncalled_exports(mod, caller_texts(module))
               if name not in self.UNCALLED]
        assert bad == [], f"{module} exports names with no caller and no reason: {bad}"

    def test_no_entry_is_stale(self):
        # each entry is still exported and still uncalled, for a reason of the four
        uncalled = set().union(*(
            uncalled_exports(importlib.import_module(f"qperceptron.{m}"), caller_texts(m))
            for m in LAYERS))
        assert set(self.UNCALLED.values()) <= set(self.REASONS)
        assert set(self.UNCALLED) <= uncalled, sorted(set(self.UNCALLED) - uncalled)

    def test_guard_sees_an_uncalled_export(self):
        mod = types.ModuleType("qperceptron.fake")
        exec("def used():\n    pass\ndef orphan():\n    pass\nLIMIT = 3\n"
             "__all__ = ['used', 'orphan', 'LIMIT']", vars(mod))
        assert uncalled_exports(mod, ["used(LIMIT)", "orphans = 2  # no orphan_call"]) == ["orphan"]


def solve_ivp_calls(path):
    """(enclosing function, line) of each solve_ivp call or renaming import
    in a module; "<module>" outside any function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and call_name(child) == "solve_ivp":
                found.append((scope, child.lineno))
            elif isinstance(child, ast.ImportFrom) and any(
                    a.name == "solve_ivp" and a.asname not in (None, "solve_ivp")
                    for a in child.names):
                found.append((scope, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(parsed(path), "<module>")
    return found


class TestSharedOracles:
    """The tests integrate with DOP853 only in ``ode_oracles``, so that each
    reference quantity has one implementation.  The FAQUAD-ODE check of
    control and the acceptance criteria keep their own solves."""

    ALLOWED = {"ode_oracles.py": {"dop853_two_level", "dop853_ising_passage"},
               "test_control.py": {"test_closed_form_vs_ode_integration"}}

    @pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")
                                              if p.name != "test_acceptance.py"))
    def test_solve_ivp_only_in_shared_oracles(self, module):
        bad = [(scope, line) for scope, line in solve_ivp_calls(TESTS / module)
               if scope not in self.ALLOWED.get(module, set())]
        assert bad == [], f"{module} calls solve_ivp outside the shared oracles: {bad}"

    def test_guard_sees_each_call(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text("solve_ivp(f, s, y)\n"
                       "def oracle(f):\n"
                       "    def rhs(t, y):\n"
                       "        return f(t, y)\n"
                       "    return scipy.integrate.solve_ivp(rhs, s, y)\n"
                       "from scipy.integrate import solve_ivp as ivp\n")
        assert solve_ivp_calls(src) == [("<module>", 1), ("oracle", 5), ("<module>", 6)]
        assert [scope for scope, _ in solve_ivp_calls(TESTS / "ode_oracles.py")] == [
            "dop853_two_level", "dop853_ising_passage"]


def test_package_exports_exactly_the_layers_all():
    layers = [p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_") and p.stem != "cli"]
    declared = set().union(*(importlib.import_module(f"qperceptron.{m}").__all__ for m in layers))
    public = {name for name, obj in vars(qperceptron).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert len(layers) == 7
    assert public == declared, (sorted(declared - public), sorted(public - declared))


def handwritten_checks(path):
    """(line, message text) of each raise whose message is a finiteness or
    bitstring check, written out instead of calling the shared one in _io."""
    found = []
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = "".join(c.value for c in ast.walk(node.exc)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            if re.search(r"must be finite|bit ?string|0/1 string", text):
                found.append((node.lineno, text))
    return found


def real_reads(path):
    """(function, line) of each ``float(a)``, ``np.asarray(a, dtype=float)`` or
    ``np.array(a, dtype=float)`` whose ``a`` is a parameter of a public function
    or method, or a field ``self.a`` inside ``__post_init__``: a real argument
    read without _io.require_finite."""
    def read(call):
        """The expression the call converts to float, or None."""
        if isinstance(call.func, ast.Name) and call.func.id == "float" and len(call.args) == 1:
            return call.args[0]
        dtype = call.args[1:2] + [k.value for k in call.keywords if k.arg == "dtype"]
        if call_name(call) in ("asarray", "array") and call.args and any(
                isinstance(d, ast.Name) and d.id == "float"
                or isinstance(d, ast.Attribute) and d.attr == "float64" for d in dtype):
            return call.args[0]
        return None

    def is_argument(expr, fn):
        if fn.name == "__post_init__":
            return (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self")
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        return isinstance(expr, ast.Name) and expr.id in params - {"self"}

    tree = parsed(path)
    methods = [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body]
    found = []
    for fn in tree.body + methods:
        if isinstance(fn, ast.FunctionDef) and (fn.name == "__post_init__"
                                                or not fn.name.startswith("_")):
            found += [(fn.name, node.lineno) for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and (arg := read(node)) is not None and is_argument(arg, fn)]
    return sorted(found, key=lambda f: f[1])


class TestSharedArgumentChecks:
    """Finite numbers and bitstrings are checked by _io alone, so that each
    check is worded once.  The register's own test runs only once its norm
    test has failed, so that no gate pays a second pass over 2^n amplitudes;
    tol's is a range check, [0, inf).  A real argument is read (converted
    and checked) by _io.require_finite alone."""

    ALLOWED = {"register.py": {"register amplitudes must be finite"},
               "dynamics.py": {"tol must be finite and >= 0, got "}}
    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                              if p.name != "_io.py"))
    def test_no_real_read_outside_io(self, module):
        bad = real_reads(PACKAGE / module)
        assert bad == [], f"{module} reads a real argument without require_finite: {bad}"

    def test_guard_sees_each_read(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text("def f(x, y, *, z):\n"
                       "    a = float(x)\n"
                       "    b = np.asarray(y, dtype=float)\n"
                       "    c = np.array(z, float)\n"
                       "    d = np.asarray(x), float(a), np.array(y, dtype=complex)\n"
                       "    return np.array(x, dtype=np.float64)\n"
                       "def _g(x):\n"
                       "    return float(x)\n"
                       "class C:\n"
                       "    def __post_init__(self):\n"
                       "        float(self.x), float(len(self.y))\n"
                       "    def value(self, t):\n"
                       "        return np.asarray(t, dtype=float), float(self)\n")
        assert real_reads(src) == [("f", 2), ("f", 3), ("f", 4), ("f", 6),
                                   ("__post_init__", 11), ("value", 13)]

    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                              if p.name != "_io.py"))
    def test_no_handwritten_check(self, module):
        bad = [(line, text) for line, text in handwritten_checks(PACKAGE / module)
               if text not in self.ALLOWED.get(module, set())]
        assert bad == [], f"{module} writes out a check that _io owns: {bad}"

    def test_guard_sees_each_check(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text("raise ValueError('x must be finite')\n"
                       "raise ValueError(f'{name} must be finite, got {v!r}')\n"
                       "raise ValueError('bits must be a 0/1 string')\n"
                       "raise ValueError(f'input {x!r} is not a {n}-bit string')\n"
                       "raise ValueError('bitstring length must equal qubit count')\n"
                       "raise ValueError('x must be positive')\n")
        assert [line for line, _ in handwritten_checks(src)] == [1, 2, 3, 4, 5]


def bit_order_offences(path):
    """(enclosing function, line) of each ``int(<expr>, 2)`` call and each reshape
    to ``(2,) * n``: code that reads amplitude positions from the bit order itself."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                base = child.args[1:2] + [k.value for k in child.keywords if k.arg == "base"]
                if call_name(child) == "int" and any(
                        isinstance(b, ast.Constant) and b.value == 2 for b in base):
                    found.append((scope, child.lineno))
                elif call_name(child) == "reshape" and any(
                        isinstance(a, ast.BinOp) and isinstance(a.op, ast.Mult) and any(
                            isinstance(t, ast.Tuple) and len(t.elts) == 1
                            and isinstance(t.elts[0], ast.Constant) and t.elts[0].value == 2
                            for t in (a.left, a.right))
                        for a in child.args):
                    found.append((scope, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(parsed(path), "<module>")
    return found


class TestOneBitOrder:
    """Amplitude positions come from register._view alone, so that the bit
    order (qubit 0 is the most significant bit) is written once."""

    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_bit_order_only_in_view(self, module):
        allowed = {"_view"} if module == "register.py" else set()
        bad = [(scope, line) for scope, line in bit_order_offences(PACKAGE / module)
               if scope not in allowed]
        assert bad == [], f"{module} computes amplitude positions itself: {bad}"

    def test_guard_sees_each_offence(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text("i = int(bits, 2)\n"
                       "def put(a, n, x):\n"
                       "    a[int(x + '0', base=2)] = 1\n"
                       "    return a.reshape((2,) * n), np.reshape(a, n * (2,))\n"
                       "j = int(bits, 10) + int('7')\n"
                       "b = a.reshape((2, 3)), a.reshape((4,) * n)\n")
        assert bit_order_offences(src) == [("<module>", 1), ("put", 3), ("put", 4), ("put", 4)]
        assert [scope for scope, _ in bit_order_offences(PACKAGE / "register.py")] == ["_view"]


@pytest.mark.parametrize("call", [
    lambda x: qperceptron.eval_f(qperceptron.ALGEBRAIC, x),
    lambda x: qperceptron.eval_f(qperceptron.STEP, x),
    lambda x: qperceptron.df_dx(qperceptron.LOGISTIC, x),
    lambda x: qperceptron.eval_CS(qperceptron.ALGEBRAIC, x)[0],
    lambda x: qperceptron.eval_CS(qperceptron.STEP, x)[1],
    lambda x: qperceptron.chi(qperceptron.cao_arctan(2), x),
    lambda x: qperceptron.dchi_dx(qperceptron.ALGEBRAIC, x),
    lambda x: _ramp().omega(x),
    lambda x: qperceptron.faquad_schedule(100.0, 1.0, 1.0, 1.0).domega(x),
    lambda x: qperceptron.tabulated_schedule([0.0, 1.0], [2.0, 1.0]).omega(x),
    lambda x: qperceptron.adiabatic_mu(_ramp(), 1.0, x),
    lambda x: qperceptron.eigensystem(1.0, x).theta_bloch,
    lambda x: qperceptron.eigensystem(1.0, x).e0,
    lambda x: qperceptron.eigensystem(1.0, x).e1,
    lambda x: qperceptron.composition_angle(_SPEC, x),
    lambda x: target_angle(Rectangle(0.0, 2.0), x),
    lambda x: target_angle(Peak(0.0, 1.0), x),
    lambda x: target_angle(Sampled(((0.0, 0.0), (1.0, 1.0))), x),
], ids=["eval_f", "eval_f_step", "df_dx", "eval_CS_C", "eval_CS_S_step", "chi", "dchi_dx",
        "omega", "domega", "omega_table", "adiabatic_mu", "eigensystem_theta",
        "eigensystem_e0", "eigensystem_e1", "composition_angle", "target_rectangle",
        "target_peak", "target_sampled"])
def test_scalar_in_gives_float_out(call):
    for x in (0.5, np.float64(0.5), np.array(0.5)):
        assert type(call(x)) is float, type(call(x))
    out = call(np.array([0.25, 0.5]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert out[1] == call(0.5)


def _net():
    return qperceptron.layered_network(2, (1,))


def _bad_net(name):
    net = _net()
    params = {"J": net.J.copy(), "b": net.b.copy()}
    params[name][-1] = math.nan
    return qperceptron.NetworkSpec(2, (1, 1), net.mask, params["J"], params["b"])


def _ramp():
    return qperceptron.linear_schedule(2.0, 1.0, 1.0)


def _reg():
    return qperceptron.init_basis(2, "10")


def _benchmark(tf_grid):
    """``benchmark_ramps`` with the integrator replaced by a failure: a bad
    grid must be refused before any ramp is integrated."""
    def no_steps(*args):
        raise AssertionError("steps were integrated")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_propagate", no_steps)
        return qperceptron.benchmark_ramps(tf_grid, n_points=21)


_SPEC = qperceptron.CompositionSpec(((1.0, 0.0, 1),))
_SUM = (np.array([0.5]), np.zeros((1, 1)), np.zeros(1))  # (alpha, w, theta) of one neuron
_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("error, name, call", [
    # finite numbers and arrays: _io.require_finite
    (ValueError, "omega0", lambda: qperceptron.linear_schedule(_NAN, 1.0, 1.0)),
    (ValueError, "omega0", lambda: qperceptron.linear_schedule("1", 1.0, 1.0)),
    (ValueError, "omega0", lambda: qperceptron.linear_schedule(10**400, 1.0, 1.0)),
    (ValueError, "omega0", lambda: qperceptron.linear_schedule(2 + 0j, 1.0, 1.0)),
    (ValueError, "x_ref", lambda: qperceptron.faquad_schedule(100.0, 1.0, 10.0, _INF)),
    (ValueError, "epsilon_ctrl", lambda: qperceptron.perturbed_schedule(
        qperceptron.faquad_schedule(100.0, 1.0, 10.0, 1.0), _NAN)),
    (ValueError, "omegaf", lambda: qperceptron.optimal_design_field(-_INF)),
    (ValueError, "ts", lambda: qperceptron.tabulated_schedule([0.0, 1.0, _INF], [1.0, 2.0, 1.0])),
    (ValueError, "omegas", lambda: qperceptron.tabulated_schedule([0.0, 1.0], [1.0, _NAN])),
    (ValueError, "omega", lambda: qperceptron.eigensystem(_NAN, 1.0)),
    (ValueError, "omega", lambda: qperceptron.eigensystem(_INF, 1.0)),
    (ValueError, "x", lambda: qperceptron.eigensystem(1.0, -_INF)),
    (ValueError, "omega", lambda: qperceptron.eigensystem("1", 1.0)),
    (ValueError, "x", lambda: qperceptron.eigensystem(1.0, [[0.0], [1.0, 2.0]])),
    (ValueError, "x_ref", lambda: qperceptron.faquad_constant_mu(100.0, 1.0, 10.0, _NAN)),
    (ValueError, "activation input", lambda: qperceptron.eval_f(qperceptron.ALGEBRAIC, _NAN)),
    (ValueError, "x values", lambda: qperceptron.schedule_propagators(_ramp(), [0.0, _NAN])),
    (ValueError, "x values", lambda: qperceptron.response_curve(_ramp(), [_INF])),
    (ValueError, "J", lambda: _bad_net("J")),
    (ValueError, "b", lambda: _bad_net("b")),
    (ValueError, "rectangle m1", lambda: qperceptron.Rectangle(_NAN, 1.0)),
    (ValueError, "peak width", lambda: qperceptron.Peak(0.0, _INF)),
    (ValueError, "sampled point x", lambda: qperceptron.Sampled(((_NAN, 0.5),))),
    (ValueError, "cycles", lambda: qperceptron.CompositionSpec(((_INF, 0.0, 1),))),
    (ValueError, "x", lambda: qperceptron.composition_angle(_SPEC, [0.0, _NAN])),
    (ValueError, "x_grid", lambda: qperceptron.synthesize(
        qperceptron.Rectangle(0.0, 2.0), 2, [0.0, _INF])),
    (ValueError, "p_out", lambda: qperceptron.approximator_readout(_NAN, 0.01)),
    (ValueError, "lambda_lin", lambda: qperceptron.approximator_readout(0.5, _INF)),
    (ValueError, "lambda_lin", lambda: qperceptron.approximator_readout(0.5, "1")),
    (ValueError, "lambda_lin", lambda: qperceptron.build_universal_approximator(_SUM, "x")),
    (ValueError, "lambda_lin", lambda: qperceptron.build_universal_approximator(_SUM, _INF)),
    # reals read by _io.require_finite, where a str, a nan or an inf was not named
    (ValueError, "x values", lambda: qperceptron.schedule_propagators(_ramp(), ["a"])),
    (ValueError, "x values", lambda: qperceptron.response_curve(_ramp(), ["a"])),
    (ValueError, "x", lambda: qperceptron.composition_angle(_SPEC, "a")),
    (ValueError, "x_grid", lambda: qperceptron.synthesize(Rectangle(0, 2), 2, ["a"])),
    (ValueError, "sampled point x", lambda: Sampled([("a", 0.1)])),
    (ValueError, "cycles", lambda: qperceptron.CompositionSpec((("a", 0, 1),))),
    (ValueError, "x", lambda: target_angle(Rectangle(0, 1), "x")),
    (ValueError, "labels", lambda: qperceptron.Dataset(1, (("0", "x"),))),
    (ValueError, "J", lambda: qperceptron.NetworkSpec(2, (1, 1), _net().mask, [["a"] * 4] * 4,
                                                      _net().b)),
    (ValueError, "x_grid", lambda: composition_to_csv(
        SynthesisResult(_SPEC, 0.0, True), Rectangle(0, 2), ["a"], io.StringIO())),
    (ValueError, "x_max", lambda: qperceptron.average_fidelity(_ramp(), "a", 5)),
    (ValueError, "steepness", lambda: analytic_rectangle(Rectangle(0, 2), _INF)),
    (ValueError, "steepness", lambda: analytic_rectangle(Rectangle(0, 2), "2")),
    (ValueError, "weights", lambda: qperceptron.apply_composition(
        _reg(), _SPEC, 1, {0: _NAN})),
    # shapes and types that failed deep inside: 0/0 in the peak profile, a tuple
    # unpack, a dict method, a broadcast
    (ValueError, "peak width", lambda: qperceptron.Peak(0.0, 1e-200)),
    (ValueError, "peak width", lambda: qperceptron.Peak(0.0, 1e200)),
    (ValueError, "cycles", lambda: qperceptron.CompositionSpec(((1.0, 0.5),))),
    (ValueError, "weights", lambda: qperceptron.PerceptronGateSpec(1, [1.0])),
    (ValueError, "weights", lambda: qperceptron.apply_composition(
        _reg(), _SPEC, 1, [1.0])),
    (ValueError, "weights", lambda: qperceptron.apply_composition(
        _reg(), _SPEC, 1, {0: [1.0, 2.0]})),
    (ValueError, "alpha", lambda: qperceptron.build_universal_approximator(
        ([_NAN], [[1, 1]], [0]), 0.1)),
    (ValueError, "w", lambda: qperceptron.build_universal_approximator(
        ([0.5], [[1, _INF]], [0]), 0.1)),
    # bitstrings: _io.check_bits
    (ValueError, "input_bits", lambda: qperceptron.forward(_net(), "1")),
    (ValueError, "input_bits", lambda: qperceptron.forward(_net(), "0x")),
    (ValueError, "input_bits", lambda: qperceptron.classical_mixture_oracle(_net(), "012")),
    (ValueError, "bits", lambda: qperceptron.init_basis(2, "0")),
    (ValueError, "bits", lambda: qperceptron.init_basis(2, "0x")),
    (ValueError, "input", lambda: qperceptron.Dataset(2, (("01", 1.0), ("1", 0.0)))),
    # qubit indices: register._check_qubit
    (IndexError, "target", lambda: qperceptron.apply_composition(_reg(), _SPEC, 2, {0: 1.0})),
    (IndexError, "source", lambda: qperceptron.apply_composition(_reg(), _SPEC, 0, {5: 1.0})),
    (IndexError, "target", lambda: qperceptron.apply_ideal_perceptron(
        _reg(), qperceptron.PerceptronGateSpec(2, {0: 1.0}))),
    (IndexError, "source", lambda: qperceptron.apply_ideal_perceptron(
        _reg(), qperceptron.PerceptronGateSpec(0, {3: 1.0}))),
    (ValueError, "weights", lambda: qperceptron.PerceptronGateSpec(1, {0: _NAN})),
    (ValueError, "bias", lambda: qperceptron.PerceptronGateSpec(1, {0: 1.0}, bias=_INF)),
    (ValueError, "weights", lambda: qperceptron.PerceptronGateSpec(1, {0: [1.0, 2.0]})),
    (ValueError, "weights", lambda: qperceptron.PerceptronGateSpec(1, {0: [1.0, [2.0]]})),
    (ValueError, "bias", lambda: qperceptron.PerceptronGateSpec(1, {0: 1.0}, bias=np.array([0.1, 0.2]))),
    (IndexError, "qubit", lambda: qperceptron.excitation_probability(_reg(), -1)),
    (IndexError, "condition qubit", lambda: qperceptron.conditional_probability(
        _reg(), [4], [1], 0)),
    # integers and counts: _io.as_index and the range check after it
    (ValueError, "source", lambda: qperceptron.PerceptronGateSpec(0, {1.5: 1.0})),
    (ValueError, "n_points", lambda: qperceptron.average_fidelity(_ramp(), 10.0, 2.5)),
    (ValueError, "n_points", lambda: qperceptron.benchmark_ramps([1.0, 2.0, 3.0, 4.0], n_points=2.5)),
    (ValueError, "n", lambda: qperceptron.adiabatic_diagnostics(_ramp(), 1.0, n=2.5)),
    (ValueError, "n", lambda: qperceptron.adiabatic_diagnostics(_ramp(), 1.0, n=0)),
    (ValueError, "seed", lambda: qperceptron.TrainConfig(seed=-5)),
    (ValueError, "n_qubits", lambda: qperceptron.QuantumRegister(2.0, _reg().amplitudes)),
    (ValueError, "n_qubits", lambda: qperceptron.init_basis(2.0, "00")),
    (ValueError, "n_qubits", lambda: qperceptron.QuantumRegister("2", _reg().amplitudes)),
    # amplitudes: register._check, with the norm read by vdot
    (ValueError, "register amplitudes", lambda: qperceptron.QuantumRegister(1, [_NAN, 0.0])),
    (ValueError, "register amplitudes", lambda: qperceptron.QuantumRegister(1, [_INF, 0.0])),
    (ValueError, "register norm-squared", lambda: qperceptron.QuantumRegister(
        1, [math.sqrt(1.0 + 2e-10), 0.0])),
    # activation kinds: activation._check_kind
    (ValueError, "activation", lambda: qperceptron.NetworkSpec(
        2, (1,), _net().mask, _net().J, _net().b, activation="algebraic")),
    (ValueError, "activation", lambda: qperceptron.PerceptronGateSpec(
        1, {0: 1.0}, activation="logistic")),
    (ValueError, "activation", lambda: qperceptron.CompositionSpec(((1.0, 0.0, 1),), "step")),
    (ValueError, "kind", lambda: qperceptron.eval_f("algebraic", 0.3)),
    # benchmark grids: the fit's minimum of 4 points, 1-D and finite
    (ValueError, "tf_grid", lambda: _benchmark([1.0, 30.0, 100.0])),
    (ValueError, "tf_grid", lambda: _benchmark(5.0)),
    (ValueError, "tf_grid", lambda: _benchmark([[1.0, 2.0], [3.0, 4.0]])),
    (ValueError, "tf_grid", lambda: _benchmark([1.0, 2.0, _NAN, 4.0])),
    (ValueError, "tf_grid", lambda: _benchmark([1.0, 2.0, 3.0, _INF])),
    (ValueError, "tf_grid", lambda: _benchmark([1.0, 3.0, 2.0, 4.0])),
    # adiabatic parameter: finite arguments and an open gap
    (ValueError, "x", lambda: qperceptron.adiabatic_mu(_ramp(), _NAN, 1.0)),
    (ValueError, "t", lambda: qperceptron.adiabatic_mu(_ramp(), 1.0, [0.0, _INF])),
    (ValueError, "Omega(t) = x = 0", lambda: qperceptron.adiabatic_mu(
        qperceptron.linear_schedule(10.0, 0.0, 5.0), 0.0, 5.0)),
    (ValueError, "Omega(t) = x = 0", lambda: qperceptron.adiabatic_diagnostics(
        qperceptron.tabulated_schedule([0.0, 1.0, 2.0], [2.0, 1.0, 0.0]), 0.0, 5)),
    # a bool is no number: _io.as_index and _io.require_finite
    (ValueError, "n_qubits", lambda: qperceptron.init_basis(True, "0")),
    (ValueError, "max_iters", lambda: qperceptron.TrainConfig(max_iters=True)),
    (ValueError, "omega0", lambda: qperceptron.linear_schedule(True, 1.0, 1.0)),
    (ValueError, "x", lambda: qperceptron.eigensystem(1.0, np.bool_(True))),
    # a built schedule's time: _io.require_finite
    (ValueError, "t", lambda: _ramp().omega("a")),
    (ValueError, "t", lambda: _ramp().omega(_NAN)),
    (ValueError, "t", lambda: _ramp().domega([0.0, _INF])),
    # network shapes
    (ValueError, "hidden_sizes", lambda: qperceptron.layered_network(2, 3)),
    (ValueError, "hidden_sizes", lambda: qperceptron.layered_network(2, None)),
    (ValueError, "hidden_sizes", lambda: qperceptron.layered_network(2, 2.0)),
    # argument types: _io.require_type, where an attribute of a wrong type failed
    (ValueError, "gate", lambda: qperceptron.apply_ideal_perceptron(_reg(), "g")),
    (ValueError, "reg", lambda: qperceptron.apply_ideal_perceptron(
        _reg().amplitudes, qperceptron.PerceptronGateSpec(1, {0: 1.0}))),
    (ValueError, "spec", lambda: qperceptron.apply_composition(_reg(), "x", 1, {0: 1.0})),
    (ValueError, "reg", lambda: qperceptron.apply_composition("r", _SPEC, 1, {0: 1.0})),
    (ValueError, "reg", lambda: qperceptron.apply_hardware_perceptron(
        "r", _ramp(), qperceptron.PerceptronGateSpec(1, {0: 1.0}))),
    (ValueError, "net", lambda: qperceptron.forward("net", "00")),
    (ValueError, "net", lambda: qperceptron.batch_state_forward("net", qperceptron.prime_dataset(2))),
    (ValueError, "net", lambda: qperceptron.cross_entropy_cost(
        "net", qperceptron.prime_dataset(2), _ramp())),
    (ValueError, "points", lambda: Sampled([(0.1,)])),
    (ValueError, "reg", lambda: qperceptron.excitation_probability("r", 0)),
    (ValueError, "reg", lambda: qperceptron.conditional_probability("r", [0], [1], 1)),
    (ValueError, "net", lambda: qperceptron.classical_mixture_oracle("net", "00")),
    (ValueError, "net", lambda: qperceptron.protocol_duration("net", _ramp())),
    (ValueError, "net", lambda: qperceptron.network_to_json("net")),
    (ValueError, "dataset", lambda: qperceptron.cross_entropy_cost(_net(), "d")),
    (ValueError, "dataset", lambda: qperceptron.cost_gradient(_net(), "d")),
    (ValueError, "net", lambda: qperceptron.cost_gradient("net", qperceptron.prime_dataset(2))),
    (ValueError, "dataset", lambda: qperceptron.batch_state_forward(_net(), "d")),
    (ValueError, "dataset", lambda: qperceptron.dataset_to_csv("d", io.StringIO())),
    (ValueError, "dataset", lambda: qperceptron.train(_net(), "d", qperceptron.TrainConfig())),
    (ValueError, "net0", lambda: qperceptron.train(
        "net", qperceptron.prime_dataset(2), qperceptron.TrainConfig())),
    (ValueError, "config", lambda: qperceptron.train(_net(), qperceptron.prime_dataset(2), "c")),
    (ValueError, "report", lambda: report_to_csv("r", io.StringIO())),
    (ValueError, "report", lambda: qperceptron.fit_constants_json("r")),
    (ValueError, "report", lambda: qperceptron.report_to_json("r")),
    (ValueError, "result", lambda: composition_to_csv(
        "r", Rectangle(0, 2), [0.0], io.StringIO())),
    (ValueError, "spec", lambda: qperceptron.composition_angle("s", 0.0)),
    (ValueError, "rect", lambda: analytic_rectangle("r", 2.0)),
    (ValueError, "base", lambda: qperceptron.perturbed_schedule("b", 0.1)),
    # malformed rows, where a tuple unpack failed
    (ValueError, "pairs", lambda: qperceptron.Dataset(2, [("01",)])),
    (ValueError, "pairs", lambda: qperceptron.Dataset(2, ["01"])),
    (ValueError, "classical", lambda: qperceptron.build_universal_approximator(
        ([1.0], [[1.0]]), 0.1)),
    # a str of the row's width is no row, and an empty table is refused by name: _io.require_rows
    (ValueError, "points", lambda: Sampled(["ab"])),
    (ValueError, "cycles", lambda: qperceptron.CompositionSpec(["abc"])),
    (ValueError, "classical", lambda: qperceptron.build_universal_approximator("abc", 0.1)),
    (ValueError, "points", lambda: Sampled(())),
    (ValueError, "cycles", lambda: qperceptron.CompositionSpec(())),
    (ValueError, "pairs", lambda: qperceptron.Dataset(2, ())),
    # a schedule read through dynamics._validate_schedule, as forward reads it
    (ValueError, "invalid schedule:", lambda: qperceptron.protocol_duration(_net(), "s")),
], ids=["linear", "linear_str", "linear_huge_int", "linear_complex", "faquad", "perturbed", "design_field", "table_ts", "table_omegas",
        "eigensystem_nan", "eigensystem_inf", "eigensystem_x", "eigensystem_str",
        "eigensystem_ragged", "constant_mu",
        "activation",
        "propagators", "response", "network_J", "network_b", "rectangle", "peak", "sampled",
        "composition", "composition_angle", "synthesize", "readout_p", "readout_lambda",
        "readout_lambda_str", "approximator_lambda_str", "approximator_lambda_inf",
        "propagators_str", "response_str", "composition_angle_str", "synthesize_str",
        "sampled_str", "composition_str", "target_str", "dataset_label_str", "network_J_str",
        "composition_csv_str", "fidelity_x_max_str", "rectangle_steepness_inf",
        "rectangle_steepness_str", "composition_source_nan", "peak_width_squares_to_0",
        "peak_width_square_overflows", "composition_cycle_pair", "gate_weights_list",
        "composition_sources_list", "composition_source_array", "approximator_alpha_nan",
        "approximator_w_inf",
        "forward_short", "forward_char", "oracle", "basis_short", "basis_char", "dataset",
        "composition_target", "composition_source", "gate_target", "gate_source", "gate_weight",
        "gate_bias", "gate_weight_array", "gate_weight_ragged", "gate_bias_array", "probability",
        "conditional",
        "gate_source_float", "fidelity_points", "benchmark_points", "diagnostics_float",
        "diagnostics_zero", "train_seed", "register_float", "basis_float", "register_str",
        "register_nan", "register_inf", "register_norm",
        "network_activation", "gate_activation",
        "composition_activation", "activation_kind", "benchmark_3_points", "benchmark_scalar",
        "benchmark_2d", "benchmark_nan", "benchmark_inf", "benchmark_unsorted", "mu_x", "mu_t",
        "mu_closed_gap", "diagnostics_closed_gap", "basis_bool", "train_iters_bool", "linear_bool",
        "eigensystem_numpy_bool", "omega_str", "omega_nan", "domega_inf", "hidden_int",
        "hidden_none", "hidden_float", "ideal_gate_str", "ideal_reg_array", "composition_spec_str",
        "composition_reg_str", "hardware_reg_str", "forward_net_str", "batch_net_str",
        "hardware_cost_net_str", "sampled_point_short", "probability_reg_str",
        "conditional_reg_str", "oracle_net_str", "duration_net_str", "network_json_net_str",
        "cost_dataset_str", "gradient_dataset_str", "gradient_net_str", "batch_dataset_str",
        "dataset_csv_str", "train_dataset_str", "train_net_str", "train_config_str",
        "report_csv_str", "fit_json_str", "train_json_str", "composition_csv_result_str",
        "composition_angle_spec_str", "rectangle_rect_str", "perturbed_base_str",
        "dataset_pair_short", "dataset_pair_str", "approximator_classical_pair",
        "sampled_point_str", "composition_cycle_str", "approximator_classical_str",
        "sampled_empty", "composition_empty", "dataset_empty", "duration_schedule_str"])
def test_bad_argument_is_refused_by_name(error, name, call):
    # warnings are errors: a bad count once gave nan and two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as err:
            call()
    assert err.type is error
    assert str(err.value).startswith(f"{name} "), str(err.value)


@pytest.mark.parametrize("call, row", [
    (lambda: Sampled([(0.0, 0.1), "ab", (1.0,)]), "'ab'"),
    (lambda: qperceptron.CompositionSpec([(1.0, 0.0, 1), (1.0, 0.0), "abc"]), "(1.0, 0.0)"),
    (lambda: qperceptron.Dataset(2, [("01", 1.0), "10", ("11",)]), "'10'"),
], ids=["sampled", "composition", "dataset"])
def test_rows_refusal_quotes_the_first_bad_row_only(call, row):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value).endswith(f"values, got row {row}"), str(err.value)


def test_reals_held_as_objects_or_bools_are_read():
    # numpy holds a list with an int past int64 as objects, each a real; a
    # bool array holds 0s and 1s: both read as floats, past float range as no finite one
    table = qperceptron.tabulated_schedule([0, 2**64], [1.0, 0.0])
    assert table.tf == 2.0**64 and table.samples[0].dtype == float
    assert qperceptron.eigensystem(1, [2**64]).theta_bloch.tolist() == [math.pi]
    net = _net()
    spec = qperceptron.NetworkSpec(2, net.layer_sizes, net.mask.astype(bool), net.J, net.b)
    assert spec.mask.dtype == float and np.array_equal(spec.mask, net.mask)
    with pytest.raises(ValueError, match=r"^ts must be finite$"):
        qperceptron.tabulated_schedule([0, 10**400], [1.0, 0.0])


class TestReadRows:
    def test_returns_typed_tuples(self):
        rows = read_rows(io.StringIO("a, b ,c\n1,01,2.5\n\n  \n3, 10 ,-0.0\n"), "a,b,c", int, str, float)
        assert rows == [(1, "01", 2.5), (3, "10", -0.0)]
        assert math.copysign(1.0, rows[1][2]) == -1.0

    def test_header_only_gives_no_rows(self):
        assert read_rows(io.StringIO("x,y\n"), "x,y", float, float) == []

    @pytest.mark.parametrize("text, message", [
        ("", "^expected header 'x,y', got an empty file$"),
        ("x,z\n1,2\n", "^expected header 'x,y', got 'x,z'$"),
        ("x,y\n1,2\n3\n", "^line 3: expected 2 fields, got 1$"),
        ("x,y\n\n1,2,\n", "^line 3: expected 2 fields, got 3$"),
        ("x,y\n1,2\nnope,2\n", "^line 3: could not convert string to float: 'nope'$"),
        ("x,y\n1,\n", "^line 2: could not convert string to float: ''$"),
    ], ids=["empty", "header", "short_row", "long_row", "not_a_number", "empty_field"])
    def test_errors_name_the_cause(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_rows(io.StringIO(text), "x,y", float, float)

    def test_writes_str_fields_as_is_and_lf_ends(self):
        buf = io.StringIO()
        write_rows(buf, "k,v", [("0110", 1), ("1", np.float64(-0.0))])
        assert buf.getvalue() == "k,v\n0110,1.0\n1,-0.0\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text("01", min_size=1, max_size=12),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False))))
@example([("0", v, -v) for v in EDGES])
def test_write_then_read_is_bitwise(rows):
    buf = io.StringIO()
    write_rows(buf, "bits,a,b", rows)
    buf.seek(0)
    back = read_rows(buf, "bits,a,b", str, float, float)
    assert [r[0] for r in back] == [r[0] for r in rows]
    for k in (1, 2):
        assert bits([r[k] for r in back]) == bits([r[k] for r in rows])


def read_back(writer, args, header, *types):
    buf = io.StringIO()
    writer(*args, buf)
    buf.seek(0)
    return read_rows(buf, header, *types)


class TestWriteOnlyFormatsReadBack:
    """Each write-only CSV reads back bitwise through the shared reader."""

    def test_response(self):
        curve = response_curve(faquad_schedule(100.0, 1.0, 10.0, 1.272), np.linspace(-4, 4, 9))
        pairs = list(curve) + [(-0.0, 5e-324), (MAX, -MAX)]
        back = read_back(response_to_csv, (pairs,), "x,p_excite,g_ideal", float, float, float)
        want = [(x, p, qperceptron.eval_f(qperceptron.ALGEBRAIC, x)) for x, p in pairs]
        assert bits(np.ravel(back)) == bits(np.ravel(want))

    def test_report(self):
        tf = np.array([1.0, 2.5, 7.0, 30.0])
        lin = np.array([0.25, 1 / 3, -0.0, 5e-324])
        faq = np.array([MAX, 0.1, 1e-9, 2.2250738585072014e-308])
        report = FidelityReport(tf, lin, faq, 1.5, 0.25, 1 / 3)
        back = read_back(report_to_csv, (report,), "tf,infid_linear,infid_faquad",
                         float, float, float)
        assert bits(np.ravel(back)) == bits(np.column_stack([tf, lin, faq]).ravel())

    def test_composition(self):
        rect = Rectangle(0.0, 2.0)
        spec = analytic_rectangle(rect, 6.0)
        x = np.linspace(-1.0, 3.0, 41)
        back = read_back(composition_to_csv, (SynthesisResult(spec, 0.0, True), rect, x),
                         "x,target_angle,fitted_angle,fitted_excitation",
                         float, float, float, float)
        ang = composition_angle(spec, x)
        written = np.column_stack([x, target_angle(rect, x), ang, np.sin(ang) ** 2])
        assert bits(np.ravel(back)) == bits(written.ravel())


def _text(n):
    """n bytes of LF-terminated ASCII lines."""
    return ("0123456789abcde\n" * (n // 16 + 1))[:n]


class TestWriteInPlace:
    """A path opened for writing is written over in place and then cut to the
    bytes written, never truncated first: on ext4 mounted with discard, an
    O_TRUNC open of a file whose blocks are written took 50-100 ms."""

    @given(old=st.none() | st.integers(0, 9000), new=st.integers(0, 9000))
    @example(old=None, new=0)
    @example(old=0, new=0)
    @example(old=4097, new=4096)
    @example(old=4096, new=4097)
    @example(old=9000, new=1)
    @example(old=1, new=9000)
    def test_file_holds_exactly_the_new_bytes(self, old, new):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "out.txt"
            if old is not None:
                path.write_bytes(b"o" * old)
            with open_text(path, "w") as fh:
                fh.write(_text(new))
            assert path.read_bytes() == _text(new).encode()

    def test_links_stay_links_and_their_target_is_written(self, tmp_path):
        target, soft, hard = tmp_path / "target.csv", tmp_path / "soft.csv", tmp_path / "hard.csv"
        target.write_text(_text(9000))
        soft.symlink_to(target)
        os.link(target, hard)
        write_rows(soft, "x", [(1.0,)])
        assert soft.is_symlink() and os.path.samefile(target, hard)
        assert target.read_bytes() == hard.read_bytes() == b"x\n1.0\n"

    def test_permissions_are_kept(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text(_text(5000))
        path.chmod(0o640)
        write_rows(path, "x", [(1.0,)])
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_bytes() == b"x\n1.0\n"

    def test_dev_null_is_written(self):
        write_rows(os.devnull, "x", [(float(k),) for k in range(2000)])
        with open_text(pathlib.Path(os.devnull), "w") as fh:
            fh.write(_text(9000))

    def test_an_error_mid_write_leaves_the_bytes_written_before_it(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text(_text(9000))
        with pytest.raises(TypeError):
            write_rows(path, "x", [(1.0,), (2.0,), (object(),)])
        assert path.read_bytes() == b"x\n1.0\n2.0\n"

    def test_no_writer_opens_an_existing_path_truncating(self, tmp_path):
        truncating = []
        builtin_open, os_open = open, os.open

        def guarded_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, bytes, os.PathLike)) and "w" in mode and os.path.exists(file):
                truncating.append((pathlib.Path(file).name, mode))
            return builtin_open(file, mode, *args, **kwargs)

        def guarded_os_open(path, flags, *args, **kwargs):
            if flags & os.O_TRUNC and os.path.exists(path):
                truncating.append((pathlib.Path(path).name, "O_TRUNC"))
            return os_open(path, flags, *args, **kwargs)

        rect = Rectangle(0.0, 2.0)
        ramp = faquad_schedule(100.0, 1.0, 10.0, 1.272)
        report = FidelityReport(np.array([1.0, 2.0]), np.array([0.5, 0.25]),
                                np.array([0.25, 0.125]), 1.0, 0.5, 0.25)
        result = SynthesisResult(analytic_rectangle(rect, 6.0), 0.0, True)
        writers = {
            "schedule_to_csv": lambda out: schedule_to_csv(ramp, out),
            "response_to_csv": lambda out: response_to_csv([(0.0, 0.5), (1.0, 0.75)], out),
            "report_to_csv": lambda out: report_to_csv(report, out),
            "composition_to_csv": lambda out: composition_to_csv(result, rect, [0.0, 1.0], out),
            "dataset_to_csv": lambda out: qperceptron.dataset_to_csv(qperceptron.prime_dataset(2), out),
        }
        assert set(writers) == {name for name in dir(qperceptron) if name.endswith("_to_csv")}
        cli = {
            "response": ["--points", "5", "--xmax", "1"],
            "benchmark": ["--tf-min", "1", "--tf-max", "2", "--tf-points", "4"],
            "train": ["--bits", "2", "--hidden", "1", "--iters", "5", "--restarts", "0"],
            "synthesize": ["--cycles", "1"],
        }
        for name in [*writers, *cli]:
            (tmp_path / name).write_text(_text(50_000))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_io, "open", guarded_open, raising=False)
            mp.setattr(os, "open", guarded_os_open)
            for name, write in writers.items():
                write(tmp_path / name)
            for name, flags in cli.items():
                assert main([name, *flags, "--out", str(tmp_path / name)]) == 0
        assert truncating == []
        for name, write in writers.items():  # each written over holds the fresh bytes alone
            buf = io.StringIO()
            write(buf)
            assert (tmp_path / name).read_text(encoding="utf-8") == buf.getvalue()
        for name, flags in cli.items():
            assert main([name, *flags, "--out", str(tmp_path / f"{name}.fresh")]) == 0
            assert (tmp_path / name).read_bytes() == (tmp_path / f"{name}.fresh").read_bytes()
