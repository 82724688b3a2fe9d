"""The shared CSV writer and reader, a guard that keeps CSV rows in them, and
a guard that each module exports only what it defines."""
import ast
import importlib
import inspect
import io
import math
import pathlib
import struct
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qperceptron
from qperceptron._io import read_rows, write_rows
from qperceptron.control import faquad_schedule
from qperceptron.dynamics import FidelityReport, report_to_csv, response_curve, response_to_csv
from qperceptron.register import QuantumRegister, register_to_csv
from qperceptron.synthesis import (
    Rectangle,
    SynthesisResult,
    analytic_rectangle,
    composition_angle,
    composition_to_csv,
    target_angle,
)

PACKAGE = pathlib.Path(qperceptron.__file__).parent
MAX = 1.7976931348623157e308
EDGES = [0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, 1 / 3, 2.2250738585072014e-308]


def bits(values):
    """The IEEE-754 bytes of each value, so -0.0 and 0.0 differ."""
    return [struct.pack("<d", v) for v in values]


def io_offences(path):
    """(line, what) for each file or stream operation the module makes itself."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            found.append((node.lineno, "import csv"))
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append((node.lineno, "import csv"))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "open":
                found.append((node.lineno, "open"))
            elif name in ("readline", "readlines") and isinstance(f, ast.Attribute):
                found.append((node.lineno, ".readline"))
            elif name in ("write", "writelines") and isinstance(f, ast.Attribute):
                found.append((node.lineno, ".write"))
    return found


class TestSingleIoModule:
    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_only_io_touches_files(self, module):
        allowed = {"_io.py": {"import csv", "open", ".readline", ".write"}, "cli.py": {".write"}}
        bad = [(line, what) for line, what in io_offences(PACKAGE / module)
               if what not in allowed.get(module, set())]
        assert bad == [], f"{module} reads or writes a stream itself: {bad}"

    def test_guard_sees_each_offence(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text("import csv\nfrom csv import reader\nopen('f')\nfh.readline()\n"
                       "fh.write('x')\nio.open('f')\n")
        assert io_offences(src) == [(1, "import csv"), (2, "import csv"), (3, "open"),
                                    (4, ".readline"), (5, ".write"), (6, "open")]


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
        back = read_back(response_to_csv, (pairs,), "x,p_excite", float, float)
        assert bits(np.ravel(back)) == bits(np.ravel(pairs))

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

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_register(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        a[0] = complex(-0.0, a[0].imag)  # the sign of a zero must survive
        a /= np.linalg.norm(a)
        back = read_back(register_to_csv, (QuantumRegister(n, a),), "index,bitstring,re,im",
                         int, str, float, float)
        assert [r[0] for r in back] == list(range(1 << n))
        assert [r[1] for r in back] == [format(i, f"0{n}b") for i in range(1 << n)]
        assert bits([v for r in back for v in r[2:]]) == bits(np.column_stack([a.real, a.imag]).ravel())
