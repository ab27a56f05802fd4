"""The error taxonomy: six classes, and every raise in the library names one;
and the parameter gates, which only `errors` defines."""

import ast
import builtins
import importlib
import inspect
from pathlib import Path

import numpy as np

from percolab import (GeneratorSpec, certify, errors, estimate_slacks, expansion_check, generate,
                      supercritical_trial)
from percolab.errors import NonSimple, ParseError, PercolabError
from percolab.experiment import write_json

SRC = Path(errors.__file__).parent
TAXONOMY = {"PercolabError", "InvalidParameter", "ResourceLimit", "ParseError", "NonSimple",
            "NotCertified"}


def error_classes():
    return {name: obj for name, obj in vars(errors).items()
            if inspect.isclass(obj) and obj.__module__ == errors.__name__}


def test_errors_defines_exactly_the_six_classes():
    classes = error_classes()
    assert set(classes) == TAXONOMY
    assert all(issubclass(cls, PercolabError) for cls in classes.values())


def test_non_simple_is_a_sibling_of_parse_error():
    # a subclass would let pytest.raises(ParseError) accept NonSimple too
    assert not issubclass(NonSimple, ParseError) and not issubclass(ParseError, NonSimple)
    assert ParseError(3, "x").line_no == NonSimple(3, "x").line_no == 3


# (file, function, name) of each `raise <name>`: it raises an error built
# elsewhere, so the tests of its function pin the classes it carries (the
# loader's recorded bad line: test_load_rejects_bad_lines and
# test_first_bad_line_wins_wherever_the_blocks_are_cut in test_graph.py)
RERAISES = [("graph.py", "load_edge_list", "error")]


def raises(tree, where=""):
    """(innermost enclosing function name, node) of every raise in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Raise):
            yield where, node
        inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from raises(node, node.name if inner else where)


def test_every_raise_names_a_percolab_error():
    # `raise f(...)` for a function f counts by f's return annotation
    allowed = set(error_classes().values())
    reraises = []
    total = checked = 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"percolab.{path.stem}".removesuffix(".__init__"))
        tree = ast.parse(path.read_text(), str(path))
        total += sum(isinstance(node, ast.Raise) for node in ast.walk(tree))
        for where, node in raises(tree):
            if isinstance(node.exc, ast.Name):
                reraises.append((path.name, where, node.exc.id))
                continue
            assert isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name), \
                f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            name = node.exc.func.id
            target = getattr(module, name, getattr(builtins, name, None))
            if inspect.isfunction(target):
                target = inspect.signature(target).return_annotation
            assert target in allowed, f"{path.name}:{node.lineno} raises {name}"
            checked += 1
    assert reraises == RERAISES
    assert checked + len(reraises) == total


# the number types whose isinstance test decides what an integer or a real is
NUMBER_TYPES = {"int", "bool", "float", "np.integer", "np.floating", "numpy.integer",
                "numpy.floating", "numbers.Integral", "numbers.Real", "Integral", "Real"}


def number_type_tests(path):
    """The number types named in the isinstance calls of a source file, and
    its other number-type tests: each `.dtype.kind` read and each
    `np.issubdtype` call."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            types = node.args[1]
            for t in types.elts if isinstance(types, ast.Tuple) else [types]:
                if ast.unparse(t) in NUMBER_TYPES:
                    yield node.lineno, ast.unparse(t)
        elif (isinstance(node, ast.Attribute) and node.attr == "kind"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"):
            yield node.lineno, ast.unparse(node)
        elif (isinstance(node, ast.Call)
                and ast.unparse(node.func) in {"np.issubdtype", "numpy.issubdtype"}):
            yield node.lineno, ast.unparse(node.func)


def test_only_errors_decides_what_a_number_is():
    assert {t for _, t in number_type_tests(SRC / "errors.py")} >= {"bool", "numbers.Integral",
                                                                     "numbers.Real"}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            found = list(number_type_tests(path))
            assert not found, f"{path.name} tests number types at {found}"


def test_numpy_numbers_give_the_artifacts_of_python_numbers(tmp_path):
    # each pair used to fail on its numpy side when its JSON was written
    g = generate(GeneratorSpec(kind="gnp", n=200, p=0.1, seed=4))
    prof = certify(g, 0.1, *estimate_slacks(g, 0.1))
    pairs = {
        "trial": [supercritical_trial(g, 0.1, 0.3, seeds=(base, 3)).to_dict()
                  for base in (np.int64(5), 5)],
        "lemma": [expansion_check(g, prof, m=m, alpha0=0.5).to_dict() for m in (np.int64(2), 2)],
        "profile": [certify(g, p, prof.a_n, prof.b_n).to_dict()
                    for p in (np.float32(0.1), float(np.float32(0.1)))],
    }
    for name, (numpy_side, python_side) in pairs.items():
        write_json(numpy_side, tmp_path / f"{name}-numpy.json")
        write_json(python_side, tmp_path / f"{name}-python.json")
        assert ((tmp_path / f"{name}-numpy.json").read_bytes()
                == (tmp_path / f"{name}-python.json").read_bytes()), name
