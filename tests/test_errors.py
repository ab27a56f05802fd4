"""The error taxonomy: six classes, and every raise in the library names one."""

import ast
import builtins
import importlib
import inspect
from pathlib import Path

from percolab import errors
from percolab.errors import NonSimple, ParseError, PercolabError

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


def test_every_raise_names_a_percolab_error():
    # `raise f(...)` for a function f counts by f's return annotation
    allowed = set(error_classes().values())
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"percolab.{path.stem}".removesuffix(".__init__"))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                continue
            name = node.exc.func.id
            target = getattr(module, name, getattr(builtins, name, None))
            if inspect.isfunction(target):
                target = inspect.signature(target).return_annotation
            assert target in allowed, f"{path.name}:{node.lineno} raises {name}"
            checked += 1
    assert checked > 50
