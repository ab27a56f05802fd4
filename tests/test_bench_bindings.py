"""The benchmark under perfbench/ binds library names that its own files may
not change with: the functions its tracer wraps, the arguments its counters
read, and the keywords its workloads pass. A rename in the library must fail
here rather than in a benchmark run.

perfbench/spans.py is imported without installing the tracer, and
perfbench/workloads.py is only parsed.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import percolab
from percolab import experiment, rng

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the arguments each span name or counter in spans.TARGETS reads from a call
COUNTER_ARGS = {
    "generate": {"spec"},
    "load_edge_list": {"path"},
    "save_edge_list": {"path"},
    "max_co_degree": {"g", "sample_pairs"},
    "dfs_percolate": {"g"},
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_callable():
    targets = _spans().TARGETS
    assert targets
    for module, fname, _name, _counter in targets:
        assert callable(getattr(module, fname, None)), f"{module.__name__}.{fname}"


def test_counter_arguments_are_parameters():
    functions = {fname: getattr(module, fname) for module, fname, _, _ in _spans().TARGETS}
    assert set(COUNTER_ARGS) <= set(functions)
    for fname, args in COUNTER_ARGS.items():
        assert args <= set(inspect.signature(functions[fname]).parameters), fname


def _workload_calls():
    """(label, callee, positional count, keywords) for each call in
    workloads.py through a library name; the count is None when a starred
    argument hides it."""
    names = {"P": percolab, "experiment": experiment, "rng": rng}
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in names):
            owner = names[node.func.value.id]
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield (f"{node.func.value.id}.{node.func.attr}",
                   getattr(owner, node.func.attr, None),
                   None if starred else len(node.args),
                   [k.arg for k in node.keywords if k.arg is not None])


def test_workload_calls_bind():
    calls = list(_workload_calls())
    assert len(calls) > 10
    for label, callee, positional, keywords in calls:
        assert callable(callee), label
        signature = inspect.signature(callee)
        missing = [k for k in keywords if k not in signature.parameters]
        assert not missing, f"{label} has no parameter {missing}"
        if positional is not None:
            signature.bind(*range(positional), **dict.fromkeys(keywords))


@pytest.mark.parametrize("label", ["experiment.SweepConfig", "experiment.supercritical_trial",
                                   "P.expansion_check", "P.hd_check"])
def test_workload_calls_are_found(label):
    # the parse above sees the calls whose keywords matter most
    assert label in {c[0] for c in _workload_calls()}
