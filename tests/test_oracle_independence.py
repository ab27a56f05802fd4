"""The union-find oracle stays independent of the code it checks.

`dfs_percolate` and `oracle_components` both read rows through
`graph.adjacency_rows`; beyond that shared gather, neither may reach the
other, or the oracle would check the engine against itself. The walk reads
only each row's neighbors above its vertex, from `Graph.above`; the oracle
reads whole rows.
"""

import ast
import inspect
import textwrap

from percolab import graph, percolate


def named_functions(fn):
    """(names, callees): every identifier fn's source names, and the percolab
    functions among them, resolved in fn's module. A percolab class stands
    for the functions written on it, its properties' getters included (not
    the functions its decorators generate)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    callees = set()
    for name in names:
        target = fn.__globals__.get(name)
        if not getattr(target, "__module__", "").startswith("percolab"):
            continue
        if inspect.isfunction(target):
            callees.add(target)
        elif inspect.isclass(target):
            members = (getattr(f, "fget", getattr(f, "func", f)) for f in vars(target).values())
            callees.update(f for f in members if inspect.isfunction(f)
                           and f.__code__.co_filename == inspect.getfile(target))
    return names, callees


def keywords(fn):
    """(callee, keyword, value source) of every keyword argument that fn's
    source passes, the callee named by its last name or attribute."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {(getattr(call.func, "id", getattr(call.func, "attr", None)), kw.arg,
             ast.unparse(kw.value))
            for call in ast.walk(tree) if isinstance(call, ast.Call) for kw in call.keywords}


def reachable(fn):
    seen, todo = set(), [fn]
    while todo:
        f = todo.pop()
        if f not in seen:
            seen.add(f)
            todo.extend(named_functions(f)[1])
    return seen


def test_nothing_reachable_from_dfs_percolate_names_the_oracle():
    reached = reachable(percolate.dfs_percolate)
    # the walk does see the engine's label search, the shared gather and
    # the fields the outcome builds on first read
    assert {percolate._least_labels, graph.adjacency_rows,
            percolate.PercolationOutcome.epochs.func} <= reached
    for f in reached:
        assert "oracle_components" not in named_functions(f)[0], f.__qualname__


def test_oracle_calls_no_percolate_helper():
    _, callees = named_functions(percolate.oracle_components)
    assert graph.adjacency_rows in callees
    assert not {f for f in callees if f.__module__ == percolate.__name__}


def test_only_the_walk_gathers_the_rows_above_each_vertex():
    """The oracle reads whole rows and keeps u < v itself, so a wrong split
    point `g.above` is caught by it instead of being shared with it."""
    names, _ = named_functions(percolate.oracle_components)
    assert "above" not in names
    assert not {k for k in keywords(percolate.oracle_components) if k[1] == "above"}
    assert ("adjacency_rows", "above", "True") in keywords(percolate._Walk._gather)
