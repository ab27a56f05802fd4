"""The artifact writer, `graph.write_in_place`: every edge list, CSV and JSON
artifact is rewritten in place and cut at the end of what was written, so
its bytes, paths and links are those of a fresh write."""

import ast
import dataclasses
import functools
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import percolab
from percolab import cli, experiment, graph
from percolab.experiment import SweepConfig, emit_csv, run_sweep, write_json
from percolab.graph import GeneratorSpec, generate, save_edge_list, write_in_place

SRC = Path(graph.__file__).parent
GEN = "gnp:n=50,p=0.1,seed=1"


@functools.lru_cache(maxsize=None)
def host(long):
    return generate(GeneratorSpec(kind="gnp", n=60 if long else 8, p=0.2, seed=1))


@functools.lru_cache(maxsize=None)
def sweep(long):
    return run_sweep(SweepConfig(source=host(True), p=0.2, rho_grid=[0.5, 1.5],
                                 seeds=(0, 6 if long else 1)))


# each writer, with a long and a short artifact
WRITERS = {
    "json": lambda path, long: write_json({"text": "x" * (400 if long else 4)}, path),
    "csv": lambda path, long: emit_csv(sweep(long), path),
    "edges": lambda path, long: save_edge_list(host(long), path),
}


@pytest.mark.parametrize("name", WRITERS)
def test_a_rewrite_leaves_exactly_the_new_bytes(name, tmp_path):
    write = WRITERS[name]
    write(tmp_path / "fresh", False)
    write(tmp_path / "again", True)
    write(tmp_path / "again", False)
    write(tmp_path / "long", True)
    fresh = (tmp_path / "fresh").read_bytes()
    assert (tmp_path / "again").read_bytes() == fresh
    assert len(fresh) < len((tmp_path / "long").read_bytes())
    if name == "json":
        # the short JSON ends at its own newline, with no tail of the long one
        assert fresh.endswith(b"}\n") and json.loads(fresh)["text"] == "xxxx"
    # created with the mode open(path, "w") gives: 0o666 less the umask
    with open(tmp_path / "by-open", "w"):
        pass
    assert (tmp_path / "fresh").stat().st_mode == (tmp_path / "by-open").stat().st_mode


def out_args(name, out):
    """The CLI command whose --out goes through the writer `name`."""
    return {"json": ["certify", "--gen", GEN, "--p", "0.1", "--out", out],
            "csv": ["sweep", "--gen", GEN, "--p", "0.1", "--grid", "1", "--seeds", "0:2",
                    "--out", out],
            "edges": ["generate", "--gen", GEN, "--out", out]}[name]


@pytest.mark.parametrize("name", WRITERS)
def test_a_symlinked_out_is_written_through(name, tmp_path, capsys):
    # the sweep's CSV is its --out plus ".csv"
    suffix = ".csv" if name == "csv" else ""
    assert cli.main(out_args(name, str(tmp_path / "plain"))) == 0
    target = tmp_path / "target"
    target.write_bytes(b"old bytes, longer than nothing\n" * 1000)
    (tmp_path / f"link{suffix}").symlink_to(target)
    assert cli.main(out_args(name, str(tmp_path / "link"))) == 0
    assert (tmp_path / f"link{suffix}").is_symlink()
    assert target.read_bytes() == (tmp_path / f"plain{suffix}").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("name", ["json", "edges"])
def test_out_dev_null_exits_0(name, capsys):
    assert cli.main(out_args(name, os.devnull)) == 0
    capsys.readouterr()


def test_emit_csv_to_dev_null():
    # sweep adds ".csv" to its --out, so the CSV writer meets /dev/null here
    emit_csv(sweep(False), os.devnull)


def test_out_dev_stdout_writes_the_json(tmp_path):
    # /dev/stdout is a pipe here, which the writer does not cut
    src = os.path.dirname(os.path.dirname(percolab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "percolab.cli", "certify", "--gen", GEN,
                           "--p", "0.1", "--out", "/dev/stdout"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    write_json(json.loads(done.stdout), tmp_path / "file.json")
    assert done.stdout == (tmp_path / "file.json").read_text()


class Unprintable(float):
    def __repr__(self):
        raise RuntimeError("unprintable")


class WritesHalf:
    """A file whose writes stop half way with a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


def raise_part_way(name, monkeypatch):
    """The writer `name` of the long artifact, made to raise after it has
    written a part of it."""
    if name == "csv":
        rows = sweep(True).rows
        bad = dataclasses.replace(rows[1], c=Unprintable(rows[1].c))
        return lambda path: emit_csv(dataclasses.replace(sweep(True), rows=[rows[0], bad]), path)
    if name == "json":
        @contextmanager
        def half(path, *args, **kwargs):
            with write_in_place(path, *args, **kwargs) as fh:
                yield WritesHalf(fh)
        monkeypatch.setattr(experiment, "write_in_place", half)
    else:
        # ranges of 8 neighbor entries, the first of which is written
        monkeypatch.setattr(graph, "_CODEGREE_CHUNK_KEYS", 64)
        chunks = graph._chunks

        def first_chunk(before, share=1):
            yield next(chunks(before, share))
            raise RuntimeError("part way")
        monkeypatch.setattr(graph, "_chunks", first_chunk)
    return lambda path: WRITERS[name](path, True)


@pytest.mark.parametrize("name", WRITERS)
def test_a_raise_part_way_leaves_no_old_bytes_after_it(name, tmp_path, monkeypatch):
    WRITERS[name](tmp_path / "whole", True)
    whole = (tmp_path / "whole").read_bytes()
    path = tmp_path / "out"
    path.write_bytes(b"~" * (2 * len(whole)))
    write = raise_part_way(name, monkeypatch)
    with pytest.raises((OSError, RuntimeError)):
        write(path)
    written = path.read_bytes()
    assert 0 < len(written) < len(whole) and whole.startswith(written)


def test_no_writer_opens_with_o_trunc(tmp_path, monkeypatch):
    sweep(False)  # the sweep's own work opens no file, but runs before the spy
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)
    monkeypatch.setattr(os, "open", spy)
    for name, write in WRITERS.items():
        write(tmp_path / name, False)
    assert len(flags) == len(WRITERS)
    assert all(f & os.O_WRONLY and f & os.O_CREAT and not f & os.O_TRUNC for f in flags)


def writes(call):
    """Whether a call may open a file for writing: os.open, Path.write_text
    or write_bytes, or open, io.open or an .open method whose mode (its
    second argument or `mode=`) is not a string constant free of 'w', 'a',
    'x' and '+'."""
    name = ast.unparse(call.func)
    if name == "os.open" or name.endswith((".write_text", ".write_bytes")):
        return True
    if name != "open" and not name.endswith(".open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def write_opens(tree, where=""):
    """(innermost enclosing function name, line) of every call in tree that
    may open a file for writing."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and writes(node):
            yield where, node.lineno
        inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from write_opens(node, node.name if inner else where)


def test_only_the_writer_opens_files_for_writing():
    for text, found in [('open(p, "w")', 1), ('open(p, "rb")', 0), ("open(p)", 0),
                        ('open(p, mode="a")', 1), ("open(fd, mode)", 1),
                        ("p.write_text(s)", 1), ("os.open(p, flags)", 1)]:
        assert len(list(write_opens(ast.parse(text)))) == found, text
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for where, line in write_opens(ast.parse(path.read_text(), str(path))):
            sites.setdefault((path.name, where), []).append(line)
    assert set(sites) == {("graph.py", "write_in_place")}, sites
