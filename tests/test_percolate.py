"""Four-set DFS percolation against independent reference implementations."""

import collections
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_graph, complete_graph, cycle_graph, edge_set, path_graph, star_graph
from percolab import (
    BernoulliStream,
    GeneratorSpec,
    binomial_stream_check,
    dfs_percolate,
    generate,
    largest_two,
    oracle_components,
)
from percolab.errors import InvalidParameter


def u01(seed, n):
    """The documented stream convention: root PCG64 stream of the seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).random(n)


def reference_percolate(g, keep):
    """Literal re-implementation of the four-set exploration.

    Sets are real sets, the T-neighbor scan recomputes from scratch every
    step, and the stack is explicit. keep[v] is vertex v's retention bit,
    read when v is queried.
    """
    in_t = set(range(g.n))
    stack = []
    retained, rejected, components, epochs = [], [], [], []
    comp, start, q = [], 0, 0
    while in_t or stack:
        if not stack:
            v = min(in_t)
            in_t.remove(v)
            q += 1
            if keep[v]:
                retained.append(v)
                stack.append(v)
                comp, start = [v], q - 1
            else:
                rejected.append(v)
        else:
            candidates = [int(w) for w in g.neighbors_of(stack[-1]) if int(w) in in_t]
            if candidates:
                w = min(candidates)
                in_t.remove(w)
                q += 1
                if keep[w]:
                    retained.append(w)
                    stack.append(w)
                    comp.append(w)
                else:
                    rejected.append(w)
            else:
                stack.pop()
                if not stack:
                    components.append(sorted(comp))
                    epochs.append((start, q - 1))
                    comp = []
    return sorted(retained), sorted(rejected), components, epochs, q


def bfs_components(g, retained):
    """Queue-based recount, structurally unlike both library code paths."""
    ret = set(int(v) for v in retained)
    seen, out = set(), []
    for v in sorted(ret):
        if v in seen:
            continue
        queue = collections.deque([v])
        seen.add(v)
        comp = []
        while queue:
            x = queue.popleft()
            comp.append(x)
            for w in g.neighbors_of(x):
                w = int(w)
                if w in ret and w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def keeping(n, kept):
    """A per-vertex stream on n vertices whose retained set is exactly `kept`:
    the first seed whose uniforms put every kept vertex below every other."""
    inside = np.isin(np.arange(n), list(kept))
    for seed in range(100_000):
        u = u01(seed, n)
        lo, hi = u[inside].max(initial=0.0), u[~inside].min(initial=1.0)
        if lo < hi:
            return BernoulliStream(rho=(lo + hi) / 2, seed=seed)
    raise AssertionError("no seed found")


def whole(out):
    return out.retained, out.rejected, out.components, out.epochs, out.bits_consumed


def assert_matches_reference(g, stream):
    """dfs_percolate's whole outcome equals the reference exploration of the
    stream's per-vertex bits, which consumes one bit per vertex."""
    out = dfs_percolate(g, stream)
    assert whole(out) == reference_percolate(g, u01(stream.seed, g.n) < stream.rho)
    assert out.bits_consumed == g.n
    return out


# --- hand-checked runs ---


def test_all_bits_zero_rejects_everything():
    g = star_graph(10)
    out = dfs_percolate(g, BernoulliStream(rho=0.0))
    assert out.retained == [] and out.components == [] and out.epochs == []
    assert out.rejected == list(range(10))
    assert out.bits_consumed == 10


def test_all_bits_one_recovers_the_graph():
    g = build_graph(6, [(0, 1), (1, 2), (4, 5)])  # vertex 3 isolated
    out = dfs_percolate(g, BernoulliStream(rho=1.0))
    assert out.retained == list(range(6))
    assert out.components == [[0, 1, 2], [3], [4, 5]]
    assert out.bits_consumed == 6


def test_triangle_split(triangle):
    out = dfs_percolate(triangle, keeping(3, {0, 2}))
    assert out.retained == [0, 2]
    assert out.rejected == [1]
    assert out.components == [[0, 2]]
    assert out.epochs == [(0, 2)]
    assert out.bits_consumed == 3


def test_singleton_epoch():
    g = build_graph(1, [])
    out = dfs_percolate(g, BernoulliStream(rho=1.0))
    assert out.components == [[0]] and out.epochs == [(0, 0)]


def test_rho_zero_and_one_uniform_mode():
    g = generate(GeneratorSpec(kind="gnp", n=200, p=0.05, seed=6))
    assert dfs_percolate(g, BernoulliStream(rho=0.0, seed=1)).retained == []
    full = dfs_percolate(g, BernoulliStream(rho=1.0, seed=1))
    assert full.retained == list(range(200))
    assert full.components == oracle_components(g, range(200))


# --- stream validation ---


def test_stream_validation():
    with pytest.raises(InvalidParameter, match=r"rho must be in \[0, 1\]"):
        BernoulliStream(rho=1.5)
    with pytest.raises(InvalidParameter, match=r"rho must be in \[0, 1\]"):
        BernoulliStream(rho=-0.1)
    with pytest.raises(InvalidParameter, match="rho must be finite, got nan"):
        BernoulliStream(rho=math.nan)
    with pytest.raises(InvalidParameter):  # SeedSequence refuses negative seeds
        BernoulliStream(rho=0.5, seed=-1)
    # seed 1.5 used to fail with TypeError at the first draw, and seed True
    # and rho True to run and echo true
    for bad in (dict(rho=0.5, seed=1.5), dict(rho=0.5, seed=True), dict(rho=True)):
        with pytest.raises(InvalidParameter):
            BernoulliStream(**bad)


# --- reference equivalence ---

REF_GRAPHS = [
    generate(GeneratorSpec(kind="gnp", n=60, p=0.1, seed=0)),
    generate(GeneratorSpec(kind="gnp", n=200, p=0.05, seed=1)),
    generate(GeneratorSpec(kind="gnp", n=400, p=0.02, seed=2)),
    star_graph(40),
    path_graph(50),
    cycle_graph(30),
    complete_graph(20),
]


@pytest.mark.parametrize("gi", range(len(REF_GRAPHS)))
@pytest.mark.parametrize("seed,rho", [(3, 0.4), (11, 0.15), (27, 0.8)])
def test_uniform_mode_matches_reference(gi, seed, rho):
    assert_matches_reference(REF_GRAPHS[gi], BernoulliStream(rho=rho, seed=seed))


@pytest.mark.parametrize("seed", [0, 7, 19, 41, 97])
def test_components_match_union_find_oracle(seed):
    g = generate(GeneratorSpec(kind="gnp", n=1500, p=0.004, seed=seed))
    out = dfs_percolate(g, BernoulliStream(rho=0.5, seed=seed))
    assert out.components == oracle_components(g, out.retained)


def test_epoch_structure():
    g = generate(GeneratorSpec(kind="gnp", n=300, p=0.02, seed=5))
    out = dfs_percolate(g, BernoulliStream(rho=0.6, seed=8))
    assert len(out.epochs) == len(out.components)
    prev_end = -1
    for (s, e), comp in zip(out.epochs, out.components):
        assert prev_end < s <= e < g.n
        # a component consumes one bit per retained vertex plus its rejected
        # boundary, all inside the epoch
        assert e - s + 1 >= len(comp)
        prev_end = e
    # components come out in min-vertex order
    mins = [c[0] for c in out.components]
    assert mins == sorted(mins)


def test_monotone_coupling_in_rho():
    g = generate(GeneratorSpec(kind="gnp", n=500, p=0.03, seed=9))
    outs = [dfs_percolate(g, BernoulliStream(rho=r, seed=123)) for r in (0.2, 0.5, 0.8)]
    for lo, hi in zip(outs, outs[1:]):
        assert set(lo.retained) <= set(hi.retained)


def test_determinism():
    g = generate(GeneratorSpec(kind="gnp", n=400, p=0.05, seed=2))
    a = dfs_percolate(g, BernoulliStream(rho=0.3, seed=77))
    b = dfs_percolate(g, BernoulliStream(rho=0.3, seed=77))
    assert a == b


# --- component oracle by itself ---


def test_oracle_components_hand_case():
    g = path_graph(4)
    assert oracle_components(g, [0, 1, 3]) == [[0, 1], [3]]
    assert oracle_components(g, []) == []


def test_oracle_components_out_of_range(k4):
    with pytest.raises(InvalidParameter, match=r"vertex 4 not in 0\.\.3"):
        oracle_components(k4, [0, 4])


def test_oracle_components_against_bfs():
    g = generate(GeneratorSpec(kind="gnp", n=500, p=0.01, seed=3))
    retained = u01(55, 500).argsort()[:100].tolist()  # 100 distinct vertices
    assert oracle_components(g, retained) == bfs_components(g, retained)


def test_largest_two():
    def run(n, kept):
        return dfs_percolate(path_graph(n), keeping(n, kept))
    assert run(4, {0, 1, 3}).components == [[0, 1], [3]]
    assert largest_two(run(4, {0, 1, 3})) == (2, 1)
    assert largest_two(run(4, set())) == (0, 0)
    assert largest_two(run(8, {7})) == (1, 0)
    # {0, 1} and {3, 4} tie: the least root wins
    assert run(5, {0, 1, 3, 4}).largest == [0, 1]
    assert largest_two(run(5, {0, 1, 3, 4})) == (2, 2)


# --- binomial tail check ---


def test_binomial_requires_eps_cubed_n():
    with pytest.raises(InvalidParameter, match=r"need eps\^3 \* n >= 1"):
        binomial_stream_check(n=100, rho=0.1, epsilon=0.2, trials=1, seed=0)


def test_binomial_all_zero_stream_fails_item3_only():
    n, eps = 1000, 0.2
    t2 = 200  # ceil(eps * n)
    rep = binomial_stream_check(n=n, rho=0.006, epsilon=eps, trials=99,
                                seed=0, bits=[0] * t2)
    assert rep.lemma_id == "binomial_tails"
    assert rep.checked_count == 1  # explicit bits ignore trials
    assert rep.measured["failure_frequencies"] == [0.0, 0.0, 1.0]
    assert not rep.passed
    assert rep.witness == {"trial": 0, "items_failed": [3]}


def naive_items_failed(bits, n, rho, eps):
    """The items (1-3) the stream `bits` fails, by a per-t python recount."""
    p = (1 + eps) / (n * rho)
    t1, t2 = math.ceil(eps ** 3 * n), math.ceil(eps * n)
    cs = 0
    item3_bad = False
    for t in range(1, t2 + 1):
        cs += bits[t - 1]
        if t1 <= t and cs < (1 + 3 * eps / 4) * t / (n * p):
            item3_bad = True
    bad = (sum(bits[:t1]) > 2 * eps ** 3 / p, sum(bits[:t2]) > 2 * eps / p, item3_bad)
    return [i + 1 for i in range(3) if bad[i]]


def test_binomial_matches_naive_recount():
    """Frequencies must equal a per-t python recount of the same streams,
    drawn or given as explicit bits."""
    n, rho, eps, trials, seed = 600, 0.01, 0.2, 40, 31
    rep = binomial_stream_check(n=n, rho=rho, epsilon=eps, trials=trials, seed=seed)
    p = (1 + eps) / (n * rho)
    t2 = 120
    fails = [0, 0, 0]
    for k in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, k))))
        for i in naive_items_failed((rng.random(t2) < rho).tolist(), n, rho, eps):
            fails[i - 1] += 1
    assert rep.measured["failure_frequencies"] == [f / trials for f in fails]
    assert rep.parameters["p_implied"] == pytest.approx(p)
    rng = np.random.default_rng(seed)
    for density in (0.0, 0.005, 0.01, 0.03, 0.2, 1.0):
        bits = (rng.random(t2 + 3) < density).astype(int).tolist()
        rep = binomial_stream_check(n=n, rho=rho, epsilon=eps, trials=trials, seed=seed,
                                    bits=bits)
        failed = naive_items_failed(bits, n, rho, eps)
        assert rep.measured["failure_frequencies"] == [float(i in failed) for i in (1, 2, 3)]
        assert rep.checked_count == 1 and rep.passed == (not failed)
        assert rep.witness == (None if not failed else {"trial": 0, "items_failed": failed})


BINOMIAL_OUTSIDE_DOMAIN = {
    "trials-0": dict(trials=0),  # ZeroDivisionError
    "rho-0": dict(rho=0.0),  # ZeroDivisionError
    "rho-above-1": dict(rho=1.5),  # accepted silently
    "rho-nan": dict(rho=math.nan),
    "epsilon-nan": dict(epsilon=math.nan),  # ValueError from ceil
    "epsilon-inf": dict(epsilon=math.inf),
    "epsilon-0": dict(epsilon=0.0),
    "seed-negative": dict(seed=-1),  # numpy ValueError
    "n-0": dict(n=0),
    "n-fractional": dict(n=1000.5),  # accepted silently
    "trials-fractional": dict(trials=2.5),  # TypeError from range
    "seed-fractional": dict(seed=1.5),  # numpy TypeError
    "seed-bool": dict(seed=True),  # accepted silently
    "epsilon-2": dict(epsilon=2.0),  # IndexError: ceil(eps n) runs past Y_n
    "epsilon-1e200": dict(epsilon=1e200),  # OverflowError from eps ** 3
}


@pytest.mark.parametrize("bad", BINOMIAL_OUTSIDE_DOMAIN.values(),
                         ids=BINOMIAL_OUTSIDE_DOMAIN.keys())
def test_binomial_refuses_parameters_outside_its_domain(bad):
    args = dict(n=1000, rho=0.006, epsilon=0.2, trials=5, seed=0)
    binomial_stream_check(**args)  # the base case is inside the domain
    with pytest.raises(InvalidParameter):
        binomial_stream_check(**dict(args, **bad))
    # explicit bits make trials irrelevant, and nothing else
    bits = [0] * 200
    if bad != {"trials": 0}:
        with pytest.raises(InvalidParameter):
            binomial_stream_check(**dict(args, **bad), bits=bits)
    else:
        assert binomial_stream_check(**dict(args, **bad), bits=bits).checked_count == 1


def test_binomial_refuses_bits_other_than_0_and_1():
    # [0.5] * 200 used to be read as 200 ones, failing items 1 and 2
    args = dict(n=1000, rho=0.006, epsilon=0.2, trials=1, seed=0)
    for bad in (2, 0.5, 1.0, "x", None):
        with pytest.raises(InvalidParameter, match="bits must be 0/1 integers or bools, got"):
            binomial_stream_check(**args, bits=[0] * 100 + [bad] + [0] * 99)
    # bools and integers, Python or numpy, lists or arrays, are the same stream
    want = binomial_stream_check(**args, bits=[0, 1] * 100)
    for bits in ([False, True] * 100, np.tile([0, 1], 100), np.tile([False, True], 100),
                 [np.int8(0), np.int64(1)] * 100, [np.False_, np.True_] * 100):
        assert binomial_stream_check(**args, bits=bits) == want


def test_binomial_short_explicit_stream_rejected():
    with pytest.raises(InvalidParameter, match="need at least .* bits, got 10"):
        binomial_stream_check(n=1000, rho=0.006, epsilon=0.2, trials=1, seed=0,
                              bits=[0] * 10)


def test_binomial_dense_regime_mechanics():
    """At n*p small relative to 1/eps^3 the tails genuinely fail; the checker
    must report that honestly rather than smooth it over."""
    rep = binomial_stream_check(n=1_000_000, rho=1.1e-4, epsilon=0.1,
                                trials=50, seed=2)
    freqs = rep.measured["failure_frequencies"]
    assert not rep.passed
    assert freqs[2] > 0.8  # the running floor is above the mean at small t
    assert rep.witness is not None and 3 in rep.witness["items_failed"]


# --- properties ---


@st.composite
def percolation_cases(draw):
    """A small graph, two retention probabilities lo <= hi and a seed."""
    n = draw(st.integers(0, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0]))
    keep = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(len(pairs))
    g = build_graph(n, [e for e, k in zip(pairs, keep) if k < density])
    lo, hi = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
    return g, lo, hi, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(percolation_cases())
def test_dfs_matches_oracles_and_nests_across_rho(case):
    g, lo, hi, seed = case
    edges = edge_set(g)
    runs = [assert_matches_reference(g, BernoulliStream(rho=rho, seed=seed)) for rho in (lo, hi)]
    for out in runs:
        assert out.components == oracle_components(g, out.retained)
        kept = set(out.retained)
        induced = nx.Graph()
        induced.add_nodes_from(kept)
        induced.add_edges_from(e for e in edges if kept.issuperset(e))
        assert out.components == sorted(sorted(c) for c in nx.connected_components(induced))
    assert set(runs[0].retained) <= set(runs[1].retained)


# --- the outcome's fields, built on first read ---


READ_ORDERS = {
    "epochs-first": ("epochs", "components"),
    "components-only": ("components",),
    "retained-only": ("retained",),
    "sizes-first": ("sizes", "largest", "rejected", "retained", "components", "epochs"),
}


@st.composite
def lazy_cases(draw):
    """A host from `percolation_cases`, or disjoint equal paths under a
    shuffled labelling, whose largest components tie; a rho and a seed."""
    if draw(st.booleans()):
        g, lo, _, seed = draw(percolation_cases())
        return g, lo, seed
    k, length = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    label = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(k * length)
    edges = [(label[p * length + j], label[p * length + j + 1])
             for p in range(k) for j in range(length - 1)]
    rho = draw(st.sampled_from([1.0, 0.9, 0.5]))
    return build_graph(k * length, edges), rho, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(lazy_cases(), st.sampled_from(sorted(READ_ORDERS)))
def test_fields_read_in_any_order_match_the_reference(case, order):
    g, rho, seed = case
    out = dfs_percolate(g, BernoulliStream(rho=rho, seed=seed))
    for name in READ_ORDERS[order]:
        getattr(out, name)
    assert whole(out) == reference_percolate(g, u01(seed, g.n) < rho)
    assert out.sizes.tolist() == [len(c) for c in out.components]
    assert out.largest == max(out.components, key=len, default=[])
    assert largest_two(out) == tuple((sorted(map(len, out.components), reverse=True) + [0, 0])[:2])


# --- pinned streams: the engine against the reference exploration ---


SHUFFLED = np.random.default_rng(1).permutation(1500).tolist()

PINNED = {
    "rho-0": (complete_graph(6), BernoulliStream(rho=0.0, seed=3)),
    "rho-1": (path_graph(7), BernoulliStream(rho=1.0, seed=3)),
    "n-0": (build_graph(0, []), BernoulliStream(rho=0.5, seed=1)),
    "n-1-kept": (build_graph(1, []), BernoulliStream(rho=1.0, seed=1)),
    "n-1-rejected": (build_graph(1, []), BernoulliStream(rho=0.0, seed=1)),
    # 0, 2 and 4 keep no retained neighbor; 1 and 3 are queried inside epochs
    "isolated-retained": (path_graph(5), keeping(5, {0, 2, 4})),
    "isolated-vertex": (build_graph(4, [(0, 1)]), keeping(4, {0, 2, 3})),
    # long chains: each first hook moves a vertex one step down the chain, so
    # the labels need many pointer-jump rounds; in a shuffled path the
    # hooks meet in many places and need several rounds of hooking
    "path-1500": (path_graph(1500), BernoulliStream(rho=1.0, seed=3)),
    "cycle-1500": (cycle_graph(1500), BernoulliStream(rho=1.0, seed=3)),
    "shuffled-path-1500": (build_graph(1500, zip(SHUFFLED[:-1], SHUFFLED[1:])),
                           BernoulliStream(rho=1.0, seed=3)),
    "star": (star_graph(40), BernoulliStream(rho=1.0, seed=3)),
    # the hub is rejected, so every retained leaf is its own component
    "star-leaves": (star_graph(40), keeping(40, range(1, 40))),
    # rejected 2 borders the roots 0 below it and 4 above it: its anchor is 0,
    # so epoch 0 queries it; rejected 1 borders only the root 3 above it, so
    # the root loop queries it
    "anchor-both-sides": (build_graph(5, [(0, 2), (2, 4), (1, 3)]), keeping(5, {0, 3, 4})),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_streams_agree_across_paths(name):
    assert_matches_reference(*PINNED[name])


def test_full_retention_peaks_within_the_row_gather():
    """A rho = 1 run on gnp 10000/0.03 gathers every row: i and the gather
    index in int64 and w in int32 peak at 6x the CSR bytes. Each gather
    array is dropped once read and the search keeps only the edges' labels,
    so nothing later peaks higher; a search that kept every edge beside its
    two labels peaked at 7.7x. `epochs` gathers the rows again, and that
    gather sets its peak as well (5.98x)."""
    g = generate(GeneratorSpec(kind="gnp", n=10_000, p=0.03, seed=1))
    csr = g.offsets.nbytes + g.neighbors.nbytes
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = dfs_percolate(g, BernoulliStream(rho=1.0, seed=1))
        peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        epochs = out.epochs
        epochs_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(out.retained) == g.n and len(epochs) == len(out.sizes)
    assert peak <= 6.5 * csr
    assert epochs_peak <= 6.5 * csr


def test_rejected_vertex_below_a_later_root_is_queried_as_a_root():
    # 1 is rejected and borders the component {2, 3}, whose root 2 lies above
    # it, so the root loop queries 1 before epoch 2 opens; 4 borders {0} and
    # is queried inside epoch 0
    g = build_graph(5, [(0, 4), (1, 2), (2, 3)])
    out = assert_matches_reference(g, keeping(5, {0, 2, 3}))
    assert out.retained == [0, 2, 3]
    assert out.components == [[0], [2, 3]]
    assert out.epochs == [(0, 1), (3, 4)]
