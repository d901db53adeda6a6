"""The problem and certificate writers emit the stdlib encoder's bytes, and
certificate files read back to the gains that were written.

Each expected file is ``json.dumps(doc, indent=2, sort_keys=True)`` plus
a newline, with ``doc`` built here from the tree's own arrays, so the
comparison does not depend on how the writers render their text.
"""

import csv
import gc
import hashlib
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spc_lab import (
    BoundPoint,
    BoundReport,
    DecayRow,
    InstanceSpec,
    NodeArrays,
    ScenarioTree,
    TreeError,
    generate_certified_instance,
    load_certificate,
    load_problem,
    save_certificate,
    save_problem,
    write_decay_csv,
    write_moments_csv,
    write_regret_csv,
    write_trace_csv,
)
from spc_lab import problem_io
from spc_lab.stability import GainCertificate

from .helpers import (
    crossed_tree, gain_certificate, node_data, random_tree, sidecar_of, stack, uneven_tree,
)
from .oracles import NodeRow

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 2.0, -3.0, 0.1]
FIELDS = ("A", "B", "d", "Q", "R", "q", "r")

numbers = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
finite_numbers = st.one_of(st.sampled_from(EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False))


def matrix(draw, shape, elements=numbers):
    size = int(np.prod(shape))
    values = draw(st.lists(elements, min_size=size, max_size=size))
    return np.array(values).reshape(shape)


def stdlib_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def problems(draw):
    nx, nu = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    T, branching = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    parents, stages, frontier = [-1], [0], [0]
    for t in range(1, T + 1):
        nxt = []
        for par in frontier:
            for _ in range(branching):
                parents.append(par)
                stages.append(t)
                nxt.append(len(parents) - 1)
        frontier = nxt
    n = len(parents)
    shapes = {"A": (nx, nx), "B": (nx, nu), "d": (nx,), "Q": (nx, nx)}
    shapes.update(R=(nu, nu), q=(nx,), r=(nu,))
    # the writers take any ScenarioTree; validating the tree is not their job,
    # but save_problem refuses a committed pair that is not finite
    data = NodeArrays(*(matrix(draw, (n, *shapes[f])) for f in FIELDS))
    tree = ScenarioTree(parents, stages, matrix(draw, (n,)), data)
    initial = (matrix(draw, (nx,), finite_numbers), matrix(draw, (nu,), finite_numbers))
    keys = ("L", "alpha", "gamma")
    assumption = draw(st.none() | st.fixed_dictionaries({k: numbers for k in keys}))
    return tree, initial, assumption


@settings(max_examples=60, deadline=None)
@given(problem=problems())
def test_save_problem_matches_stdlib_encoder(tmp_path_factory, problem):
    tree, initial, assumption = problem
    doc = {
        "dims": {"nx": tree.nx, "nu": tree.nu},
        "horizon": tree.horizon,
        "explicit": {
            "parents": tree.parent.tolist(),
            "stages": tree.stage.tolist(),
            "probs": tree.pi.tolist(),
            "nodes": [{f: getattr(NodeRow(tree, n), f).tolist() for f in FIELDS}
                      for n in range(tree.node_count)],
        },
        "initial": {"x_prev": initial[0].tolist(), "u_prev": initial[1].tolist()},
    }
    if assumption is not None:
        doc["assumption"] = assumption
    path = tmp_path_factory.mktemp("p") / "problem.json"
    save_problem(str(path), tree, initial, assumption)
    assert path.read_text() == stdlib_text(doc)


def test_save_problem_streams_more_than_one_batch(tmp_path):
    # 600 nodes: the records are written in three runs
    n = 600
    nd = node_data(
        A=[[1.0, -0.0], [5e-324, 2.0]], B=[[1e300], [0.0]], d=[0.5, -1e-300],
        Q=[[1.0, 0.0], [0.0, 3.0]], R=[[2.0]], q=[0.1, 0.2], r=[0.3],
    )
    tree = ScenarioTree([-1] + [0] * (n - 1), [0] + [1] * (n - 1),
                        [1.0] + [1.0 / (n - 1)] * (n - 1), NodeArrays(**stack([nd] * n)))
    initial = ([0.0, 1.0], [2.0])
    path = tmp_path / "problem.json"
    save_problem(str(path), tree, initial)
    doc = json.loads(path.read_text())
    assert len(doc["explicit"]["nodes"]) == n
    assert path.read_text() == stdlib_text(doc)


def test_trace_rows_match_csv_writer_across_batches(tmp_path):
    n = 600
    nd = node_data(A=[[1.0]], B=[[1.0]], d=[0.0], Q=[[1.0]], R=[[1.0]], q=[0.0], r=[0.0])
    tree = ScenarioTree([-1] + [0] * (n - 1), [0] + [1] * (n - 1),
                        [1.0] + [1.0 / (n - 1)] * (n - 1), NodeArrays(**stack([nd] * n)))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, 1))
    u = np.array([[EDGE_FLOATS[k % len(EDGE_FLOATS)]] for k in range(n)])
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), tree, x, u, {"J": 0.5})
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["node", "stage", "parent", "pi", "x[0]", "u[0]"])
    for k in range(n):
        values = (tree.pi[k], x[k][0], u[k][0])
        writer.writerow([k, int(tree.stage[k]), int(tree.parent[k])]
                        + [repr(float(v)) for v in values])
    assert path.read_text() == expected.getvalue() + "# J=0.5\n"


# every kind of value a report cell holds, the edges of each kind included
REPORT_CELLS = [
    math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e16, 0.1, 2.0, 7, -3, 0, 2**63,
    np.int64(-5), np.int32(4), np.uint8(255), True, False, np.True_, np.False_,
    np.float64(1e16), np.float64(-0.0), np.float64(math.nan), np.float32(0.1), "kind", "x[0]",
]


def old_text(value):
    """A report value as the writers rendered it by type before one formatter
    did: ``true``/``false``, ``str(int(v))`` and ``repr(float(v))``."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def stdlib_csv(header, rows, comment=None):
    """The stdlib writer's report of ``rows`` over :func:`old_text`, with the
    comment line ``# key=value,...`` last when ``comment`` is given."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([list(map(old_text, row)) for row in rows])
    if comment is not None:
        out.write("# " + ",".join(f"{k}={old_text(v)}" for k, v in comment.items()) + "\n")
    return out.getvalue()


def test_key_values_renders_each_value_like_a_cell():
    pairs = {f"k{i}": v for i, v in enumerate(REPORT_CELLS)}
    texts = [f"k{i}={old_text(v)}" for i, v in enumerate(REPORT_CELLS)]
    assert problem_io.key_values(pairs) == " ".join(texts)
    assert problem_io.key_values(pairs, ",") == ",".join(texts)
    assert problem_io.key_values({}) == ""


@pytest.mark.parametrize("comment", [None, {"slope": math.nan, "passed": np.True_, "rows": 3}])
def test_write_csv_matches_stdlib_writer(tmp_path, comment):
    n = len(REPORT_CELLS)
    rows = [[REPORT_CELLS[(i + k) % n] for k in range(4)] for i in range(n)]
    path = tmp_path / "report.csv"
    problem_io._write_csv(str(path), ["a", "b", "c", "d"], rows, comment)
    assert path.read_bytes() == stdlib_csv(["a", "b", "c", "d"], rows, comment).encode()
    if comment is not None:
        last = path.read_text().splitlines()[-1]
        assert last == "# " + problem_io.key_values(comment, ",")


EDGE_VALUES = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, np.float64(0.1)]


def edge(i):
    return EDGE_VALUES[i % len(EDGE_VALUES)]


def test_trace_and_path_writers_match_stdlib_writer(tmp_path):
    tree = random_tree(4, T=3, nx=2, nu=1)
    n = tree.node_count
    x = np.array([[edge(i), edge(i + 3)] for i in range(n)], dtype=float)
    u = np.array([[edge(i + 5)] for i in range(n)], dtype=float)
    summary = {"J_W": np.float64(-0.0), "J_star": math.inf, "regret": 5e-324}
    write_trace_csv(str(tmp_path / "trace.csv"), tree, x, u, summary)
    rows = [[i, tree.stage[i], tree.parent[i], tree.pi[i], *x[i], *u[i]] for i in range(n)]
    header = ["node", "stage", "parent", "pi", "x[0]", "x[1]", "u[0]"]
    assert (tmp_path / "trace.csv").read_text() == stdlib_csv(header, rows, summary)

    leaves = tree.leaves()
    values = np.array([edge(i) for i in range(leaves.size)])
    problem_io.write_path_values_csv(str(tmp_path / "paths.csv"), tree, values, {"J": math.nan})
    rows = [[leaf, tree.pi[leaf], v] for leaf, v in zip(leaves, values)]
    assert (tmp_path / "paths.csv").read_text() == stdlib_csv(
        ["leaf", "pi", "J_path"], rows, {"J": math.nan})


def test_sweep_decay_and_moment_writers_match_stdlib_writer(tmp_path):
    keys = ["W", "J_W", "J_star", "regret", "bound", "applies"]
    sweep = [dict(zip(keys, (W, edge(W), edge(W + 1), edge(W + 2), edge(W + 3), W % 2 == 0)))
             for W in range(8)]
    report = SimpleNamespace(
        constants=SimpleNamespace(W_bar=math.inf, rho=np.float64(1.0)),
        details={"rows": sweep, "slope": math.nan, "log_rho": -0.0},
        passed=np.False_,
    )
    write_regret_csv(str(tmp_path / "regret.csv"), report)
    header = [*keys, "Wbar", "rho"]
    rows = [[*map(row.get, keys), math.inf, 1.0] for row in sweep]
    comment = {"slope": math.nan, "log_rho": -0.0, "passed": False}
    assert (tmp_path / "regret.csv").read_text() == stdlib_csv(header, rows, comment)

    decay = [DecayRow(np.int64(t), tp, edge(t), edge(tp + 4)) for t in range(3) for tp in range(3)]
    constants = SimpleNamespace(map_decay=edge)
    write_decay_csv(str(tmp_path / "decay.csv"), decay, constants)
    rows = [[r.t, r.tprime, r.psi_norm, r.omega_norm, edge(abs(r.t - r.tprime))] for r in decay]
    assert (tmp_path / "decay.csv").read_text() == stdlib_csv(
        ["t", "tprime", "psi_norm", "omega_norm", "bound"], rows)

    points = {
        "stage": (BoundPoint(np.int64(1), edge(0), edge(1)), BoundPoint(2, edge(2), edge(3))),
        "node": (BoundPoint((np.int64(5), 3), edge(4), edge(5), applies=False),),
    }
    kinds = {k: BoundReport(k, p, True, None, {}) for k, p in points.items()}
    write_moments_csv(str(tmp_path / "moments.csv"), kinds)
    rows = [
        [3, edge(4), edge(5), "node"],
        [np.int64(1), edge(0), edge(1), "stage"],
        [2, edge(2), edge(3), "stage"],
    ]
    assert (tmp_path / "moments.csv").read_text() == stdlib_csv(
        ["t", "measured", "envelope", "kind"], rows)


@st.composite
def certificates(draw):
    nodes = draw(st.lists(st.integers(0, 40), unique=True, max_size=14))
    # one gain shape per certificate, empty rows included
    shape = draw(st.tuples(st.integers(0, 2), st.integers(0, 3)))
    K = matrix(draw, (len(nodes),) + shape)
    L, alpha, role = draw(numbers), draw(numbers), draw(st.text())
    return GainCertificate(nodes, K, L=L, alpha=alpha, role=role)


@settings(max_examples=60, deadline=None)
@given(cert=certificates())
def test_save_certificate_matches_stdlib_encoder(tmp_path_factory, cert):
    doc = {
        "role": cert.role,
        "L": cert.L,
        "alpha": cert.alpha,
        "K": {str(n): mat.tolist() for n, mat in zip(cert.nodes.tolist(), cert.K)},
    }
    path = tmp_path_factory.mktemp("c") / "cert.json"
    save_certificate(str(path), cert)
    assert path.read_text() == stdlib_text(doc)


def test_certificate_keys_sort_as_strings_and_empty_k(tmp_path):
    path = tmp_path / "cert.json"
    K = np.array([[[float(n), -0.0]] for n in (2, 10, 1, 33)])
    save_certificate(str(path), GainCertificate([2, 10, 1, 33], K, L=1.0, alpha=0.5))
    assert list(json.loads(path.read_text())["K"]) == ["1", "10", "2", "33"]
    save_certificate(str(path), gain_certificate({}))
    assert path.read_text() == stdlib_text(
        {"K": {}, "L": 1.0, "alpha": 0.5, "role": "stabilizability"}
    )


def test_certificate_renders_each_distinct_gain_once(tmp_path, monkeypatch):
    # keys "10".."39" interleave three gains, two of them a 0.0 / -0.0
    # pair; keys "400".."699", which cross batch boundaries, alternate two
    # more
    first_run = [[[1.0, 0.0]], [[1.0, -0.0]], [[0.5, 2.0]]]
    second_run = [[[0.0, 3.0]], [[-0.0, 3.0]]]
    K = {n: np.array(first_run[n % 3]) for n in range(10, 40)}
    K.update({n: np.array(second_run[n % 2]) for n in range(400, 700)})
    rendered, numbers = [], problem_io._numbers

    def counted(arr):
        rendered.extend(numbers(arr))
        return numbers(arr)

    monkeypatch.setattr(problem_io, "_numbers", counted)
    path = tmp_path / "cert.json"
    save_certificate(str(path), gain_certificate(K))
    doc = {"K": {str(n): mat.tolist() for n, mat in K.items()}, "L": 1.0, "alpha": 0.5,
           "role": "stabilizability"}
    assert path.read_text() == stdlib_text(doc)
    assert sorted(rendered) == sorted(["1.0", "0.0", "1.0", "-0.0", "0.5", "2.0",
                                       "0.0", "3.0", "-0.0", "3.0"])


# ---------------------------------------------------------------------------
# certificate files at scale


def test_generated_certificates_round_trip_byte_for_byte(tmp_path):
    # T=8: 255 stabilizability and 510 detectability gains, so the writer
    # crosses batch boundaries
    spec = InstanceSpec(n_x=2, n_u=1, T=8, branching=2, L=1.0, alpha=0.04,
                        gamma=1.0, noise_scale=0.1, seed=5)
    for role, cert in generate_certified_instance(spec).certificates.items():
        first, second = tmp_path / f"{role}.json", tmp_path / f"{role}-again.json"
        save_certificate(str(first), cert)
        loaded = load_certificate(str(first))
        order = np.argsort(loaded.nodes)
        assert np.array_equal(loaded.nodes[order], cert.nodes)
        assert np.array_equal(loaded.K[order], cert.K)
        save_certificate(str(second), loaded)
        assert second.read_bytes() == first.read_bytes()
        assert first.read_text() == stdlib_text(json.loads(first.read_text()))


def deep_certificate(path, edit):
    """A 2047-gain certificate file in node order, after ``edit(items)`` on
    its list of ``[key, gain]`` pairs."""
    items = [[str(n), [[0.1 * n, 0.0], [0.0, 0.2]]] for n in range(2047)]
    edit(items)
    path.write_text(json.dumps({"K": dict(items), "L": 1.0, "alpha": 0.5}))
    return str(path)


def _set(at, value):
    def edit(items):
        items[at][1][1][0] = value
    return edit


def _key(at, key):
    def edit(items):
        items[at][0] = key
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(1900, float("nan")), "gain for node 1900 has non-finite entries"),
        (_set(1900, float("-inf")), "gain for node 1900 has non-finite entries"),
        (_set(1900, None), "gain for node 1900 has non-finite entries"),
        (_set(1900, "x"), "field K[1900] is not numeric"),
        # a gain entry is a 64-bit JSON number: no string, boolean or overflow
        (_set(1900, "0.5"), 'field K[1900] is not numeric: "0.5" is not a 64-bit number'),
        (_set(1900, True), "field K[1900] is not numeric: true is not a 64-bit number"),
        (_set(1900, 10**400), "field K[1900] is not numeric: 1000000000"),
        (_key(1900, "01900"), 'certificate gain key "01900" is not a node id'),
        (_key(1900, "-1900"), 'certificate gain key "-1900" is not a node id'),
        (_key(1900, "+1900"), 'certificate gain key "+1900" is not a node id'),
        (_key(1900, " 1900"), 'certificate gain key " 1900" is not a node id'),
        (_key(1900, "1_900"), 'certificate gain key "1_900" is not a node id'),
        (_key(1900, "１"), 'certificate gain key "\\uff11" is not a node id'),
        # node ids are 64-bit integers
        (_key(1900, str(2**63)), f'certificate gain key "{2**63}" is not a node id'),
        # the first fault in file order decides, whatever its kind
        (lambda items: (_set(2000, float("nan"))(items), _key(1950, "x")(items)),
         'certificate gain key "x" is not a node id'),
        (lambda items: (_set(1950, float("inf"))(items), _key(2000, "x")(items)),
         "gain for node 1950 has non-finite entries"),
    ],
)
def test_deep_certificate_fault_is_named(tmp_path, edit, message):
    with pytest.raises(TreeError) as err:
        load_certificate(deep_certificate(tmp_path / "cert.json", edit))
    assert str(err.value).startswith(message)


def _shape(at, gain):
    def edit(items):
        items[at][1] = gain
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_shape(1900, [[0.5]]), "gain for node 1900 has shape (1, 1), expected (2, 2)"),
        # the first gain in file order sets the shape
        (_shape(0, [[0.5]]), "gain for node 1 has shape (2, 2), expected (1, 1)"),
        (_shape(1900, [0.5, 0.5]), "gain for node 1900 has shape (2,), expected (2, 2)"),
        # a misshaped gain is a fault in file order like any other
        (lambda items: (_shape(1900, [[0.5]])(items), _key(1950, "x")(items)),
         "gain for node 1900 has shape (1, 1), expected (2, 2)"),
        (lambda items: (_shape(1950, [[0.5]])(items), _key(1900, "x")(items)),
         'certificate gain key "x" is not a node id'),
    ],
)
def test_deep_misshaped_gain_is_refused_at_load(tmp_path, edit, message):
    # all gains of a certificate share one shape
    with pytest.raises(TreeError) as err:
        load_certificate(deep_certificate(tmp_path / "cert.json", edit))
    assert str(err.value) == message


def test_largest_node_id_loads(tmp_path):
    cert = load_certificate(deep_certificate(tmp_path / "cert.json", _key(1900, str(2**63 - 1))))
    assert cert.nodes[1900] == 2**63 - 1 and cert.K.shape == (2047, 2, 2)


def test_loaders_hold_off_garbage_collection(tmp_path):
    # a parsed document holds no cycles; collecting while it is built only
    # walks it, so the loaders collect nothing and restore the collector
    spec = InstanceSpec(n_x=2, n_u=1, T=7, branching=2, L=1.0, alpha=0.04,
                        gamma=1.0, noise_scale=0.1, seed=5)
    inst = generate_certified_instance(spec)
    problem, cert = tmp_path / "problem.json", tmp_path / "cert.json"
    save_problem(str(problem), inst.tree, inst.w_prev)
    save_certificate(str(cert), inst.certificates["detectability"])
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        load_problem(str(problem))  # from the sidecar
        sidecar_of(problem).unlink()
        load_problem(str(problem))  # from the parsed document
        load_certificate(str(cert))
    finally:
        gc.callbacks.remove(record)
    assert started == [] and gc.isenabled()
    (tmp_path / "bad.json").write_text("{")
    with pytest.raises(TreeError, match="not valid JSON"):
        load_problem(str(tmp_path / "bad.json"))
    assert gc.isenabled()
    gc.disable()
    try:
        load_certificate(str(cert))
        assert not gc.isenabled()
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# node data stacked from file to solver


def zero_pair(tree):
    return np.zeros(tree.nx), np.zeros(tree.nu)


def _generated(T):
    spec = InstanceSpec(n_x=2, n_u=1, T=T, branching=2, L=1.0, alpha=0.04,
                        gamma=1.0, noise_scale=0.1, seed=5)
    return generate_certified_instance(spec).tree


@pytest.mark.parametrize(
    "make",
    [lambda: _generated(6), lambda: crossed_tree(np.random.default_rng(1)),
     lambda: uneven_tree(np.random.default_rng(2)), lambda: random_tree(seed=3, nu=2)],
    ids=["seed5-T6", "crossed", "uneven", "stagewise"],
)
def test_flat_stacking_equals_per_node_path(tmp_path, make):
    tree = make()
    path = tmp_path / "problem.json"
    save_problem(str(path), tree, zero_pair(tree))
    sidecar_of(path).unlink()  # load_problem parses the records below
    nodes = json.loads(path.read_text())["explicit"]["nodes"]
    flat = problem_io._node_records(nodes, "node {}".format)
    rows = [problem_io._node_data(o, f"node {i}") for i, o in enumerate(nodes)]
    loaded = load_problem(str(path))[0].raw_arrays
    for f in FIELDS:
        want = np.array([nd[f] for nd in rows])
        for got in (flat[f], getattr(loaded, f), getattr(tree.raw_arrays, f)):
            assert got.dtype == want.dtype and got.shape == want.shape, f
            assert got.tobytes() == want.tobytes(), f


def test_tree_from_a_stack_makes_no_node_data(tmp_path, monkeypatch):
    # the parse path: with no sidecar, the records are stacked from the JSON
    tree = _generated(6)
    path = tmp_path / "problem.json"
    save_problem(str(path), tree, zero_pair(tree))
    sidecar_of(path).unlink()
    stacks, read = [], problem_io._node_records

    def kept(*args, **kwargs):
        stacks.append(read(*args, **kwargs))
        return stacks[-1]

    monkeypatch.setattr(problem_io, "_node_records", kept)
    loaded, _, _ = load_problem(str(path))
    queries = (loaded.nx, loaded.nu, loaded.leaves(), loaded.stage_nodes(3),
               loaded.children[0], loaded.arrays, loaded.ancestors)
    assert queries[:2] == (2, 1) and queries[2].tolist() == list(range(63, 127))
    assert queries[3].tolist() == list(range(7, 15)) and queries[4] == (1, 2)
    # the tree keeps the loader's arrays as its one copy of the node data
    (stack,) = stacks
    for f in FIELDS:
        assert np.shares_memory(getattr(loaded.raw_arrays, f), stack[f]), f


def test_tree_from_the_sidecar_keeps_its_arrays(tmp_path, monkeypatch):
    tree = _generated(6)
    path = tmp_path / "problem.json"
    save_problem(str(path), tree, zero_pair(tree))
    records, read = [], problem_io._read_sidecar

    def kept(*args):
        records.append(read(*args))
        return records[-1]

    monkeypatch.setattr(problem_io, "_read_sidecar", kept)
    monkeypatch.setattr(problem_io, "_node_records", None)  # never parsed
    loaded, _, _ = load_problem(str(path))
    # the tree keeps the sidecar's arrays as its one copy of the node data
    (record,) = records
    fields = record[-len(FIELDS):]
    for f, arr in zip(FIELDS, fields):
        assert np.shares_memory(getattr(loaded.raw_arrays, f), arr), f
        assert getattr(loaded.raw_arrays, f).tobytes() == getattr(tree.raw_arrays, f).tobytes()


def test_stagewise_horizon_is_checked_before_the_build(tmp_path, monkeypatch):
    # 17 two-outcome stages make a 131071-node product tree; the declared
    # horizon is compared with the stage count before any of it is built
    outcome = {"A": [[1.0]], "B": [[1.0]], "d": [0.0], "Q": [[1.0]], "R": [[1.0]],
               "q": [0.0], "r": [0.0]}
    doc = {"dims": {"nx": 1, "nu": 1}, "horizon": 1,
           "initial": {"x_prev": [0.0], "u_prev": [0.0]},
           "stagewise": [[{**outcome, "prob": 1.0}]] + [[{**outcome, "prob": 0.5}] * 2] * 16}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))

    def refuse(*args):
        raise AssertionError("the product tree was built")

    monkeypatch.setattr(problem_io, "build_tree_stagewise", refuse)
    with pytest.raises(TreeError, match="^declared horizon 1 does not match tree depth 16$"):
        load_problem(str(path))


# ---------------------------------------------------------------------------
# the array sidecar beside a saved problem file


@pytest.fixture
def sidecar_used(monkeypatch):
    """One entry per problem load: whether its arrays came from the sidecar."""
    used, read = [], problem_io._read_sidecar

    def spy(*args):
        records = read(*args)
        used.append(records is not None)
        return records

    monkeypatch.setattr(problem_io, "_read_sidecar", spy)
    return used


def parsed(path, tmp_path):
    """What the parse path loads from the bytes at ``path``: a copy of them
    with no sidecar beside it."""
    plain = tmp_path / "parsed" / path.name
    plain.parent.mkdir(exist_ok=True)
    plain.write_bytes(path.read_bytes())
    return load_problem(str(plain))


def assert_same_problem(got, want):
    """Every array of two loads equal bit for bit, of one dtype and shape,
    and the same assumption to the bit."""
    (tree, initial, assumption), (tree2, initial2, assumption2) = got, want
    pairs = [*zip(tree.raw_arrays, tree2.raw_arrays), *zip(tree.arrays, tree2.arrays),
             (tree.parent, tree2.parent), (tree.stage, tree2.stage), (tree.pi, tree2.pi),
             *zip(initial, initial2)]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for a in (*initial, *initial2):
        assert a.dtype == np.float64 and not a.flags.writeable
    bits = [None if a is None else {k: float.hex(v) for k, v in a.items()}
            for a in (assumption, assumption2)]
    assert bits[0] == bits[1]


def _stagewise_resaved(path):
    """A stagewise file loaded by the parse path and re-saved by save_problem."""
    rng = np.random.default_rng(4)

    def outcome(prob):
        return {"prob": prob, "A": rng.standard_normal((2, 2)).tolist(),
                "B": rng.standard_normal((2, 1)).tolist(), "d": [-0.0, 5e-324],
                "Q": [[1.0, 0.1], [0.1, 2.0]], "R": [[1.5]], "q": rng.standard_normal(2).tolist(),
                "r": [0.1]}

    doc = {"dims": {"nx": 2, "nu": 1}, "horizon": 3,
           "stagewise": [[outcome(1.0)]] + [[outcome(0.3), outcome(0.7)]] * 3,
           "initial": {"x_prev": [0.3, -0.2], "u_prev": [0.1]},
           "assumption": {"L": 1, "alpha": 0.04, "gamma": 1.0}}
    source = path.with_name("stagewise.json")
    source.write_text(json.dumps(doc))
    save_problem(str(path), *load_problem(str(source)))


def _generated_3x2(T):
    spec = InstanceSpec(n_x=3, n_u=2, T=T, branching=3, L=1.0, alpha=0.04,
                        gamma=1.0, noise_scale=0.1, seed=5)
    inst = generate_certified_instance(spec)
    c = inst.constants
    return inst.tree, inst.w_prev, {"L": c.L, "alpha": c.alpha, "gamma": c.gamma}


@pytest.mark.parametrize(
    "write",
    [*(lambda p, T=T: save_problem(str(p), *_generated_3x2(T)) for T in (1, 2, 4)),
     _stagewise_resaved,
     lambda p: save_problem(str(p), tree := crossed_tree(np.random.default_rng(1)),
                            (np.full(tree.nx, -0.0), np.full(tree.nu, 5e-324)))],
    ids=["generated-T1", "generated-T2", "generated-T4", "stagewise-resaved", "no-assumption"],
)
def test_sidecar_load_equals_parse_load(tmp_path, sidecar_used, write):
    path = tmp_path / "problem.json"
    write(path)
    sidecar_used.clear()  # the stagewise source was parsed
    got = load_problem(str(path))
    assert sidecar_used == [True]
    want = parsed(path, tmp_path)
    assert sidecar_used == [True, False]
    assert_same_problem(got, want)
    if "assumption" not in json.loads(path.read_text()):
        # the edge pair comes back to the bit from either path
        assert got[2] is None
        x, u = got[1]
        assert x.tobytes() == np.full(3, -0.0).tobytes()
        assert u.tobytes() == np.full(2, 5e-324).tobytes()


_read_sidecar = problem_io._read_sidecar  # as it is, not as a test spies on it


UNPICKLED = []


def _unpickle():
    UNPICKLED.append("unpickled")


class _Unpickled:
    """An object whose unpickling is recorded in ``UNPICKLED``."""

    def __reduce__(self):
        return _unpickle, ()


def _rewrite_records(sidecar, problem, change):
    """Rewrite ``sidecar`` with its records passed through ``change``, under
    a valid tag, key and payload digest."""
    with open(problem, "rb") as fh:
        records = _read_sidecar(str(sidecar), fh)
    payload = io.BytesIO()
    for arr in change(records):
        np.save(payload, arr, allow_pickle=True)
    payload = payload.getvalue()
    key = hashlib.sha256(problem.read_bytes()).digest()
    sidecar.write_bytes(problem_io._SIDECAR_TAG + key + hashlib.sha256(payload).digest() + payload)


def _flip(sidecar, at):
    blob = bytearray(sidecar.read_bytes())
    blob[at] ^= 1
    sidecar.write_bytes(bytes(blob))


def _edit_q(problem):
    doc = json.loads(problem.read_text())
    doc["explicit"]["nodes"][1]["Q"][0][0] *= 2
    problem.write_text(stdlib_text(doc))


FALLBACKS = {
    "problem-edited-in-place": lambda problem, sidecar, other: _edit_q(problem),
    "missing": lambda problem, sidecar, other: sidecar.unlink(),
    "truncated": lambda problem, sidecar, other: sidecar.write_bytes(
        sidecar.read_bytes()[:-9]),
    "wrong-tag": lambda problem, sidecar, other: _flip(sidecar, 0),
    "keyed-to-another-file": lambda problem, sidecar, other: sidecar.write_bytes(
        sidecar_of(other).read_bytes()),
    "a-directory": lambda problem, sidecar, other: (sidecar.unlink(), sidecar.mkdir()),
    "flipped-payload-byte": lambda problem, sidecar, other: _flip(sidecar, -3),
    "flipped-key-byte": lambda problem, sidecar, other: _flip(
        sidecar, len(problem_io._SIDECAR_TAG)),
    "pickled-object-array": lambda problem, sidecar, other: _rewrite_records(
        sidecar, problem,
        lambda recs: [*recs[:1], np.array([_Unpickled()] * 4, dtype=object), *recs[2:]]),
    "record-of-another-dtype": lambda problem, sidecar, other: _rewrite_records(
        sidecar, problem, lambda recs: [*recs[:1], recs[1].astype(float), *recs[2:]]),
    "trailing-record": lambda problem, sidecar, other: _rewrite_records(
        sidecar, problem, lambda recs: [*recs, recs[0]]),
}


@pytest.mark.parametrize("edit", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_sidecar_fallbacks_load_what_the_parse_gives(tmp_path, sidecar_used, edit):
    tree, initial, assumption = _generated_3x2(1)
    problem, other = tmp_path / "problem.json", tmp_path / "other" / "problem.json"
    other.parent.mkdir()
    save_problem(str(problem), tree, initial, assumption)
    save_problem(str(other), _generated(2), (np.zeros(2), np.zeros(1)))
    before = load_problem(str(problem))
    UNPICKLED.clear()
    edit(problem, sidecar_of(problem), other)
    got = load_problem(str(problem))
    assert sidecar_used == [True, False] and UNPICKLED == []
    assert_same_problem(got, parsed(problem, tmp_path))
    edited = got[0].raw_arrays.Q[1, 0, 0] != before[0].raw_arrays.Q[1, 0, 0]
    assert edited == (edit is FALLBACKS["problem-edited-in-place"])
