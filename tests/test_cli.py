"""Command-line wiring: exit codes, file formats, reproducibility.

The CLI is a thin shell, so these tests exercise argument handling and
the emitted artifacts; the numerics behind each command are covered by
the library test modules.
"""

import hashlib
import json
import os
import re
import warnings

import numpy as np
import pytest

from spc_lab import (
    SolverError,
    TreeError,
    build_tree_stagewise,
    compute_constants,
    load_certificate,
    load_problem,
    save_certificate,
    save_problem,
    solve_anticipative,
    solve_here_and_now,
)
from spc_lab import cli, problem_io
from spc_lab.cli import main
from spc_lab.stability import GainCertificate

from .helpers import (
    FIELDS, crossed_tree, depth_one_nonconvex_tree, node_data, random_stages, random_tree,
    sidecar_of, stagewise, unstable_chain,
)
from .oracles import NodeRow, dense_unscaled_solve, here_and_now_dense


def write_problem(path, tree, initial, assumption=None):
    save_problem(str(path), tree, initial, assumption)
    return str(path)


def rng_initial(tree, seed):
    rng = np.random.default_rng(seed)
    return 0.3 * rng.standard_normal(tree.nx), 0.3 * rng.standard_normal(tree.nu)


def zero_data_tree(T=2, branching=2, nx=2, nu=1):
    """Stable dynamics, zero perturbations: the optimum is exactly zero."""
    rng = np.random.default_rng(11)
    stages = []
    for t in range(T + 1):
        outcomes = []
        for b in range(branching if t > 0 else 1):
            A = 0.3 * rng.standard_normal((nx, nx))
            B = 0.4 * rng.standard_normal((nx, nu))
            outcomes.append(
                (
                    node_data(
                        A=A,
                        B=B,
                        d=np.zeros(nx),
                        Q=np.eye(nx),
                        R=np.eye(nu),
                        q=np.zeros(nx),
                        r=np.zeros(nu),
                    ),
                    1.0 / (branching if t > 0 else 1),
                )
            )
        stages.append(outcomes)
    return build_tree_stagewise(stagewise(stages))


def read_summary(path):
    """Parse the '#'-prefixed key=value summary line of a trace file."""
    with open(path) as fh:
        last = fh.readlines()[-1]
    assert last.startswith("# ")
    out = {}
    for part in last[2:].strip().split(","):
        key, val = part.split("=", 1)
        out[key] = float(val)
    return out


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """One CLI-generated certified instance shared by the module."""
    out = tmp_path_factory.mktemp("gen")
    spec = {
        "n_x": 2,
        "n_u": 1,
        "T": 4,
        "branching": 2,
        "L": 1.0,
        "alpha": 0.04,
        "gamma": 1.0,
        "noise_scale": 0.1,
        "seed": 5,
    }
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(
        ["generate", "--input", str(spec_path), "--out", str(out / "gen")]
    )
    assert rc == 0
    return out / "gen"


# ---------------------------------------------------------------- file formats


class TestProblemFile:
    def test_round_trip_explicit(self, tmp_path):
        tree = random_tree(seed=2, T=2, branching=2, nx=2, nu=2)
        initial = rng_initial(tree, 7)
        path = write_problem(
            tmp_path / "p.json",
            tree,
            initial,
            assumption={"L": 1.5, "alpha": 0.3, "gamma": 0.5},
        )
        tree2, initial2, assumption = load_problem(path)
        assert tree2.node_count == tree.node_count
        assert np.array_equal(tree2.parent, tree.parent)
        assert np.array_equal(tree2.stage, tree.stage)
        assert np.array_equal(tree2.pi, tree.pi)
        for a, b in zip(tree2.raw_arrays, tree.raw_arrays):
            assert np.array_equal(a, b)
        for a, b in zip(initial2, initial):
            assert np.array_equal(a, b)
        assert assumption == {"L": 1.5, "alpha": 0.3, "gamma": 0.5}

    def test_stagewise_form(self, tmp_path):
        doc = {
            "dims": {"nx": 1, "nu": 1},
            "horizon": 1,
            "stagewise": [
                [
                    {
                        "prob": 1.0,
                        "A": [[1.0]],
                        "B": [[1.0]],
                        "d": [0.0],
                        "Q": [[1.0]],
                        "R": [[1.0]],
                        "q": [0.0],
                        "r": [0.0],
                    }
                ],
                [
                    {
                        "prob": 0.25,
                        "A": [[0.5]],
                        "B": [[1.0]],
                        "d": [1.0],
                        "Q": [[1.0]],
                        "R": [[1.0]],
                        "q": [0.0],
                        "r": [0.0],
                    },
                    {
                        "prob": 0.75,
                        "A": [[0.5]],
                        "B": [[1.0]],
                        "d": [-1.0],
                        "Q": [[1.0]],
                        "R": [[1.0]],
                        "q": [0.0],
                        "r": [0.0],
                    },
                ],
            ],
            "initial": {"x_prev": [0.0], "u_prev": [0.0]},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        tree, initial, assumption = load_problem(str(path))
        assert tree.node_count == 3
        assert tree.pi[1] == 0.25 and tree.pi[2] == 0.75
        assert tree.raw_arrays.d[1:, 0].tolist() == [1.0, -1.0]
        assert assumption is None

    def test_missing_field_rejected(self, tmp_path):
        outcome = {"A": [[1.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}
        outcome.update(d=[0.0], q=[0.0], r=[0.0])
        no_prob = {
            "dims": {"nx": 1, "nu": 1},
            "horizon": 0,
            "initial": {"x_prev": [0.0], "u_prev": [0.0]},
            "stagewise": [[outcome]],
        }
        valid = {**no_prob, "stagewise": [[{**outcome, "prob": 1.0}]]}
        head = {k: v for k, v in no_prob.items() if k != "stagewise"}
        explicit = {"parents": [-1], "stages": [0], "probs": [1.0], "nodes": [outcome]}
        # a 2-d outcome at stage 4 of a 1-d problem: named as the file does
        plane = {"A": np.eye(2).tolist(), "B": [[1.0], [0.0]], "Q": np.eye(2).tolist()}
        plane.update(d=[0.0, 0.0], q=[0.0, 0.0], prob=0.5)
        halves = [[{**outcome, "prob": 0.5}] * 2 for _ in range(5)]
        halves[3] = [halves[3][0], {**outcome, **plane}]
        deep = {**head, "horizon": 5, "stagewise": [[{**outcome, "prob": 1.0}]] + halves}
        for doc, match in [
            ({"dims": {"nx": 1, "nu": 1}}, "missing"),
            (no_prob, r"stage 0 outcome 0 missing fields \['prob'\]"),
            # blocks of the wrong JSON type are named, not a traceback
            ([valid], "problem file must be a JSON object"),
            ({**valid, "dims": 3}, "dims block must be a JSON object"),
            ({**valid, "initial": [0.0]}, "initial block must be a JSON object"),
            ({**valid, "assumption": 5}, "assumption block must be a JSON object"),
            ({**valid, "stagewise": [[[1.0]]]}, "stage 0 outcome 0 must be a JSON object"),
            ({**head, "explicit": []}, "explicit block must be a JSON object"),
            ({**head, "explicit": {**explicit, "nodes": [5]}}, "node 0 must be a JSON object"),
            ({**head, "stagewise": 5}, "stagewise block must be a JSON array"),
            ({**head, "stagewise": [5]}, "stage 0 must be a JSON array"),
            ({**head, "explicit": {**explicit, "nodes": 5}}, "explicit 'nodes' must be a JSON array"),
            ({**head, "explicit": {**explicit, "parents": 5}}, "explicit 'parents' must be a JSON array"),
            # declared sizes are JSON integers
            ({**valid, "horizon": None}, "^horizon null is not a 64-bit integer$"),
            ({**valid, "horizon": 6.7}, r"^horizon 6\.7 is not a 64-bit integer$"),
            ({**valid, "dims": {"nx": None, "nu": 1}}, "^dims nx null is not a 64-bit integer$"),
            ({**valid, "dims": {"nx": 1, "nu": True}}, "^dims nu true is not a 64-bit integer$"),
            # matrix entries are 64-bit JSON numbers: no overflow, string or boolean
            ({**valid, "stagewise": [[{**outcome, "prob": 1.0, "A": [[10**400]]}]]},
             f"^field A is not numeric: {10**400} is not a 64-bit number$"),
            ({**valid, "stagewise": [[{**outcome, "prob": 1.0, "q": ["0.5"]}]]},
             '^field q is not numeric: "0.5" is not a 64-bit number$'),
            ({**valid, "initial": {"x_prev": [10**400], "u_prev": [0.0]}},
             f"^field x_prev is not numeric: {10**400} is not a 64-bit number$"),
            ({**valid, "initial": {"x_prev": [0.0], "u_prev": ["0.5"]}},
             '^field u_prev is not numeric: "0.5" is not a 64-bit number$'),
            ({**valid, "initial": {"x_prev": [True], "u_prev": [0.0]}},
             "^field x_prev is not numeric: true is not a 64-bit number$"),
            ({**head, "explicit": {**explicit, "nodes": [{**outcome, "R": [[2**63]]}]}},
             f"^field R is not numeric: {2**63} is not a 64-bit number$"),
            # shape faults name the record
            ({**valid, "stagewise": [[{**outcome, "prob": 1.0, "A": np.eye(2).tolist()}]]},
             "^stage 0 outcome 0: A/B dimension mismatch$"),
            (deep, r"^stage 4 outcome 1: data dims \(2, 1\) != \(1, 1\)$"),
        ]:
            path = tmp_path / "p.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(TreeError, match=match):
                load_problem(str(path))
            rc = main(["build-tree", "--input", str(path), "--out", str(tmp_path)])
            assert rc == 2

    def test_malformed_explicit_node_keeps_message(self, tmp_path, capsys):
        tree = random_tree(seed=2, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1))
        wide = NodeRow(random_tree(seed=3, T=1, branching=1, nx=3, nu=1), 0)
        wide = {f: getattr(wide, f).tolist() for f in FIELDS}
        for patch, match in [
            ({"A": [[1.0, 0.0, 0.0]] * 3}, "A/B dimension mismatch"),
            ({"A": [[1.0, 0.0]]}, "^node 3: A/B dimension mismatch$"),
            ({"A": [[1.0, 0.0], [1.0]]}, "field A is not numeric"),
            (wide, r"node 3: data dims \(3, 1\) != \(2, 1\)"),
            (None, "node 3 must be a JSON object"),
            ({"d": [[0.0], [0.0]]}, "q/r/d dimension mismatch"),
            ({"Q": [[1.0, 0.0], [0.0, 1.0, 0.0]]}, "field Q is not numeric"),
            ({"B": [[10**400], [0.0]]}, f"^field B is not numeric: {10**400} is not a 64-bit"),
            ({"q": ["0.5", 0.0]}, '^field q is not numeric: "0.5" is not a 64-bit number$'),
            ({"R": [[False]]}, "^field R is not numeric: false is not a 64-bit number$"),
            ({"A": [[1.0, 0.0], [0.0, {}]]}, "^field A is not numeric: {} is not a 64-bit"),
        ]:
            doc = json.loads(open(path).read())
            nodes = doc["explicit"]["nodes"]
            nodes[3] = [1.0] if patch is None else {**nodes[3], **patch}
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            with pytest.raises(TreeError, match=match):
                load_problem(str(bad))
            rc = main(["build-tree", "--input", str(bad), "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "block, index, value, match",
        [
            ("probs", (1,), float("nan"), "node 1: probability nan is not finite"),
            ("probs", (1,), None, "node 1: probability null is not a 64-bit number"),
            ("parents", (1,), 0.5, "node 1: parent 0.5 is not a 64-bit integer"),
            ("parents", (2,), 10**30, f"node 2: parent {10**30} is not a 64-bit integer"),
            ("parents", (2,), False, "node 2: parent false is not a 64-bit integer"),
            ("stages", (1,), True, "node 1: stage true is not a 64-bit integer"),
            ("nodes", (2, "A", 0, 1), float("nan"), "node 2: non-finite entries in A"),
            ("nodes", (3, "Q", 0, 0), float("inf"), "node 3: non-finite entries in Q"),
        ],
        ids=["nan-prob", "null-prob", "half-parent", "huge-parent", "bool-parent",
             "bool-stage", "nan-A", "inf-Q"],
    )
    def test_non_finite_or_non_integer_entry_exit_2(
        self, tmp_path, capsys, block, index, value, match
    ):
        tree = random_tree(seed=2, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1))
        doc = json.loads(open(path).read())
        target = doc["explicit"][block]
        for key in index[:-1]:
            target = target[key]
        target[index[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(TreeError, match=match):
            load_problem(str(bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["build-tree", "--input", str(bad)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {match}")

    def test_non_finite_initial_pair_exit_2(self, tmp_path, capsys):
        tree = random_tree(seed=2, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1))
        doc = json.loads(open(path).read())
        doc["initial"]["u_prev"][0] = float("-inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["build-tree", "--input", str(bad)]) == 2
        assert "x_prev and u_prev must be finite" in capsys.readouterr().err

    BAD_PAIRS = pytest.mark.parametrize(
        "pair, message",
        [((np.array([np.inf, 0.0]), np.zeros(1)),
          "initial block: x_prev and u_prev must be finite"),
         ((np.zeros(2), np.array([np.nan])),
          "initial block: x_prev and u_prev must be finite"),
         ((np.zeros(3), np.zeros(1)),
          "committed pair dims ((3,), (1,)) do not match tree (2, 1)"),
         ((np.zeros((2, 1)), np.zeros(1)),
          "committed pair dims ((2, 1), (1,)) do not match tree (2, 1)")],
        ids=["inf-x", "nan-u", "long-x", "matrix-x"],
    )

    @BAD_PAIRS
    def test_bad_saved_pair_exits_2_alike_from_both_load_paths(
            self, tmp_path, capsys, monkeypatch, pair, message):
        # save_problem refuses such a pair, so the file and its sidecar are
        # written here: the JSON by hand, the sidecar from the same pair
        tree = random_tree(seed=2, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1))
        doc = json.loads(open(path).read())
        doc["initial"] = {"x_prev": pair[0].tolist(), "u_prev": pair[1].tolist()}
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        problem_io._write_sidecar(path, tree, pair, None)
        plain = tmp_path / "plain" / "p.json"
        plain.parent.mkdir()
        plain.write_bytes(open(path, "rb").read())
        used, read = [], problem_io._read_sidecar

        def spy(*args):
            used.append(read(*args))
            return used[-1]

        monkeypatch.setattr(problem_io, "_read_sidecar", spy)
        errs = []
        for p in (path, str(plain)):
            assert main(["build-tree", "--input", p]) == 2
            errs.append(capsys.readouterr().err)
        assert [u is not None for u in used] == [True, False]
        assert errs == [f"error: {message}\n"] * 2

    @BAD_PAIRS
    def test_save_problem_refuses_bad_pair_and_writes_nothing(self, tmp_path, pair, message):
        tree = random_tree(seed=2, T=2, branching=2, nx=2, nu=1)
        with pytest.raises(TreeError, match=re.escape(message)):
            save_problem(str(tmp_path / "p.json"), tree, pair)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value, text", [(None, "null"), (True, "true")])
    def test_non_number_stagewise_probability_exit_2(self, tmp_path, capsys, value, text):
        outcome = {"A": [[1.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}
        outcome.update(d=[0.0], q=[0.0], r=[0.0])
        doc = {
            "dims": {"nx": 1, "nu": 1},
            "horizon": 1,
            "initial": {"x_prev": [0.0], "u_prev": [0.0]},
            "stagewise": [
                [{**outcome, "prob": 1.0}],
                [{**outcome, "prob": 0.5}, {**outcome, "prob": value}],
            ],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        match = f"stage 1 outcome 1: probability {text} is not a 64-bit number"
        with pytest.raises(TreeError, match=match):
            load_problem(str(path))
        assert main(["build-tree", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {match}\n"

    @pytest.mark.parametrize(
        "value, text", [(None, "null"), (True, "true"), (float("nan"), "NaN")]
    )
    def test_non_finite_or_non_number_assumption_exit_2(
        self, tmp_path, capsys, value, text
    ):
        tree = random_tree(seed=2, T=1, branching=2, nx=2, nu=1)
        assumption = {"L": 1.5, "alpha": 0.3, "gamma": 0.5}
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1), assumption)
        doc = json.loads(open(path).read())
        doc["assumption"]["gamma"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["constants", "--input", str(bad), "--out", str(tmp_path)]) == 2
        message = f"error: assumption gamma {text} is not a finite number\n"
        assert capsys.readouterr().err == message

    def test_dims_mismatch_rejected(self, tmp_path):
        tree = random_tree(seed=2, T=1, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1))
        doc = json.loads(open(path).read())
        doc["dims"]["nx"] = 3
        path2 = tmp_path / "q.json"
        path2.write_text(json.dumps(doc))
        with pytest.raises(TreeError, match="dims"):
            load_problem(str(path2))

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("not json {")
        with pytest.raises(TreeError, match="JSON"):
            load_problem(str(path))


class TestCertificateFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cert = GainCertificate(
            [0, 1], rng.standard_normal((2, 1, 2)), L=1.25, alpha=0.5, role="detectability"
        )
        path = tmp_path / "c.json"
        save_certificate(str(path), cert)
        back = load_certificate(str(path))
        assert back.role == "detectability"
        assert back.L == 1.25 and back.alpha == 0.5
        assert back.nodes.tolist() == [0, 1]
        assert np.array_equal(back.K, cert.K)

    def test_missing_claim_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        for doc, match in [
            ({"K": {"0": [[1.0]]}, "L": 1.0}, "alpha"),
            ({"K": [[[1.0]]], "L": 1.0, "alpha": 0.5}, "'K' block must be a JSON object"),
            ([1.0], "certificate file must be a JSON object"),
        ]:
            path.write_text(json.dumps(doc))
            with pytest.raises(TreeError, match=match):
                load_certificate(str(path))


# ---------------------------------------------------------------------- solve


class TestSolve:
    def test_dynamics_check_names_worst_node(self):
        tree = random_tree(seed=6, T=3, branching=2, nx=2, nu=1)
        initial = rng_initial(tree, 2)
        rng = np.random.default_rng(8)
        u = rng.standard_normal((tree.node_count, tree.nu))
        x = np.empty((tree.node_count, tree.nx))
        for n in range(tree.node_count):
            nd, p = NodeRow(tree, n), int(tree.parent[n])
            xp, up = initial if p < 0 else (x[p], u[p])
            x[n] = nd.A @ xp + nd.B @ up + nd.d
        cli._check_dynamics(tree, x, u, initial, 1e-12)
        x[9] = x[9] + [1e-4, 0.0]  # leaves: no child sees the change
        x[12] = x[12] + [0.0, 1e-3]
        with pytest.raises(SolverError, match=r"residual 1\.000e-03 at node 12 exceeds"):
            cli._check_dynamics(tree, x, u, initial, 1e-8)
        x[10] = np.array([np.nan, 0.0])
        with pytest.raises(SolverError, match="residual nan at node 10 exceeds"):
            cli._check_dynamics(tree, x, u, initial, 1e-8)

    def test_zero_data_objective_is_zero(self, tmp_path, capsys):
        tree = zero_data_tree()
        path = write_problem(
            tmp_path / "p.json", tree, (np.zeros(tree.nx), np.zeros(tree.nu))
        )
        rc = main(["solve", "--input", path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "J=0.0" in out
        summary = read_summary(tmp_path / "trace.csv")
        assert summary["J"] == 0.0

    def test_malformed_probabilities_exit_2(self, tmp_path, capsys):
        tree = random_tree(seed=3, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 0))
        doc = json.loads(open(path).read())
        doc["explicit"]["probs"][1] = 0.9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["solve", "--input", str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "children sum" in err

    def test_optimal_objective_matches_dense_oracle(self, tmp_path):
        tree = random_tree(seed=3, T=2, branching=2, nx=2, nu=1)
        assert tree.node_count == 7
        initial = rng_initial(tree, 4)
        path = write_problem(tmp_path / "p.json", tree, initial)
        rc = main(
            ["solve", "--input", path, "--out", str(tmp_path), "--policy", "optimal"]
        )
        assert rc == 0
        summary = read_summary(tmp_path / "trace.csv")
        _, _, _, obj = dense_unscaled_solve(
            tree, 0, tuple(range(7)), initial
        )
        assert summary["J"] == pytest.approx(obj, abs=1e-8)

    def test_trace_rows_carry_tree_layout(self, tmp_path):
        tree = random_tree(seed=3, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 4))
        main(["solve", "--input", path, "--out", str(tmp_path)])
        lines = open(tmp_path / "trace.csv").read().splitlines()
        assert lines[0] == "node,stage,parent,pi,x[0],x[1],u[0]"
        assert len(lines) == 1 + tree.node_count + 1
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "-1"]

    def test_hn_objective_matches_library(self, tmp_path):
        tree = random_tree(seed=6, T=2, branching=2, nx=2, nu=1)
        initial = rng_initial(tree, 6)
        path = write_problem(tmp_path / "p.json", tree, initial)
        rc = main(
            ["solve", "--input", path, "--out", str(tmp_path), "--policy", "hn"]
        )
        assert rc == 0
        summary = read_summary(tmp_path / "trace.csv")
        hn = solve_here_and_now(tree, initial)
        assert summary["J"] == pytest.approx(hn.objective, rel=1e-12)

    def test_an_paths_file(self, tmp_path):
        tree = random_tree(seed=6, T=2, branching=2, nx=2, nu=1)
        initial = rng_initial(tree, 6)
        path = write_problem(tmp_path / "p.json", tree, initial)
        rc = main(
            ["solve", "--input", path, "--out", str(tmp_path), "--policy", "an"]
        )
        assert rc == 0
        an = solve_anticipative(tree, initial)
        summary = read_summary(tmp_path / "paths.csv")
        assert summary["J"] == pytest.approx(an.objective, rel=1e-12)
        lines = open(tmp_path / "paths.csv").read().splitlines()
        assert lines[0] == "leaf,pi,J_path"
        assert len(lines) == 1 + len(tree.leaves()) + 1

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(
            ["solve", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_linalg_error_exit_3(self, generated, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which would read as an input error
        def broken(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "solve_optimal", broken)
        rc = main(
            ["solve", "--input", str(generated / "problem.json"), "--out", str(tmp_path)]
        )
        assert rc == 3
        assert "solver error" in capsys.readouterr().err


def test_out_of_memory_exits_2_in_one_line(tmp_path, monkeypatch, capsys):
    # numpy raises its _ArrayMemoryError, a MemoryError, when an array
    # cannot be allocated; a command that runs out must end in one stderr
    # line, not a traceback.  Nothing large is allocated here
    message = "Unable to allocate 8.00 TiB for an array with shape (2**20, 2**20)"

    def starved(args):
        raise MemoryError(message)

    monkeypatch.setitem(cli.HANDLERS, "build-tree", starved)
    rc = main(["build-tree", "--input", str(tmp_path / "p.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: out of memory: {message}\n"
    assert "Traceback" not in err


# ------------------------------------------------------------------------ spc


def write_nonconvex_problem(path, horizon):
    """Scalar stagewise problem with Q = -5 and two branches per stage."""
    def outcome(prob, d, q):
        return {"prob": prob, "A": [[1.0]], "B": [[1.0]], "d": [d],
                "Q": [[-5.0]], "R": [[1.0]], "q": [q], "r": [0.0]}

    branches = [outcome(0.5, 0.1, 0.1), outcome(0.5, -0.1, -0.1)]
    doc = {
        "dims": {"nx": 1, "nu": 1},
        "horizon": horizon,
        "stagewise": [[outcome(1.0, 0.0, 0.1)]] + [branches] * horizon,
        "initial": {"x_prev": [0.3], "u_prev": [0.1]},
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestSpc:
    def test_full_window_zero_regret(self, tmp_path, capsys):
        tree = random_tree(seed=9, T=3, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 9))
        rc = main(
            ["spc", "--input", path, "--out", str(tmp_path), "--W", "3"]
        )
        assert rc == 0
        summary = read_summary(tmp_path / "trace.csv")
        assert set(summary) == {"J_W", "J_star", "regret"}
        assert abs(summary["regret"]) <= 1e-8

    def test_window_out_of_range_exit_2(self, tmp_path):
        tree = random_tree(seed=9, T=3, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 9))
        assert main(["spc", "--input", path, "--out", str(tmp_path), "--W", "9"]) == 2
        assert main(["spc", "--input", path, "--out", str(tmp_path), "--W", "-1"]) == 2
        assert main(["spc", "--input", path, "--out", str(tmp_path), "--W", "x"]) == 2

    def test_undercut_regret_exit_3(self, tmp_path, capsys):
        # Q < 0 makes the problem nonconvex: the full-horizon stationary
        # point is a saddle, which the policy's cost would fall below; the
        # root's W = 1 window has step matrix 1 - 5 = -4 and is refused
        path = write_nonconvex_problem(tmp_path / "p.json", horizon=2)
        rc = main(["spc", "--input", path, "--out", str(tmp_path), "--W", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "node 0, window 1: step matrix not positive definite" in err
        assert "smallest eigenvalue -4.000e+00; the problem is nonconvex" in err

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--policy", "optimal"], ["solve", "--policy", "hn"],
         ["solve", "--policy", "an"], ["spc", "--W", "2"]],
        ids=["optimal", "hn", "an", "spc"],
    )
    def test_nonconvex_problem_refused_exit_3(self, argv, tmp_path, capsys):
        path = write_nonconvex_problem(tmp_path / "p.json", horizon=2)
        assert main(argv + ["--input", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert re.search(r"node \d+, window [12]: step matrix not positive definite", err)
        assert err.rstrip().endswith("the problem is nonconvex")
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def write_random_stagewise_problem(path):
    """The stagewise file of ``random_tree(seed=3, nu=2)``."""
    stages = random_stages(seed=3, nu=2)
    tree = build_tree_stagewise(stagewise(stages))
    initial = rng_initial(tree, 3)
    doc = {
        "dims": {"nx": 2, "nu": 2},
        "horizon": len(stages) - 1,
        "stagewise": [[{"prob": p, **{f: getattr(nd, f).tolist() for f in FIELDS}}
                       for nd, p in outcomes] for outcomes in stages],
        "initial": {"x_prev": initial[0].tolist(), "u_prev": initial[1].tolist()},
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "write",
    [write_random_stagewise_problem, lambda path: write_nonconvex_problem(path, 3)],
    ids=["random", "nonconvex"],
)
def test_stagewise_and_explicit_files_agree(tmp_path, capsys, write):
    # the explicit file is what save_problem writes from the loaded tree
    stagewise_path = write(tmp_path / "stagewise.json")
    tree, initial, assumption = load_problem(stagewise_path)
    explicit_path = write_problem(tmp_path / "explicit.json", tree, initial, assumption)
    tree2, _, _ = load_problem(explicit_path)
    for a, b in zip((tree.parent, tree.stage, tree.pi, *tree.raw_arrays),
                    (tree2.parent, tree2.stage, tree2.pi, *tree2.raw_arrays)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for argv in (["solve", "--policy", "optimal"], ["solve", "--policy", "hn"],
                 ["solve", "--policy", "an"], ["spc", "--W", "1"]):
        runs = []
        for name, path in (("s", stagewise_path), ("e", explicit_path)):
            out = tmp_path / f"{argv[-1]}-{name}"
            rc = main(argv + ["--input", path, "--out", str(out)])
            files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
            runs.append((rc, capsys.readouterr(), files))
        assert runs[0] == runs[1], argv


def oracle_trace(tree, initial, argv):
    """The (x, u) rows ``trace.csv`` should hold, node by node, from the
    dense oracles."""
    w_prev, N = initial, tree.node_count
    if "hn" in argv:
        v, x, _ = here_and_now_dense(tree, w_prev)
        return [np.r_[x[n], v[int(tree.stage[n])]] for n in range(N)]
    if "optimal" in argv:
        x, u, _, _ = dense_unscaled_solve(tree, 0, tuple(range(N)), w_prev)
        return [np.r_[x[n], u[n]] for n in range(N)]
    W, rows = int(argv[-1]), []
    for k in range(N):
        # k commits the first decision of its own window, solved from its
        # parent's commitment (the initial pair at the root)
        par = int(tree.parent[k])
        prev = w_prev if par < 0 else np.split(rows[par], [tree.nx])
        window = [j for j in range(N) if tree.ancestors[j, tree.stage[k]] == k
                  and tree.stage[j] <= tree.stage[k] + W]
        x, u, _, _ = dense_unscaled_solve(tree, k, tuple(window), prev)
        rows.append(np.r_[x[k], u[k]])
    return rows


@pytest.mark.parametrize(
    "argv",
    [["solve", "--policy", "optimal"], ["solve", "--policy", "hn"], ["spc", "--W", "2"]],
    ids=["optimal", "hn", "spc"],
)
def test_crossed_tree_trace_rows_in_node_order(tmp_path, argv):
    # children listed crosswise: a window's breadth-first order (0, 1, 2,
    # 4, 3) differs from its node order (0, 1, 2, 3, 4)
    tree = crossed_tree(np.random.default_rng(5))
    initial = rng_initial(tree, 5)
    path = write_problem(tmp_path / "p.json", tree, initial)
    assert main([*argv, "--input", path, "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "trace.csv").read().splitlines()[1:-1]
    rows = np.array([line.split(",") for line in lines], dtype=float)
    assert rows[:, 0].tolist() == list(range(tree.node_count))
    assert rows[:, 2].tolist() == tree.parent.tolist()
    expected = oracle_trace(tree, initial, argv)
    np.testing.assert_allclose(rows[:, 4:], expected, rtol=0, atol=1e-8)


# ---------------------------------------------------------------- regret sweep


class TestRegretSweep:
    def test_single_full_window_row(self, generated, tmp_path, capsys):
        rc = main(
            [
                "regret-sweep",
                "--input",
                str(generated / "problem.json"),
                "--out",
                str(tmp_path),
                "--W",
                "4..4",
            ]
        )
        assert rc == 0
        lines = open(tmp_path / "regret.csv").read().splitlines()
        assert (
            lines[0] == "W,J_W,J_star,regret,bound,applies,Wbar,rho"
        )
        rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(rows) == 1
        regret = float(rows[0].split(",")[3])
        assert abs(regret) <= 1e-8

    def test_identical_bytes_on_rerun(self, generated, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(
                [
                    "regret-sweep",
                    "--input",
                    str(generated / "problem.json"),
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
        assert (a / "regret.csv").read_bytes() == (b / "regret.csv").read_bytes()
        assert (a / "run.json").read_bytes() == (b / "run.json").read_bytes()

    def test_full_sweep_passes(self, generated, tmp_path):
        rc = main(
            [
                "regret-sweep",
                "--input",
                str(generated / "problem.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        manifest = json.loads(open(tmp_path / "run.json").read())
        assert manifest["passed"] is True
        assert manifest["command"] == "regret-sweep"
        assert "constants" in manifest and "timestamp" not in manifest
        trailer = open(tmp_path / "regret.csv").read().splitlines()[-1]
        assert "passed=true" in trailer

    def test_nonconvex_window_refused_exit_3(self, tmp_path, capsys):
        # window 0 runs; the depth-1 subproblem at node 6 is nonconvex
        tree = depth_one_nonconvex_tree()
        initial = (np.array([0.3]), np.array([0.1]))
        path = write_problem(
            tmp_path / "p.json", tree, initial, {"L": 5.0, "alpha": 0.5, "gamma": 1.0}
        )
        rc = main(["regret-sweep", "--input", path, "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "node 6, window 1: step matrix not positive definite" in err
        assert err.rstrip().endswith("the problem is nonconvex")

    def test_requires_assumption_block(self, tmp_path, capsys):
        tree = random_tree(seed=3, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1))
        rc = main(["regret-sweep", "--input", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "assumption" in capsys.readouterr().err


# --------------------------------------------------------------------- verify


class TestVerify:
    def test_norms_suite_passes_on_any_fixture(self, tmp_path, capsys):
        # T=0 has no stage-1 node to draw a second root from
        for T in (2, 0):
            tree = random_tree(seed=12, T=T, branching=3, nx=2, nu=2)
            path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 2))
            rc = main(["verify-bounds", "--suite", "norms", "--input", path,
                       "--out", str(tmp_path)])
            assert rc == 0
            assert "all checks passed: norms" in capsys.readouterr().out
            report = json.loads(open(tmp_path / "verify_report.json").read())
            assert report["passed"] is True
            assert report["suites"] == ["norms"]

    def test_inflated_gain_exit_4(self, generated, tmp_path, capsys):
        cert = json.loads(open(generated / "stabilizability.json").read())
        node = next(iter(cert["K"]))
        cert["K"][node] = [[40.0 * v for v in row] for row in cert["K"][node]]
        bad = tmp_path / "bad_cert.json"
        bad.write_text(json.dumps(cert))
        rc = main(
            [
                "verify-bounds",
                "--input",
                str(generated / "problem.json"),
                "--suite",
                "stability",
                "--cert",
                str(bad),
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 4
        assert "gain bound violated" in out

    def test_nonconvex_regularity_exit_4(self, tmp_path, capsys):
        # the reduced Hessian of the Q = -5 problem has smallest eigenvalue
        # -4.008 on its 15-dimensional null space: below gamma_G = 0
        path = write_nonconvex_problem(tmp_path / "p.json", horizon=3)
        rc = main(
            ["verify-bounds", "--input", path, "--suite", "regularity",
             "--out", str(tmp_path)]
        )
        assert rc == 4
        assert "ReH_min_eig=-4.008" in capsys.readouterr().out
        report = json.loads(open(tmp_path / "verify_report.json").read())
        detail = report["summary"]["regularity"]["detail"]
        assert detail["ReH_min_eig"] == pytest.approx(-4.0080869578432985, rel=1e-10)

    def test_suite_all_on_generated_instance(self, generated, tmp_path, capsys):
        rc = main(
            [
                "verify-bounds",
                "--input",
                str(generated / "problem.json"),
                "--suite",
                "all",
                "--cert",
                str(generated / "stabilizability.json"),
                "--cert",
                str(generated / "detectability.json"),
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "all checks passed: norms,regularity,stability,lemmas,theorems" in out
        report = json.loads(open(tmp_path / "verify_report.json").read())
        assert report["passed"] is True
        for suite in ("norms", "regularity", "stability", "lemmas", "theorems"):
            assert report["summary"][suite]["passed"] is True
        for name in ("moments.csv", "regret.csv", "decay.csv"):
            assert (tmp_path / name).exists()

    def test_decay_csv_columns(self, generated, tmp_path):
        main(
            [
                "verify-bounds",
                "--input",
                str(generated / "problem.json"),
                "--suite",
                "theorems",
                "--out",
                str(tmp_path),
            ]
        )
        lines = open(tmp_path / "decay.csv").read().splitlines()
        assert lines[0] == "t,tprime,psi_norm,omega_norm,bound"
        assert len(lines) == 1 + 5 * 5
        for line in lines[1:]:
            t, tp, psi, omega, bound = line.split(",")
            assert float(psi) <= float(bound) and float(omega) <= float(bound)

    def test_lemmas_without_assumption_exit_2(self, tmp_path, capsys):
        tree = random_tree(seed=3, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1))
        rc = main(
            [
                "verify-bounds",
                "--input",
                path,
                "--suite",
                "lemmas",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "assumption" in capsys.readouterr().err

    def test_regularity_on_open_loop_unstable_chain(self, tmp_path, capsys):
        # A = 2 over 61 stages: G = I on a convex problem, so the reduced
        # Hessian's smallest eigenvalue is 1, however unstable the dynamics
        tree = unstable_chain(60)
        initial = (np.array([1.0]), np.array([0.0]))
        path = write_problem(tmp_path / "p.json", tree, initial)
        rc = main(
            ["verify-bounds", "--input", path, "--suite", "regularity",
             "--out", str(tmp_path)]
        )
        assert rc == 0, capsys.readouterr().out
        report = json.loads(open(tmp_path / "verify_report.json").read())
        detail = report["summary"]["regularity"]["detail"]
        assert detail["ReH_min_eig"] == pytest.approx(1.0, rel=1e-10)

    def test_regularity_without_constants_is_structural(self, tmp_path):
        tree = random_tree(seed=3, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1))
        rc = main(
            [
                "verify-bounds",
                "--input",
                path,
                "--suite",
                "regularity",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0


# -------------------------------------------------------------------- certify


class TestCertify:
    def test_valid_certificates_pass(self, generated, capsys):
        rc = main(
            [
                "certify",
                "--input",
                str(generated / "problem.json"),
                "--cert",
                str(generated / "stabilizability.json"),
                "--cert",
                str(generated / "detectability.json"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "stabilizability" in out and "detectability" in out

    def test_inflated_gain_exit_4(self, generated, tmp_path, capsys):
        cert = json.loads(open(generated / "detectability.json").read())
        node = next(iter(cert["K"]))
        cert["K"][node] = [[40.0 * v for v in row] for row in cert["K"][node]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        rc = main(
            [
                "certify",
                "--input",
                str(generated / "problem.json"),
                "--cert",
                str(bad),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 4
        assert "gain bound violated" in out


    def _certify(self, generated, tmp_path, role, edit):
        cert = json.loads(open(generated / f"{role}.json").read())
        edit(cert["K"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        return main(
            ["certify", "--input", str(generated / "problem.json"), "--cert", str(bad)]
        )

    def test_misshaped_gain_exit_2(self, generated, tmp_path, capsys):
        rc = self._certify(
            generated, tmp_path, "stabilizability",
            lambda K: K.update({"3": [[0.1, 0.2, 0.3]]}),
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: gain for node 3 has shape (1, 3), expected (1, 2)\n"
        )

    def test_mixed_shape_certificate_exit_2(self, generated, tmp_path, capsys):
        # all gains of a certificate share one shape: an odd gain at a leaf,
        # which the stabilizability check never reads, is refused at load
        rc = self._certify(
            generated, tmp_path, "stabilizability",
            lambda K: K.update({"30": [[0.1, 0.2, 0.3]]}),
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: gain for node 30 has shape (1, 3), expected (1, 2)\n"
        )

    @pytest.mark.parametrize(
        "role, edit, message",
        [
            ("stabilizability", lambda c: c.update(L=float("nan")),
             "certificate L NaN is not a finite number"),
            ("stabilizability", lambda c: c.update(L=True),
             "certificate L true is not a finite number"),
            ("detectability", lambda c: c["K"]["2"][0].__setitem__(0, float("nan")),
             "gain for node 2 has non-finite entries"),
            ("detectability", lambda c: c["K"]["3"][1].__setitem__(1, float("-inf")),
             "gain for node 3 has non-finite entries"),
            ("stabilizability", lambda c: c["K"].update(x=c["K"]["0"]),
             'certificate gain key "x" is not a node id'),
            # refused, not read as a number that moves the verdict
            ("stabilizability", lambda c: c["K"]["3"][0].__setitem__(1, "0.5"),
             'field K[3] is not numeric: "0.5" is not a 64-bit number'),
            ("detectability", lambda c: c["K"]["3"][1].__setitem__(0, True),
             "field K[3] is not numeric: true is not a 64-bit number"),
            ("detectability", lambda c: c["K"]["3"][0].__setitem__(0, 10**400),
             f"field K[3] is not numeric: {10**400} is not a 64-bit number"),
        ],
        ids=["nan-L", "bool-L", "nan-gain", "inf-gain", "non-integer-key", "string-gain",
             "bool-gain", "overflow-gain"],
    )
    def test_malformed_certificate_exit_2(
        self, generated, tmp_path, capsys, role, edit, message
    ):
        cert = json.loads(open(generated / f"{role}.json").read())
        edit(cert)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(
                ["certify", "--input", str(generated / "problem.json"), "--cert", str(bad)]
            )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_first_gain_fault_in_node_order_decides(self, generated, tmp_path, capsys):
        def big_then_missing(first, second):
            def edit(K):
                K[first] = [[40.0 * v for v in row] for row in K[first]]
                del K[second]
            return edit

        rc = self._certify(
            generated, tmp_path, "detectability", big_then_missing("2", "5")
        )
        assert rc == 4
        assert "gain bound violated: node 2 has" in capsys.readouterr().out
        rc = self._certify(
            generated, tmp_path, "detectability", big_then_missing("5", "2")
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: missing gain for node 2\n"


# ---------------------------------------------------------- constants/generate


class TestConstantsCmd:
    def test_matches_library_bundle(self, generated, tmp_path, capsys):
        rc = main(
            [
                "constants",
                "--input",
                str(generated / "problem.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        written = json.loads(open(tmp_path / "constants.json").read())
        tree, initial, assumption = load_problem(str(generated / "problem.json"))
        c = compute_constants(
            assumption["L"],
            assumption["alpha"],
            assumption["gamma"],
            tree=tree,
            w_prev=initial,
        )
        assert written["gamma_F"] == c.gamma_F
        assert written["gamma_G"] == c.gamma_G
        assert written["rho"] == c.rho
        assert written["one_minus_rho"] == c.one_minus_rho
        assert written["D"] == c.D


SEED_5_T6_SHA256 = {
    "problem.json": "7c9e5fb674dec5fd959fe36ec6192952c91a701fbcb25edcd413834b023d1f9a",
    "stabilizability.json": "6f911e1db1666ad39ede45906bc2419b09db3e30bb3007e6691b208c3784251b",
    "detectability.json": "8db3414d375b5a4392e2641d829b41a2005577cdfc46e2d5c4eb4bf3abc05833",
}

# T=10, 2047 nodes: the instance that the bench's instance workload times
SEED_5_T10_SHA256 = {
    "problem.json": "5d2654fe6fcdcb9386439c80cf3a1abb649607f9442f55622bce6738ffc52d7a",
    "stabilizability.json": "0df80f347153c14753bf0da8781de1338e3b5fd0b808dd53a47516db7a08c1c4",
    "detectability.json": "bb655ac7c036cc6482a227c09f42e4d8dcf478704164b9aefbc4e7f53f3b9add",
}


class TestGenerate:
    def test_writes_expected_files(self, generated):
        for name in (
            "problem.json",
            "problem.json.arrays",
            "stabilizability.json",
            "detectability.json",
            "constants.json",
            "run.json",
        ):
            assert (generated / name).exists()

    def test_wrote_line_names_the_sidecar(self, tmp_path, capsys):
        assert main(["generate", "--seed", "5", "--out", str(tmp_path / "g")]) == 0
        assert capsys.readouterr().out == (
            "wrote problem.json problem.json.arrays detectability.json "
            "stabilizability.json constants.json run.json\n"
        )
        assert sorted(os.listdir(tmp_path / "g")) == sorted(
            ["problem.json", "problem.json.arrays", "detectability.json",
             "stabilizability.json", "constants.json", "run.json"]
        )

    def test_deterministic_bytes(self, generated, tmp_path):
        spec = {
            "n_x": 2,
            "n_u": 1,
            "T": 4,
            "branching": 2,
            "L": 1.0,
            "alpha": 0.04,
            "gamma": 1.0,
            "noise_scale": 0.1,
            "seed": 5,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(
            ["generate", "--input", str(spec_path), "--out", str(tmp_path / "g")]
        )
        assert rc == 0
        for name in ("problem.json", "problem.json.arrays", "stabilizability.json",
                     "constants.json"):
            assert (tmp_path / "g" / name).read_bytes() == (
                generated / name
            ).read_bytes()

    @staticmethod
    def _digests(tmp_path, T, names):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"T": T}))
        out = tmp_path / "g"
        assert main(["generate", "--input", str(spec_path), "--seed", "5",
                     "--out", str(out)]) == 0
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in names}

    def test_seed_5_bytes_are_pinned(self, tmp_path):
        # SHA-256 of `generate --seed 5` at T=6, recorded before the node
        # draws were batched, so that a change to the draws cannot drift
        # silently.  The unit vectors' norms run the BLAS dot, so these
        # bytes are those of x86-64 with numpy's bundled OpenBLAS
        assert self._digests(tmp_path, 6, SEED_5_T6_SHA256) == SEED_5_T6_SHA256

    def test_seed_5_t10_bytes_are_pinned(self, tmp_path):
        # the same at T=10, recorded before the node seeding was batched
        assert self._digests(tmp_path, 10, SEED_5_T10_SHA256) == SEED_5_T10_SHA256

    def test_generated_problem_verifies(self, generated, tmp_path):
        rc = main(
            [
                "certify",
                "--input",
                str(generated / "problem.json"),
                "--cert",
                str(generated / "stabilizability.json"),
            ]
        )
        assert rc == 0

    def test_seed_flag_changes_instance(self, tmp_path):
        rc = main(["generate", "--seed", "6", "--out", str(tmp_path / "s6")])
        assert rc == 0
        rc = main(["generate", "--seed", "7", "--out", str(tmp_path / "s7")])
        assert rc == 0
        a = (tmp_path / "s6" / "problem.json").read_bytes()
        b = (tmp_path / "s7" / "problem.json").read_bytes()
        assert a != b

    def test_unknown_spec_field_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        for doc, message in [
            ({"horizon": 4}, "unknown fields"),
            ([4], "spec file must be a JSON object"),
            ({"T": None}, "error: spec T null is not a 64-bit integer\n"),
            ({"T": 2.5}, "error: spec T 2.5 is not a 64-bit integer\n"),
            ({"T": True}, "error: spec T true is not a 64-bit integer\n"),
            ({"seed": 1.9}, "error: spec seed 1.9 is not a 64-bit integer\n"),
            ({"alpha": None}, "error: spec alpha null is not a finite number\n"),
        ]:
            spec_path.write_text(json.dumps(doc))
            rc = main(
                ["generate", "--input", str(spec_path), "--out", str(tmp_path / "g")]
            )
            assert rc == 2
            assert message in capsys.readouterr().err


class TestSidecar:
    """The array sidecar that ``generate`` writes beside problem.json."""

    @pytest.fixture
    def small(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps({"T": 2}))
        assert main(["generate", "--input", str(tmp_path / "spec.json"), "--seed", "5",
                     "--out", str(tmp_path / "in")]) == 0
        return tmp_path / "in"

    @staticmethod
    def snapshot(directory):
        return {e.name: (e.is_dir(), e.stat().st_mtime_ns,
                         None if e.is_dir() else open(e.path, "rb").read())
                for e in os.scandir(directory)}

    @pytest.mark.parametrize("with_sidecar", [True, False], ids=["sidecar", "no-sidecar"])
    def test_read_only_commands_leave_the_input_directory_alone(
            self, small, tmp_path, capsys, with_sidecar):
        if not with_sidecar:
            sidecar_of(small / "problem.json").unlink()
        p, out = str(small / "problem.json"), tmp_path / "out"
        certs = ["--cert", str(small / "stabilizability.json"),
                 "--cert", str(small / "detectability.json")]
        runs = {
            "build-tree": ["build-tree", "--input", p],
            **{f"solve-{policy}": ["solve", "--policy", policy, "--input", p]
               for policy in ("optimal", "hn", "an")},
            "spc": ["spc", "--input", p, "--W", "1"],
            "regret-sweep": ["regret-sweep", "--input", p],
            "certify": ["certify", "--input", p, *certs],
            "constants": ["constants", "--input", p],
            "verify-bounds": ["verify-bounds", "--suite", "all", "--input", p, *certs],
            "verify-bounds-norms": ["verify-bounds", "--suite", "norms", "--input", p],
        }
        before = self.snapshot(small)
        assert ("problem.json.arrays" in before) == with_sidecar
        for label, argv in runs.items():
            outdir = [] if label == "certify" else ["--out", str(out / label)]
            assert main(argv + outdir) == 0, label
            assert self.snapshot(small) == before, label
        capsys.readouterr()

    def test_overflow_written_over_the_file_exits_2_as_parsed(self, small, tmp_path, capsys):
        # the CI overflow edit, written over the generated file: its sidecar
        # no longer matches, and the parse path refuses the integer
        problem = small / "problem.json"
        doc = json.loads(problem.read_text())
        doc["explicit"]["nodes"][3]["A"][0][1] = 10**400
        problem.write_text(json.dumps(doc))
        plain = tmp_path / "plain" / "problem.json"
        plain.parent.mkdir()
        plain.write_bytes(problem.read_bytes())
        errs = []
        for path in (problem, plain):
            assert main(["build-tree", "--input", str(path), "--out", str(tmp_path / "bt")]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].startswith("error: ") and "Traceback" not in errs[0]
        assert "is not a 64-bit number" in errs[0]

    def test_doubled_q_entry_changes_j(self, small, tmp_path, capsys):
        copy = tmp_path / "copy"
        copy.mkdir()
        for name in ("problem.json", "problem.json.arrays"):
            (copy / name).write_bytes((small / name).read_bytes())
        problem = small / "problem.json"
        doc = json.loads(problem.read_text())
        doc["explicit"]["nodes"][1]["Q"][0][0] *= 2
        problem.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        J = []
        for path in (problem, copy / "problem.json"):
            assert main(["solve", "--policy", "optimal", "--input", str(path),
                         "--out", str(tmp_path / f"solve-{len(J)}")]) == 0
            J.append(re.search(r"\bJ=(\S+)", capsys.readouterr().out).group(1))
        assert J[0] != J[1]


class TestBuildTree:
    def test_summary_line_and_file(self, tmp_path, capsys):
        tree = random_tree(seed=1, T=2, branching=2, nx=2, nu=1)
        path = write_problem(tmp_path / "p.json", tree, rng_initial(tree, 1))
        rc = main(["build-tree", "--input", path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nodes=7 horizon=2 leaves=4" in out
        summary = json.loads(open(tmp_path / "tree_summary.json").read())
        assert summary["node_count"] == 7
        assert summary["stage_sizes"] == [1, 2, 4]


# ---------------------------------------------------------- filesystem errors


class TestFilesystemErrors:
    def test_build_tree_input_directory_exit_2(self, tmp_path, capsys):
        assert main(["build-tree", "--input", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_verify_cert_directory_exit_2(self, generated, tmp_path, capsys):
        rc = main(
            ["verify-bounds", "--suite", "stability", "--input",
             str(generated / "problem.json"), "--cert", str(tmp_path),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_solve_out_existing_file_exit_2(self, generated, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(
            ["solve", "--input", str(generated / "problem.json"), "--out", str(taken)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


# ------------------------------------------------------------ tolerance flags


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--tol-kkt"],
        ["spc", "--tol-kkt"],
        ["verify-bounds", "--suite", "lemmas", "--tol-bound"],
        ["verify-bounds", "--suite", "norms", "--tol-bound"],
    ],
    ids=["solve", "spc", "verify-bounds", "verify-bounds-norms"],
)
def test_bad_tolerance_exit_2(generated, tmp_path, capsys, argv, value):
    # refused by argparse before any work is done
    with pytest.raises(SystemExit) as exc:
        main(argv + [value, "--input", str(generated / "problem.json"),
                     "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "expected a finite number >= 0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_zero_and_exponent_tolerances_parse():
    parse = cli.build_parser().parse_args
    assert parse(["solve", "--input", "p", "--tol-kkt", "0"]).tol_kkt == 0.0
    assert parse(["verify-bounds", "--suite", "norms", "--input", "p", "--tol-bound",
                  "1e-300"]).tol_bound == 1e-300


@pytest.mark.parametrize(
    "argv, refusal",
    [(["build-tree", "--seed", "1"], "unrecognized arguments: --seed 1"),
     (["solve", "--seed", "1"], "unrecognized arguments: --seed 1"),
     (["spc", "--seed", "1"], "unrecognized arguments: --seed 1"),
     (["certify", "--cert", "c.json", "--seed", "1"], "unrecognized arguments: --seed 1"),
     (["constants", "--seed", "1"], "unrecognized arguments: --seed 1"),
     (["certify", "--cert", "c.json", "--out", "o"], "unrecognized arguments: --out o"),
     (["verify-norms"], "invalid choice: 'verify-norms'")],
    ids=["build-tree-seed", "solve-seed", "spc-seed", "certify-seed", "constants-seed",
         "certify-out", "verify-norms"],
)
def test_flags_no_handler_reads_exit_2(tmp_path, capsys, argv, refusal):
    # refused by argparse before the problem file is opened
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    assert refusal in capsys.readouterr().err
