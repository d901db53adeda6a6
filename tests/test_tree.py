"""Tree construction, structural queries, and invariant validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spc_lab import (
    NodeArrays,
    ScenarioTree,
    TreeError,
    build_tree_explicit,
    build_tree_stagewise,
    subtree_nodes,
    validate_tree,
)

from .helpers import (
    FIELDS, crossed_tree, nd_scalar, node_data, random_tree, stack, stagewise, uniform_outcome,
)
from spc_lab.tree import committed_pair, spectral_norms, symmetry_defects

from .oracles import leaf_products, svd_spectral_norms, validate_tree_reference


# ---------------------------------------------------------------------------
# node data / committed pair


def test_node_data_arrays_are_read_only():
    raw = random_tree(seed=0).raw_arrays
    with pytest.raises(ValueError):
        raw.A[0, 0, 0] = 2.0


def test_node_data_copies_its_input_read_only():
    # the stagewise builder tiles its outcome stacks into new node arrays
    fields = stack([nd_scalar(A=2.0)])
    fields["B"] = np.zeros((1, 1, 1), dtype=int)
    tree = build_tree_stagewise([(fields, [1.0]), (fields, [1.0])])
    fields["A"][0, 0, 0] = 7.0
    A = tree.raw_arrays.A
    assert A[:, 0, 0].tolist() == [2.0, 2.0] and not A.flags.writeable
    assert tree.raw_arrays.B.dtype == np.float64


def test_stacked_builder_rows_are_frozen_views_of_one_stack():
    rng = np.random.default_rng(0)
    stack = {f: rng.standard_normal((3,) + s) for f, s in (
        ("A", (2, 2)), ("B", (2, 1)), ("d", (2,)), ("Q", (2, 2)), ("R", (1, 1)),
        ("q", (2,)), ("r", (1,)))}
    stack["Q"] = stack["Q"] @ stack["Q"].transpose(0, 2, 1)
    tree = build_tree_explicit([-1, 0, 0], [0, 1, 1], [1.0, 0.5, 0.5], stack)
    raw = tree.raw_arrays
    for f, given in stack.items():
        # taken over from the caller without a copy, then shared by every row
        assert getattr(raw, f) is given and not given.flags.writeable
        for i in range(tree.node_count):
            assert np.shares_memory(getattr(raw, f)[i], given)
            assert not getattr(raw, f)[i].flags.writeable
    assert np.array_equal(tree.arrays.Q, 0.5 * (raw.Q + raw.Q.transpose(0, 2, 1)))
    with pytest.raises(TreeError, match="A/B dimension mismatch"):
        one = {f: a[:1] for f, a in stack.items()}
        build_tree_explicit([-1], [0], [1.0], {**one, "A": np.zeros((1, 2, 3))})
    with pytest.raises(TreeError, match="mismatched lengths"):
        short_r = {**stack, "r": np.zeros((2, 1))}
        build_tree_explicit([-1, 0, 0], [0, 1, 1], [1.0, 0.5, 0.5], short_r)


def test_node_data_stacked_perturbation_order():
    nd = node_data(
        A=np.zeros((2, 2)),
        B=np.zeros((2, 1)),
        d=[5.0, 6.0],
        Q=np.eye(2),
        R=[[1.0]],
        q=[1.0, 2.0],
        r=[3.0],
    )
    tree = build_tree_explicit([-1], [0], [1.0], stack([nd]))
    assert_allclose(tree.raw_arrays.p, [[1.0, 2.0, 3.0, 5.0, 6.0]])


def test_node_data_rejects_shape_mismatch():
    nd = node_data(
        A=np.zeros((2, 2)),
        B=np.zeros((3, 1)),
        d=np.zeros(2),
        Q=np.eye(2),
        R=np.eye(1),
        q=np.zeros(2),
        r=np.zeros(1),
    )
    with pytest.raises(TreeError, match="^A/B dimension mismatch$"):
        build_tree_explicit([-1], [0], [1.0], stack([nd]))
    with pytest.raises(TreeError, match="^A/B dimension mismatch$"):
        build_tree_stagewise(stagewise([[(nd, 1.0)]]))
    wide = node_data(**{**vars(nd), "B": np.zeros((2, 1))})
    with pytest.raises(TreeError, match="^outcome data dims differ between stages$"):
        build_tree_stagewise(stagewise([[(nd_scalar(), 1.0)], [(wide, 1.0)]]))
    with pytest.raises(TreeError, match="mismatched lengths"):
        build_tree_stagewise([(stack([nd_scalar()] * 2), [1.0])])


def test_symmetry_defect_zero_for_symmetric():
    nd = nd_scalar()
    assert symmetry_defects(nd.Q[None], nd.R[None]).tolist() == [0.0]


def test_symmetry_defect_flags_asymmetric():
    Q = np.array([[[1.0, 0.5], [0.0, 1.0]]])
    assert symmetry_defects(Q, np.eye(1)[None])[0] > 1e-3


# ---------------------------------------------------------------------------
# spectral_norms


KERNEL_SHAPES = [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (4, 4)]


@pytest.mark.parametrize("k", [0, 2047])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_spectral_norms_match_svd_at_every_scale(shape, k):
    M = np.random.default_rng(11).standard_normal((k,) + shape)
    want = svd_spectral_norms(M)
    for scale in (1.0, 1e150, 1e-150):
        got = spectral_norms(M * scale)
        assert got.shape == (k,)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        assert_allclose(got, want * scale, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_spectral_norms_of_zero_matrices_are_zero(shape):
    M = np.zeros((5,) + shape)
    M[2] = 1e-150  # a tiny matrix among zeros keeps its own scale
    got = spectral_norms(M)
    assert_allclose(got, svd_spectral_norms(M), rtol=1e-13, atol=0.0)
    assert got[[0, 1, 3, 4]].tolist() == [0.0] * 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spectral_norms_exact_on_scalar_and_diagonal_input(n):
    rng = np.random.default_rng(12)
    for scale in (1.0, 1e150, 1e-150):
        d = rng.standard_normal((2047, n)) * scale
        D = np.zeros((2047, n, n))
        D[:, range(n), range(n)] = d
        assert np.array_equal(spectral_norms(D), np.abs(d).max(axis=1))
        assert np.array_equal(spectral_norms(d[:, :1, None]), np.abs(d[:, 0]))


def test_spectral_norms_non_finite_entries_and_input_untouched():
    M = np.array([[[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
                  [[3.0, 4.0], [0.0, 0.0]]])
    before = M.copy()
    with np.errstate(all="raise"):
        got = spectral_norms(M)
    assert got[0] == np.inf and np.isnan(got[1]) and got[2] == 5.0
    assert np.array_equal(M, before, equal_nan=True)


def test_initial_condition_dims_checked_against_tree():
    tree = build_tree_stagewise(uniform_outcome(nd_scalar(), [[1.0]]))
    committed_pair(([0.0], [0.0]), tree)
    with pytest.raises(TreeError, match=r"committed pair dims \(\(2,\), \(1,\)\)"):
        committed_pair(([0.0, 0.0], [0.0]), tree)
    with pytest.raises(TreeError, match="committed pair dims"):
        committed_pair((np.zeros((1, 1)), [0.0]), tree)


def test_initial_condition_stacked_pair():
    # any (x, u) pair of array-likes becomes read-only float64 copies
    x = np.array([1, 2])
    for pair in (([1.0, 2.0], [3.0]), ((1, 2), (3,)), (x, np.array([3.0]))):
        got = committed_pair(pair)
        assert all(a.dtype == np.float64 and not a.flags.writeable for a in got)
        assert_allclose(np.concatenate(got), [1.0, 2.0, 3.0])
    got = committed_pair((x, [3.0]))
    x[0] = 7
    assert got[0].tolist() == [1.0, 2.0] and x.flags.writeable


# ---------------------------------------------------------------------------
# build_tree_stagewise


def test_singleton_tree():
    tree = build_tree_stagewise(uniform_outcome(nd_scalar(), [[1.0]]))
    assert tree.node_count == 1
    assert tree.horizon == 0
    assert_allclose(tree.pi, [1.0])
    assert validate_tree(tree).ok


def test_two_stage_binary_product_probabilities():
    tree = build_tree_stagewise(
        uniform_outcome(nd_scalar(), [[1.0], [0.4, 0.6], [0.4, 0.6]])
    )
    assert tree.node_count == 7
    leaf_pis = sorted(tree.pi[j] for j in tree.leaves())
    assert_allclose(leaf_pis, [0.16, 0.24, 0.24, 0.36])
    # BFS layout: root, then stage 1, then stage 2 under node 1 first
    assert tree.stage_nodes(1).tolist() == [1, 2]
    assert list(tree.parent[3:5]) == [1, 1]


def test_three_stage_uniform_thirds_against_enumeration():
    splits = [[1.0]] + [[1 / 3] * 3] * 3
    tree = build_tree_stagewise(uniform_outcome(nd_scalar(), splits))
    expected = sorted(leaf_products([[1.0]] + [[1 / 3] * 3] * 3))
    got = sorted(tree.pi[j] for j in tree.leaves())
    assert_allclose(got, expected, rtol=0, atol=1e-15)
    assert_allclose(got, [1 / 27] * 27, rtol=0, atol=1e-15)
    assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)
    assert validate_tree(tree).ok


def test_stagewise_rejects_multiple_root_outcomes():
    with pytest.raises(TreeError, match="stage 0"):
        build_tree_stagewise(
            uniform_outcome(nd_scalar(), [[0.5, 0.5], [1.0]])
        )


def test_stagewise_rejects_unnormalized_stage():
    with pytest.raises(TreeError, match="sum"):
        build_tree_stagewise(uniform_outcome(nd_scalar(), [[1.0], [0.5, 0.6]]))


def test_stagewise_rejects_empty_input():
    with pytest.raises(TreeError):
        build_tree_stagewise([])


# ---------------------------------------------------------------------------
# build_tree_explicit


def test_explicit_chain_of_length_two():
    nd = nd_scalar()
    tree = build_tree_explicit([-1, 0, 1], [0, 1, 2], [1.0, 1.0, 1.0], stack([nd] * 3))
    assert tree.horizon == 2
    assert tree.leaves().tolist() == [2]
    assert validate_tree(tree).ok


def test_explicit_rejects_children_sum_mismatch():
    nd = nd_scalar()
    with pytest.raises(TreeError, match="children sum"):
        build_tree_explicit(
            [-1, 0, 0], [0, 1, 1], [1.0, 0.5, 0.6], stack([nd] * 3)
        )


def test_explicit_asymmetric_padded_tree_is_valid():
    # root splits in two; only the first child branches again, the second
    # continues as a single pass-through path so both leaves reach stage 2
    nd = nd_scalar()
    tree = build_tree_explicit(
        parents=[-1, 0, 0, 1, 1, 2],
        stage_labels=[0, 1, 1, 2, 2, 2],
        probabilities=[1.0, 0.5, 0.5, 0.3, 0.2, 0.5],
        node_data=stack([nd] * 6),
    )
    assert validate_tree(tree).ok
    assert tree.leaves().tolist() == [3, 4, 5]


def test_explicit_rejects_mismatched_array_lengths():
    nd = nd_scalar()
    with pytest.raises(TreeError, match="length"):
        build_tree_explicit([-1, 0], [0, 1, 2], [1.0, 1.0], stack([nd, nd]))


# ---------------------------------------------------------------------------
# subtree_nodes


def test_subtree_window_zero_is_node_itself():
    tree = random_tree(seed=2)
    assert subtree_nodes(tree, 4, 0).tolist() == [4]


def test_subtree_binary_root_window_two():
    tree = random_tree(seed=3, T=3, branching=2)
    assert subtree_nodes(tree, 0, 2).tolist() == [0, 1, 2, 3, 4, 5, 6]


def test_subtree_caps_at_final_stage():
    tree = random_tree(seed=4, T=2, branching=2)
    k = tree.stage_nodes(1)[0]
    assert subtree_nodes(tree, k, 5).tolist() == [k, *tree.children[k]]


def test_subtree_ascends_where_children_are_crossed():
    # node 1's child is node 4 and node 2's child is node 3
    tree = crossed_tree(np.random.default_rng(0))
    assert subtree_nodes(tree, 0, 2).tolist() == [0, 1, 2, 3, 4]
    assert subtree_nodes(tree, 1, 2).tolist() == [1, 4, 5]
    assert subtree_nodes(tree, 2, 2).tolist() == [2, 3, 6]


def test_subtree_rejects_bad_node():
    tree = random_tree(seed=5)
    with pytest.raises(TreeError):
        subtree_nodes(tree, tree.node_count, 1)


# ---------------------------------------------------------------------------
# validate_tree


def test_validate_flags_root_probability():
    nd = nd_scalar()
    tree = ScenarioTree([-1, 0, 0], [0, 1, 1], [0.9, 0.45, 0.45], NodeArrays(**stack([nd] * 3)))
    report = validate_tree(tree)
    assert not report.ok
    assert any("root probability" in v for v in report.violations)


def test_validate_flags_leaf_at_wrong_stage():
    nd = nd_scalar()
    tree = ScenarioTree(
        [-1, 0, 0, 1, 1],
        [0, 1, 1, 2, 2],
        [1.0, 0.5, 0.5, 0.25, 0.25],
        NodeArrays(**stack([nd] * 5)),
    )
    report = validate_tree(tree)
    assert any("leaf at wrong stage" in v for v in report.violations)


def test_validate_flags_asymmetric_cost():
    bad = node_data(
        A=np.zeros((2, 2)),
        B=np.zeros((2, 1)),
        d=np.zeros(2),
        Q=[[1.0, 0.2], [0.0, 1.0]],
        R=np.eye(1),
        q=np.zeros(2),
        r=np.zeros(1),
    )
    tree = ScenarioTree([-1], [0], [1.0], NodeArrays(**stack([bad])))
    assert any("symmetric" in v for v in validate_tree(tree).violations)


def test_validate_reports_dims_and_asymmetry_per_node_in_order():
    good = node_data(
        A=np.zeros((2, 2)),
        B=np.zeros((2, 1)),
        d=np.zeros(2),
        Q=np.eye(2),
        R=np.eye(1),
        q=np.zeros(2),
        r=np.zeros(1),
    )
    skew = node_data(**{**vars(good), "Q": [[1.0, 0.3], [0.0, 1.0]]})
    skew_r = node_data(**{**vars(good), "R": [[1.0]], "Q": [[1.0, 0.0], [1e-3, 1.0]]})
    tree = ScenarioTree(
        [-1, 0, 0], [0, 1, 1], [1.0, 0.5, 0.5], NodeArrays(**stack([good, skew, skew_r]))
    )
    assert validate_tree(tree).violations == [
        "node 1: Q or R not symmetric within 1e-12",
        "node 2: Q or R not symmetric within 1e-12",
    ]


def test_validate_accepts_random_product_trees():
    for seed in range(4):
        assert validate_tree(random_tree(seed=seed)).ok


def corrupt(tree, rng, kind):
    """Parallel arrays of ``tree`` with one kind of fault at random nodes."""
    parent, stage = tree.parent.tolist(), tree.stage.tolist()
    pi, data = tree.pi.tolist(), {f: np.array(a) for f, a in zip(FIELDS, tree.raw_arrays)}
    n = len(parent)
    hit = rng.choice(n, size=min(n, rng.integers(1, 4)), replace=False).tolist()
    for i in hit:
        if kind == "parent":
            parent[i] = int(rng.integers(-1, n + 2))
        elif kind == "stage":
            stage[i] += int(rng.choice([-2, -1, 1, 2]))
        elif kind == "order":
            j = int(rng.integers(n))
            stage[i], stage[j] = stage[j], stage[i]
        elif kind == "prob":
            drift = [pi[i] * (1 + 1e-9), -pi[i], 0.0, np.nan, np.inf, -np.inf]
            pi[i] = rng.choice(drift)
        elif kind == "leaf":
            # dropping the last nodes leaves their parents as early leaves
            cut = max(1, n - len(hit))
            del parent[cut:], stage[cut:], pi[cut:]
            data = {f: a[:cut] for f, a in data.items()}
            break
        elif kind in ("Q", "R"):
            data[kind][i, 0, -1] += rng.choice([1e-3, 1e-13])
        elif kind == "nan":
            field = str(rng.choice(FIELDS))
            data[field][i].flat[0] = rng.choice([np.nan, np.inf, -np.inf])
    return parent, stage, pi, NodeArrays(**data)


KINDS = ("parent", "stage", "order", "prob", "leaf", "Q", "R", "nan")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
)
def test_validate_matches_loop_reference_on_corrupted_trees(seed, kinds):
    rng = np.random.default_rng(seed)
    tree = random_tree(seed=seed, T=int(rng.integers(1, 4)), nx=2, nu=2)
    for kind in kinds:
        tree = ScenarioTree(*corrupt(tree, rng, kind))
    assert validate_tree(tree).violations == validate_tree_reference(tree)


# ---------------------------------------------------------------------------
# structural queries


def test_ancestry_runs_root_to_node():
    tree = random_tree(seed=6, T=3, branching=2)
    leaf = tree.leaves()[-1]
    path = tree.ancestors[leaf, : tree.stage[leaf] + 1].tolist()
    assert path[0] == 0 and path[-1] == leaf
    for a, b in zip(path, path[1:]):
        assert tree.parent[b] == a


@pytest.mark.parametrize(
    "parents, stages",
    [
        ([-1, 0, 0, 2, 1, 4, 3], [0, 1, 1, 2, 2, 3, 3]),
        ([-1, 0, 0, 0, 1, 2, 2, 3, 3, 3], [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]),
    ],
    ids=["crossed", "uneven"],
)
def test_ancestor_table_matches_parent_walk(parents, stages):
    probs = np.ones(len(parents))
    tree = ScenarioTree(parents, stages, probs, NodeArrays(**stack([nd_scalar()] * len(parents))))
    for j in range(tree.node_count):
        path = [j]
        while parents[path[-1]] >= 0:
            path.append(parents[path[-1]])
        expected = path[::-1] + [-1] * (tree.horizon + 1 - len(path))
        assert tree.ancestors[j].tolist() == expected


def test_descendants_disjoint_across_siblings():
    tree = random_tree(seed=7, T=3, branching=2)
    d1 = set(subtree_nodes(tree, 1, tree.horizon)) - {1}
    d2 = set(subtree_nodes(tree, 2, tree.horizon)) - {2}
    assert not d1 & d2
    assert d1 | d2 | {0, 1, 2} == set(range(tree.node_count))


# ---------------------------------------------------------------------------
# invariants on random trees


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    T=st.integers(1, 4),
    branching=st.integers(1, 3),
)
def test_leaf_probabilities_telescope(seed, T, branching):
    tree = random_tree(seed=seed, T=T, branching=branching)
    for j in range(tree.node_count):
        leaf_sum = math.fsum(
            tree.pi[l]
            for l in tree.leaves()
            if tree.ancestors[l, tree.stage[j]] == j
        )
        assert abs(leaf_sum - tree.pi[j]) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), T=st.integers(1, 4))
def test_subtree_of_root_with_full_window_is_everything(seed, T):
    tree = random_tree(seed=seed, T=T)
    assert np.array_equal(subtree_nodes(tree, 0, tree.horizon), np.arange(tree.node_count))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), W=st.integers(0, 3))
def test_subtree_cardinality_matches_stage_counts(seed, W):
    tree = random_tree(seed=seed, T=3, branching=2)
    k = int(seed % tree.node_count)
    nodes = subtree_nodes(tree, k, W)
    t0 = int(tree.stage[k])
    expected = sum(
        1
        for j in range(tree.node_count)
        if tree.ancestors[j, t0] == k and t0 <= tree.stage[j] <= t0 + W
    )
    assert len(nodes) == expected
    assert np.all(np.diff(nodes) > 0)
