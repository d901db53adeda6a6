"""Probability-weighted norms: examples, oracles, and algebraic properties."""

import ast
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spc_lab import (
    BlockMatrix,
    Blocks,
    BlockVector,
    TreeError,
    build_tree_explicit,
    build_tree_stagewise,
    expectation_identity_check,
    pi_norm_mat,
    pi_norm_vec,
    stage_norm,
)
from spc_lab import norms
from spc_lab.norms import _lanczos_lockstep, stage_moments

from .helpers import (
    blocks_of,
    crossed_tree,
    imported_modules,
    nd_scalar,
    random_tree,
    stack,
    uneven_tree,
    uniform_outcome,
)
from .oracles import (
    dense_blocks,
    dense_pi_norm,
    naive_pi_norm,
    sampled_operator_norm,
    stage_moments_loop,
)


def singleton_tree():
    return build_tree_stagewise(uniform_outcome(nd_scalar(), [[1.0]]))


def two_leaf_tree(p1=0.4, p2=0.6):
    nd = nd_scalar()
    return build_tree_explicit(
        [-1, 0, 0], [0, 1, 1], [1.0, p1, p2], stack([nd] * 3)
    )


def random_block_matrix(rng, tree, row_nodes, col_nodes, shape, density=0.7):
    blocks = {}
    for i in row_nodes:
        for j in col_nodes:
            if rng.uniform() < density:
                blocks[(i, j)] = rng.standard_normal(shape)
    if not blocks:
        blocks[(row_nodes[0], col_nodes[0])] = rng.standard_normal(shape)
    return BlockMatrix(tree, row_nodes, col_nodes, blocks_of(blocks))


def diag_parent_matrix(rng, tree, dim):
    """The norms suite's pattern over every node: a diagonal block per node
    and one block from each node to its parent."""
    nodes = tuple(range(tree.node_count))
    blocks = {(n, n): rng.standard_normal((dim, dim)) for n in nodes}
    for n in nodes[1:]:
        blocks[(n, int(tree.parent[n]))] = rng.standard_normal((dim, dim))
    return BlockMatrix(tree, nodes, nodes, blocks_of(blocks))


def oracle_norm(M):
    return dense_pi_norm(M.tree.pi, M.row_nodes, M.col_nodes, M.blocks)


def dense_of(M, pi=None):
    return dense_blocks(M.row_nodes, M.col_nodes, M.blocks, pi)


# ---------------------------------------------------------------------------
# pi_norm_vec


def test_vec_norm_singleton_is_euclidean():
    tree = singleton_tree()
    v = BlockVector(tree, (0,), [[3.0, 4.0]])
    assert pi_norm_vec(v) == pytest.approx(5.0, abs=1e-15)


def test_vec_norm_two_leaves_direct():
    tree = two_leaf_tree()
    v = BlockVector(tree, (1, 2), [[2.0], [1.0]])
    assert pi_norm_vec(v) == pytest.approx(math.sqrt(2.2), abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 4))
def test_vec_norm_matches_naive_summation(seed, dim):
    tree = random_tree(seed=seed, T=3, branching=2)
    rng = np.random.default_rng(seed + 1)
    nodes = tuple(range(tree.node_count))
    v = BlockVector(tree, nodes, rng.standard_normal((len(nodes), dim)))
    oracle = naive_pi_norm([tree.pi[n] for n in nodes], list(v.V))
    assert pi_norm_vec(v) == pytest.approx(oracle, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(-5, 5))
def test_vec_norm_homogeneous_and_triangle(seed, alpha):
    tree = random_tree(seed=seed, T=2, branching=2)
    rng = np.random.default_rng(seed)
    nodes = tuple(range(tree.node_count))
    a = rng.standard_normal((len(nodes), 3))
    b = rng.standard_normal((len(nodes), 3))
    va = BlockVector(tree, nodes, a)
    vb = BlockVector(tree, nodes, b)
    vab = BlockVector(tree, nodes, a + b)
    vsa = BlockVector(tree, nodes, alpha * a)
    assert pi_norm_vec(vsa) == pytest.approx(abs(alpha) * pi_norm_vec(va), abs=1e-12)
    assert pi_norm_vec(vab) <= pi_norm_vec(va) + pi_norm_vec(vb) + 1e-12


def test_block_vector_refuses_misshaped_stack_and_foreign_node():
    tree = two_leaf_tree()
    for V in ([[1.0]], [[1.0], [2.0], [3.0]], [1.0, 2.0]):
        with pytest.raises(TreeError, match="nodes but blocks of shape"):
            BlockVector(tree, (1, 2), V)
    for nodes in [(1, 3), (-1, 2)]:
        with pytest.raises(TreeError, match="not in tree"):
            BlockVector(tree, nodes, [[1.0], [2.0]])


def test_block_vector_refuses_repeated_node():
    # one node twice would count its weight twice in the norm
    tree = two_leaf_tree()
    with pytest.raises(TreeError, match="node 1 repeated"):
        BlockVector(tree, (1, 1), [[1.0], [1.0]])
    with pytest.raises(TreeError, match="node 2 repeated"):
        BlockVector(tree, (2, 0, 1, 2), np.ones((4, 1)))


# ---------------------------------------------------------------------------
# pi_norm_mat


def test_mat_norm_identity_is_one():
    tree = random_tree(seed=11, T=2, branching=2)
    nodes = tuple(range(tree.node_count))
    eye = blocks_of({(n, n): np.eye(3) for n in nodes})
    assert pi_norm_mat(BlockMatrix(tree, nodes, nodes, eye)) == pytest.approx(1.0, abs=1e-12)


def test_mat_norm_singleton_is_spectral_norm():
    tree = singleton_tree()
    blk = np.array([[3.0, 0.0], [4.0, 0.0]])
    M = BlockMatrix(tree, (0,), (0,), blocks_of({(0, 0): blk}))
    assert pi_norm_mat(M) == pytest.approx(np.linalg.norm(blk, 2), abs=1e-12)


def test_mat_norm_dominates_random_directions_and_is_attained():
    tree = random_tree(seed=12, T=2, branching=2)
    rng = np.random.default_rng(12)
    rows = tuple(tree.stage_nodes(2))
    cols = tuple(tree.stage_nodes(1))
    M = random_block_matrix(rng, tree, rows, cols, (3, 2))
    norm = pi_norm_mat(M)

    def act(blocks):
        out = M.apply(BlockVector(tree, cols, blocks))
        return [tree.pi[n] for n in rows], list(out.V)

    best = sampled_operator_norm(
        act, [2] * len(cols), [tree.pi[n] for n in cols], rng, trials=1000
    )
    assert best <= norm + 1e-10
    # the scaled right-singular vector attains the norm
    pis = tree.pi
    dense = dense_of(M, pis)
    _, _, vt = np.linalg.svd(dense)
    v = BlockVector(tree, cols, vt[0].reshape(len(cols), 2) / np.sqrt(pis[list(cols)])[:, None])
    ratio = pi_norm_vec(M.apply(v)) / pi_norm_vec(v)
    assert ratio == pytest.approx(norm, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mat_norm_submultiplicative(seed):
    tree = random_tree(seed=seed, T=2, branching=2)
    rng = np.random.default_rng(seed)
    s2, s1 = tuple(tree.stage_nodes(2)), tuple(tree.stage_nodes(1))
    M = random_block_matrix(rng, tree, s2, s1, (3, 2))
    N = random_block_matrix(rng, tree, s1, (0,), (2, 4))
    bound = pi_norm_mat(M) * pi_norm_mat(N)
    for _ in range(5):
        v = BlockVector(tree, (0,), rng.standard_normal((1, 4)))
        lhs = pi_norm_vec(M.apply(N.apply(v)))
        assert lhs <= bound * pi_norm_vec(v) + 1e-10


# ---------------------------------------------------------------------------
# expectation identity


def test_expectation_identity_at_root_is_definitional():
    tree = random_tree(seed=14, T=3, branching=2)
    rng = np.random.default_rng(14)
    nodes = tuple(tree.stage_nodes(2))
    v = BlockVector(tree, nodes, rng.standard_normal((len(nodes), 3)))
    lhs, rhs, gap = expectation_identity_check(tree, 0, 2, v)
    assert gap <= 1e-10 * (1 + lhs)


def test_expectation_identity_zero_vector():
    tree = random_tree(seed=15, T=2, branching=2)
    nodes = tuple(tree.stage_nodes(2))
    v = BlockVector(tree, nodes, np.zeros((len(nodes), 2)))
    lhs, rhs, gap = expectation_identity_check(tree, 0, 2, v)
    assert lhs == 0.0 and rhs == 0.0 and gap == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.integers(1, 3))
def test_expectation_identity_interior_nodes(seed, t):
    tree = random_tree(seed=seed, T=3, branching=2)
    rng = np.random.default_rng(seed)
    k = tree.stage_nodes(1)[seed % 2]
    if t < 1:
        t = 1
    nodes = tuple(
        j for j in tree.stage_nodes(t) if tree.ancestors[j, 1] == k
    )
    v = BlockVector(tree, nodes, rng.standard_normal((len(nodes), 2)))
    lhs, rhs, gap = expectation_identity_check(tree, k, t, v)
    assert gap <= 1e-10 * (1 + lhs)


def test_expectation_identity_rejects_wrong_node_set():
    tree = random_tree(seed=16, T=2, branching=2)
    nodes = tuple(tree.stage_nodes(1))
    v = BlockVector(tree, nodes, np.ones((len(nodes), 2)))
    with pytest.raises(TreeError):
        expectation_identity_check(tree, 0, 2, v)


# ---------------------------------------------------------------------------
# block algebra plumbing


def test_block_matmul_matches_dense_product():
    # the block product M N, applied as N then M, acts as the dense product
    tree = random_tree(seed=17, T=2, branching=2)
    rng = np.random.default_rng(17)
    s2, s1, s0 = tuple(tree.stage_nodes(2)), tuple(tree.stage_nodes(1)), (0,)
    M = random_block_matrix(rng, tree, s2, s1, (2, 3), density=1.0)
    N = random_block_matrix(rng, tree, s1, s0, (3, 2), density=1.0)
    v = BlockVector(tree, s0, rng.standard_normal((1, 2)))
    dense = dense_of(M) @ dense_of(N)
    assert_allclose(M.apply(N.apply(v)).V.ravel(), dense @ v.V.ravel(), atol=1e-13)


def test_block_apply_matches_dense():
    tree = random_tree(seed=18, T=2, branching=2)
    rng = np.random.default_rng(18)
    s1 = tuple(tree.stage_nodes(1))
    s2 = tuple(tree.stage_nodes(2))
    M = random_block_matrix(rng, tree, s2, s1, (2, 3), density=1.0)
    v = BlockVector(tree, s1, rng.standard_normal((len(s1), 3)))
    assert_allclose(M.apply(v).V.ravel(), dense_of(M) @ v.V.ravel(), atol=1e-13)


def test_block_matrix_rejects_block_outside_node_sets():
    tree = random_tree(seed=20, T=1, branching=2)
    with pytest.raises(TreeError):
        BlockMatrix(tree, (1,), (1,), blocks_of({(1, 2): np.eye(2)}))


def test_block_matrix_refuses_repeated_node():
    # a repeated row node would be a phantom zero block row; repeated
    # (row, col) pairs in the blocks still add up
    tree = random_tree(seed=20, T=1, branching=2)
    blocks = blocks_of({(1, 2): np.eye(2)})
    with pytest.raises(TreeError, match="node 1 repeated"):
        BlockMatrix(tree, (1, 1), (2,), blocks)
    with pytest.raises(TreeError, match="node 2 repeated"):
        BlockMatrix(tree, (1,), (2, 0, 2), blocks)


def test_stage_norm_rejects_general_block_pattern():
    tree = two_leaf_tree()
    blocks = np.ones((3, 2, 2))
    with pytest.raises(TreeError, match="one block per row"):
        stage_norm(tree.pi, Blocks([1, 1, 2], [1, 2, 2], blocks))


def test_repeated_pairs_add_up():
    # twenty blocks over five nodes: several (i, j) pairs repeat, and each
    # acts as the sum of its blocks
    tree = random_tree(seed=88, T=2, branching=2)
    rng = np.random.default_rng(88)
    n = tree.node_count
    rows, cols = rng.integers(0, n, size=20), rng.integers(0, n, size=20)
    assert len(set(zip(rows, cols))) < 20
    values = rng.standard_normal((20, 2, 3))
    M = BlockMatrix(tree, range(n), range(n), Blocks(rows, cols, values))
    expected = np.zeros((2 * n, 3 * n))
    for i, j, blk in zip(rows, cols, values):
        expected[2 * i : 2 * i + 2, 3 * j : 3 * j + 3] += blk
    assert_allclose(dense_of(M), expected, rtol=0, atol=1e-14)
    v = BlockVector(tree, range(n), rng.standard_normal((n, 3)))
    assert_allclose(M.apply(v).V.ravel(), expected @ v.V.ravel(), rtol=0, atol=1e-13)
    assert pi_norm_mat(M) == pytest.approx(oracle_norm(M), rel=1e-10)


# ---------------------------------------------------------------------------
# Lanczos pi_norm_mat against the dense oracle


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: random_tree(81, T=2, branching=3, nx=1, nu=1),
        lambda rng: random_tree(82, T=3, branching=2, nx=2, nu=1),
        lambda rng: random_tree(83, T=4, branching=2, nx=3, nu=2),
        crossed_tree,
        uneven_tree,
    ],
    ids=["stagewise-T2", "stagewise-T3", "stagewise-T4", "crossed", "uneven"],
)
def test_pi_norm_mat_matches_dense_oracle(build):
    # the norms suite's diagonal-plus-parent pattern, then random matrices
    # between consecutive stages, tall and wide
    rng = np.random.default_rng(80)
    tree = build(rng)
    cases = [diag_parent_matrix(rng, tree, tree.nx + tree.nu)]
    for t in range(tree.horizon):
        late, early = tuple(tree.stage_nodes(t + 1)), tuple(tree.stage_nodes(t))
        cases.append(random_block_matrix(rng, tree, late, early, (3, 2)))
        cases.append(random_block_matrix(rng, tree, early, late, (2, 3)))
    for M in cases:
        assert pi_norm_mat(M) == pytest.approx(oracle_norm(M), rel=1e-10)


def test_pi_norm_mat_of_zero_and_one_sided_matrices():
    tree = random_tree(seed=84, T=2, branching=2)
    nodes = tuple(range(tree.node_count))
    zero = blocks_of({(n, n): np.zeros((2, 2)) for n in nodes})
    assert pi_norm_mat(BlockMatrix(tree, nodes, nodes, zero)) == 0.0
    assert pi_norm_mat(BlockMatrix(tree, nodes, nodes, blocks_of({}))) == 0.0
    # smaller side 1: one scalar row, one scalar column, a single entry
    rng = np.random.default_rng(84)
    for rows, cols, shape in [
        ((0,), nodes, (1, 2)),
        (nodes, (3,), (2, 1)),
        ((4,), (4,), (1, 1)),
    ]:
        M = random_block_matrix(rng, tree, rows, cols, shape, density=1.0)
        assert pi_norm_mat(M) == pytest.approx(oracle_norm(M), rel=1e-10)


def test_pi_norm_mat_reruns_bit_identical():
    tree = random_tree(seed=85, T=4, branching=2, nx=2, nu=2)
    first = pi_norm_mat(diag_parent_matrix(np.random.default_rng(85), tree, 4))
    again = pi_norm_mat(diag_parent_matrix(np.random.default_rng(85), tree, 4))
    assert first == again


def test_pi_norm_mat_peak_memory_below_half_a_dense_matrix():
    # the norms-suite matrix of a T = 6 tree is 508 x 508; its dense float64
    # form alone would take 2.1 MB
    tree = random_tree(seed=86, T=6, branching=2, nx=2, nu=2)
    M = diag_parent_matrix(np.random.default_rng(86), tree, 4)
    n = 4 * tree.node_count
    tracemalloc.start()
    try:
        pi_norm_mat(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


def test_norms_imports_nothing_from_scipy_sparse():
    with open(norms.__file__) as fh:
        tree = ast.parse(fh.read(), filename=norms.__file__)
    names = [*imported_modules(tree), *(
        f"{node.module}.{alias.name}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    )]
    assert [m for m in names if m.startswith("scipy.sparse")] == []


# ---------------------------------------------------------------------------
# lockstep Lanczos kernel


def matrix_gram(mats):
    """The kernel's ``gram`` for explicit symmetric matrices."""
    return lambda live, vectors: [mats[g] @ v for g, v in zip(live, vectors)]


def psd_matrix(rng, n, rank=None):
    F = rng.standard_normal((n, rank or n))
    return F @ F.T


def test_lanczos_lockstep_of_zero_operator_is_zero():
    assert _lanczos_lockstep(matrix_gram([np.zeros((5, 5))]), [5])[0] == 0.0


def test_lanczos_lockstep_of_order_one_and_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = _lanczos_lockstep(matrix_gram([np.array([[2.5]]), np.zeros((0, 0))]), [1, 0])
    assert top.tolist() == [2.5, 0.0]


@pytest.mark.parametrize("n, rank", [(1, 1), (2, 2), (6, 6), (12, 3), (30, 30)])
def test_lanczos_lockstep_matches_eigvalsh(n, rank):
    # small orders: the basis spans the space, or converges before it does
    A = psd_matrix(np.random.default_rng(n + rank), n, rank)
    top = _lanczos_lockstep(matrix_gram([A]), [n])[0]
    assert top == pytest.approx(np.linalg.eigvalsh(A)[-1], rel=1e-12)


def test_lanczos_lockstep_runs_as_alone_and_reruns_alike():
    rng = np.random.default_rng(91)
    mats = [psd_matrix(rng, n) for n in (3, 40, 1, 17, 60)]
    mats.insert(2, np.zeros((8, 8)))
    sizes = [len(A) for A in mats]
    together = _lanczos_lockstep(matrix_gram(mats), sizes)
    alone = [_lanczos_lockstep(matrix_gram([A]), [len(A)])[0] for A in mats]
    assert together.tolist() == alone
    assert together.tolist() == _lanczos_lockstep(matrix_gram(mats), sizes).tolist()


# ---------------------------------------------------------------------------
# stage moment kernel


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 30),
    m=st.integers(1, 5),
    T=st.integers(0, 4),
)
@example(seed=1, n=1, m=1, T=0)
@example(seed=2, n=0, m=3, T=2)
def test_stage_moments_match_per_row_loop(seed, n, m, T):
    # stages are drawn at random, so some stages hold no row (moment 0)
    rng = np.random.default_rng(seed)
    weight = rng.uniform(0.0, 1.0, size=n)
    V = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    stage = rng.integers(0, T + 1, size=n)
    got = stage_moments(weight, V, stage, T)
    ref = stage_moments_loop(weight, V, stage, T)
    assert got.shape == (T + 1,)
    for t in range(T + 1):
        terms = weight[stage == t] * np.sum(V[stage == t] ** 2, axis=1)
        assert abs(got[t] ** 2 - ref[t] ** 2) <= 1e-14 * np.sum(terms)
        assert (got[t] == 0.0) == (not terms.any())

