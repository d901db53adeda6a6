"""Scaled QP assembly and solves against an independent dense oracle."""

import ast
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spc_lab import (
    BlockMatrix,
    InstanceSpec,
    NonconvexError,
    ScaledKKT,
    SingularKKTError,
    SolverError,
    TreeError,
    build_tree_explicit,
    build_tree_stagewise,
    check_uniform_regularity,
    generate_certified_instance,
    hypothetical_state,
    measure_decay,
    pi_norm_mat,
    recursion_matrices,
    solution_map,
    solution_map_rows,
    solve_extensive,
    run_spc,
    solve_anticipative,
    solve_here_and_now,
    subtree_nodes,
)
from spc_lab import kkt
from spc_lab.kkt import stage_costs
from spc_lab.norms import KRYLOV_TOL

from .helpers import (
    blocks_of,
    crossed_tree,
    nd_scalar,
    node_data,
    random_node_data,
    random_stages,
    random_tree,
    stack,
    stagewise,
    uneven_tree,
    uniform_outcome,
    unstable_chain,
)
from .oracles import (
    NodeRow,
    apply_psi,
    block_norm,
    dense_decay,
    dense_regularity,
    dense_solution_map,
    dense_unscaled_solve,
    simulate_no_lookahead,
    stage_costs_loop,
)


def decoupled_tree(T=2, branching=2, nx=1, nu=1, seed=0):
    """Tree with A=B=0: x pinned to d, u pinned to R^{-1} r."""
    rng = np.random.default_rng(seed)

    def nd():
        return node_data(
            A=np.zeros((nx, nx)),
            B=np.zeros((nx, nu)),
            d=rng.standard_normal(nx),
            Q=np.eye(nx),
            R=np.eye(nu),
            q=np.zeros(nx),
            r=rng.standard_normal(nu),
        )

    stages = [[(nd(), 1.0)]]
    for _ in range(T):
        stages.append([(nd(), 1.0 / branching)] * branching)
    return build_tree_stagewise(stagewise(stages))


# ---------------------------------------------------------------------------
# assembly


def test_single_node_kkt_matrix():
    nd = nd_scalar(A=0.0, B=0.0)
    tree = build_tree_stagewise(uniform_outcome(nd, [[1.0]]))
    system = ScaledKKT(tree, 0, 0)
    assert_allclose(
        system.H.toarray(), [[1, 0, 1], [0, 1, 0], [1, 0, 0]], atol=0
    )


def test_child_coupling_carries_branch_probability_root():
    nd = nd_scalar(A=2.0, B=3.0)
    tree = build_tree_stagewise(uniform_outcome(nd, [[1.0], [0.5, 0.5]]))
    system = ScaledKKT(tree, 0, 1)
    H = system.H.toarray()
    # child node 1 occupies block 1; its constraint row couples to the
    # root's x and u with factor sqrt(1/2)
    yrow = 1 * system.zdim + 2
    s = math.sqrt(0.5)
    assert H[yrow, 0] == pytest.approx(-2.0 * s)
    assert H[yrow, 1] == pytest.approx(-3.0 * s)


def interior_window(seed):
    """Depth-2 window at a stage-1 node of a depth-4 tree with nx != nu:
    the only kind that maps parents to inner block positions."""
    return random_tree(seed=seed, T=4, branching=2, nx=3, nu=1), 2, 2


def crossed_window():
    """The whole of a tree whose children are listed crosswise (node 1's
    child is node 4, node 2's child is node 3)."""
    return crossed_tree(np.random.default_rng(27)), 0, 3


def assembly_windows(seed):
    full = random_tree(seed=seed, T=3, branching=2, nx=2, nu=2)
    return [(full, 0, full.horizon), interior_window(seed + 2), crossed_window()]


def test_assembled_matrix_exactly_symmetric():
    for tree, k, W in assembly_windows(21):
        system = ScaledKKT(tree, k, W)
        assert (system.H - system.H.T).nnz == 0


def test_assembly_sparsity_couples_only_parent_child():
    for tree, k, W in assembly_windows(22):
        system = ScaledKKT(tree, k, W)
        assert np.array_equal(system.nodes, subtree_nodes(tree, k, W))
        H = system.H.toarray()
        zd = system.zdim
        for a, i in enumerate(system.nodes):
            for b, j in enumerate(system.nodes):
                blk = H[a * zd : (a + 1) * zd, b * zd : (b + 1) * zd]
                related = (
                    i == j or tree.parent[i] == j or tree.parent[j] == i
                )
                if not related:
                    assert np.all(blk == 0.0)


def test_window_coupling_carries_branch_probability():
    # each child's dynamics row block over its parent's (x, u) columns is
    # -sqrt(pi_i / pi_parent) [A_i, B_i], wherever the parent sits
    for tree, k, W in assembly_windows(28):
        system = ScaledKKT(tree, k, W)
        H, zd, nx, nw = system.H.toarray(), system.zdim, tree.nx, tree.nx + tree.nu
        pos = {int(n): a for a, n in enumerate(system.nodes)}
        assert_allclose(system.scales, np.sqrt(tree.pi[system.nodes] / tree.pi[k]), rtol=1e-15)
        for i in system.nodes[1:].tolist():
            a, b = pos[i], pos[int(tree.parent[i])]
            coupling = H[a * zd + nw : (a + 1) * zd, b * zd : b * zd + nw]
            nd = NodeRow(tree, i)
            expected = -math.sqrt(tree.pi[i] / tree.pi[tree.parent[i]]) * np.hstack([nd.A, nd.B])
            assert_allclose(coupling, expected, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# solve_extensive


def test_zero_perturbations_give_zero_solution():
    nd = nd_scalar(A=0.5, B=1.0, d=0.0, q=0.0, r=0.0)
    tree = build_tree_stagewise(
        uniform_outcome(nd, [[1.0], [0.4, 0.6], [0.4, 0.6]])
    )
    sol = solve_extensive(tree, 0, 2, (np.zeros(1), np.zeros(1)))
    for n in sol.nodes:
        assert_allclose(sol.x[n], 0.0, atol=1e-14)
        assert_allclose(sol.u[n], 0.0, atol=1e-14)
    assert sol.objective == pytest.approx(0.0, abs=1e-14)


def test_single_node_control_tracks_linear_cost():
    nd = nd_scalar(A=1.0, B=1.0, d=0.0, q=0.0, r=1.0)
    tree = build_tree_stagewise(uniform_outcome(nd, [[1.0]]))
    sol = solve_extensive(tree, 0, 0, (np.zeros(1), np.zeros(1)))
    assert sol.x[0] == pytest.approx(0.0, abs=1e-12)
    assert sol.u[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective == pytest.approx(-0.5, abs=1e-12)


def test_deterministic_chain_closed_form():
    nd = nd_scalar()
    tree = build_tree_explicit([-1, 0], [0, 1], [1.0, 1.0], stack([nd, nd]))
    sol = solve_extensive(tree, 0, 1, (np.array([1.0]), np.array([0.0])))
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.u[0] == pytest.approx(-0.5, abs=1e-12)
    assert sol.x[1] == pytest.approx(0.5, abs=1e-12)
    assert sol.u[1] == pytest.approx(0.0, abs=1e-12)
    assert sol.objective == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_full_tree_solve_matches_dense_unscaled_oracle(seed):
    tree = random_tree(seed=seed, T=3, branching=2, nx=2, nu=1)
    rng = np.random.default_rng(seed + 100)
    w_prev = (rng.standard_normal(2), rng.standard_normal(1))
    sol = solve_extensive(tree, 0, tree.horizon, w_prev)
    nodes = tuple(range(tree.node_count))
    ox, ou, oy, oobj = dense_unscaled_solve(tree, 0, nodes, w_prev)
    for n in nodes:
        assert_allclose(sol.x[n], ox[n], atol=1e-8)
        assert_allclose(sol.u[n], ou[n], atol=1e-8)
        assert_allclose(sol.y[n], oy[n], atol=1e-8)
    assert sol.objective == pytest.approx(oobj, abs=1e-8)


@pytest.mark.parametrize("seed", [41, 42])
def test_interior_subtree_solve_matches_oracle(seed):
    tree = random_tree(seed=seed, T=3, branching=2, nx=2, nu=2)
    rng = np.random.default_rng(seed)
    k = tree.stage_nodes(1)[seed % 2]
    W = 1
    nodes = subtree_nodes(tree, k, W).tolist()
    w_prev = (rng.standard_normal(2), rng.standard_normal(2))
    sol = solve_extensive(tree, k, W, w_prev)
    assert sol.nodes.tolist() == nodes
    ox, ou, oy, oobj = dense_unscaled_solve(tree, k, nodes, w_prev)
    for i, n in enumerate(nodes):
        assert_allclose(sol.x[i], ox[n], atol=1e-8)
        assert_allclose(sol.u[i], ou[n], atol=1e-8)
        assert_allclose(sol.y[i], oy[n], atol=1e-8)
    assert sol.objective == pytest.approx(oobj, abs=1e-8)


def test_solution_satisfies_dynamics():
    tree = random_tree(seed=43, T=3, branching=2, nx=2, nu=1)
    rng = np.random.default_rng(43)
    w_prev = (rng.standard_normal(2), rng.standard_normal(1))
    sol = solve_extensive(tree, 0, tree.horizon, w_prev)
    nd0 = NodeRow(tree, 0)
    assert_allclose(
        sol.x[0], nd0.A @ w_prev[0] + nd0.B @ w_prev[1] + nd0.d, atol=1e-8
    )
    for n in range(1, tree.node_count):
        nd, par = NodeRow(tree, n), int(tree.parent[n])
        assert_allclose(
            sol.x[n], nd.A @ sol.x[par] + nd.B @ sol.u[par] + nd.d, atol=1e-8
        )


@pytest.mark.parametrize("k, W", [(0, 3), (2, 2), (4, 1), (0, 0)])
def test_plan_satisfies_assembled_kkt_residual(k, W):
    tree = random_tree(seed=46, T=3, branching=2, nx=3, nu=2)
    rng = np.random.default_rng(46)
    w_prev = (rng.standard_normal(3), rng.standard_normal(2))
    sol = solve_extensive(tree, k, W, w_prev)
    system = ScaledKKT(tree, k, W)
    assert np.array_equal(system.nodes, sol.nodes)
    z = np.hstack([sol.x, sol.u, sol.y]).ravel()
    zt = np.repeat(system.scales, system.zdim) * z
    rhs = system.scaled_rhs(w_prev)
    residual = np.linalg.norm(system.H @ zt - rhs)
    assert residual <= 1e-8 * (1.0 + np.linalg.norm(rhs))


def test_results_are_read_only_arrays_in_node_order():
    tree = random_tree(seed=47, T=3, branching=2, nx=2, nu=1)
    w_prev = (np.ones(2), np.ones(1))
    sol = solve_extensive(tree, 2, 2, w_prev)
    assert np.array_equal(sol.nodes, subtree_nodes(tree, 2, 2))
    system = ScaledKKT(tree, 2, 2)
    unscaled = system.unscale(system.solve(system.scaled_rhs(w_prev)))
    for a, b, dim in zip((sol.x, sol.u, sol.y), unscaled, (2, 1, 2)):
        assert a.shape == b.shape == (len(sol.nodes), dim)
        assert not a.flags.writeable and not b.flags.writeable
        assert_allclose(a, b, rtol=0, atol=1e-8)


def test_node_sets_are_read_only_int64_arrays():
    tree = random_tree(seed=48, T=3, branching=2)
    w_prev = (np.zeros(tree.nx), np.zeros(tree.nu))
    node_sets = {
        "subtree_nodes": subtree_nodes(tree, 2, 2),
        "stage_nodes": tree.stage_nodes(2),
        "leaves": tree.leaves(),
        "PolicySolution": solve_extensive(tree, 2, 2, w_prev).nodes,
        "SolutionMap": solution_map(tree, 2, 2).nodes,
        "ScaledKKT": ScaledKKT(tree, 2, 2).nodes,
    }
    for name, nodes in node_sets.items():
        assert isinstance(nodes, np.ndarray) and nodes.dtype == np.int64, name
        assert nodes.ndim == 1 and not nodes.flags.writeable, name
    assert node_sets["subtree_nodes"].tolist() == [2, 5, 6, 11, 12, 13, 14]
    assert node_sets["stage_nodes"].tolist() == [3, 4, 5, 6]
    assert node_sets["leaves"].tolist() == list(range(7, 15))


def test_repeated_solves_bit_identical():
    tree = random_tree(seed=44, T=2, branching=2)
    w_prev = (np.ones(2), np.ones(1))
    a = solve_extensive(tree, 0, 2, w_prev)
    b = solve_extensive(tree, 0, 2, w_prev)
    for n in a.nodes:
        assert np.array_equal(a.x[n], b.x[n])
        assert np.array_equal(a.u[n], b.u[n])
        assert np.array_equal(a.y[n], b.y[n])
    assert a.objective == b.objective


@pytest.mark.parametrize(
    "solve",
    [lambda tree, w: solve_extensive(tree, 0, 0, w), solve_here_and_now],
    ids=["solve_extensive", "solve_here_and_now"],
)
def test_singular_system_reports_pivot(solve):
    # R = 0 leaves the control block, and here-and-now's shared stage
    # control, without curvature
    nd = node_data(
        A=[[0.0]], B=[[0.0]], d=[0.0], Q=[[1.0]], R=[[0.0]], q=[0.0], r=[0.0]
    )
    tree = build_tree_stagewise(stagewise([[(nd, 1.0)]]))
    with pytest.raises(SingularKKTError) as err:
        solve(tree, (np.zeros(1), np.zeros(1)))
    assert err.value.pivot < 1e-12


def test_zero_window_solution_matches_forward_simulation_on_root():
    tree = random_tree(seed=45, T=3, branching=2, nx=2, nu=1)
    rng = np.random.default_rng(45)
    w_prev = (rng.standard_normal(2), rng.standard_normal(1))
    sol = solve_extensive(tree, 0, 0, w_prev)
    ox, ou, _ = simulate_no_lookahead(tree, w_prev)
    assert_allclose(sol.x[0], ox[0], atol=1e-10)
    assert_allclose(sol.u[0], ou[0], atol=1e-10)


# ---------------------------------------------------------------------------
# Riccati factorization


def path_forest(tree):
    """The anticipative baseline's forest: position t * L + l is stage t of
    the path to leaf l, every branch weight 1."""
    leaves = np.asarray(tree.leaves())
    L, T = len(leaves), tree.horizon
    node = tree.ancestors[leaves].T.ravel()
    parent = np.arange(node.size) - L
    parent[:L] = -1
    return node, parent, np.ones(node.size), kkt.depth_layers(np.repeat(np.arange(T, -1, -1), L))


def window_forest(tree, W):
    """One tree per node's depth-W window: position (j, t) is node j in the
    window of its stage-t ancestor, so siblings are not contiguous."""
    anc, stage, T = tree.ancestors, tree.stage, tree.horizon
    j, t = np.nonzero((anc >= 0) & (stage[:, None] - np.arange(T + 1) <= W))
    pos = np.full((tree.node_count, T + 1), -1)
    pos[j, t] = np.arange(j.size)
    par = np.maximum(tree.parent[j], 0)
    parent = np.where(stage[j] > t, pos[par, t], -1)
    layers = kkt.depth_layers(np.minimum(W, T - t) - (stage[j] - t))
    return j, parent, tree.pi[j] / tree.pi[par], layers


@pytest.mark.parametrize("build", [crossed_tree, uneven_tree], ids=["crossed", "uneven"])
def test_stage_windows_solved_together_match_each_window_alone_bit_for_bit(build):
    # a stage's windows are one forest: the stage's id range up to the
    # window's last stage, roots first with weight 1, parents cut at the
    # stage; each window's rows of one solve are its own solve's bits
    rng = np.random.default_rng(88)
    tree = build(rng)
    T, zd = tree.horizon, 2 * tree.nx + tree.nu
    for W in range(T + 1):
        for t in range(T + 1):
            roots = tree.stage_nodes(t)
            node, parent, weight, layers = forest = kkt._window(tree, roots, W)
            end = np.searchsorted(tree.stage, t + W, side="right")
            assert np.array_equal(node, np.arange(roots[0], end)) and not node.flags.writeable
            assert np.array_equal(np.flatnonzero(parent < 0), np.arange(roots.size))
            assert np.all(weight[: roots.size] == 1.0)
            p = rng.standard_normal((node.size, zd, 3))
            together = kkt.solve_forest(tree, *forest, p)
            for k in roots:
                alone = kkt._window(tree, k, W)
                rows = np.searchsorted(node, alone[0])
                for a, b in zip(together, kkt.solve_forest(tree, *alone, p[rows])):
                    assert np.array_equal(a[rows], b)


def interleaved_tree(rng):
    """Two stage-1 nodes with three children each, listed alternately."""
    return build_tree_explicit(
        [-1, 0, 0, 1, 2, 1, 2, 1, 2],
        [0, 1, 1, 2, 2, 2, 2, 2, 2],
        [1.0, 0.4, 0.6] + [0.1, 0.3, 0.1, 0.2, 0.2, 0.1],
        stack([random_node_data(rng, 2, 1) for _ in range(9)]),
    )


def whole_tree(tree):
    return kkt._window(tree, 0, tree.horizon)


FORESTS = {  # name: (tree builder, forest builder)
    "stagewise": (lambda rng: random_tree(71, T=3), whole_tree),
    "crossed": (crossed_tree, whole_tree),
    "uneven": (uneven_tree, whole_tree),
    "paths": (uneven_tree, path_forest),
    "windows": (lambda rng: random_tree(72, T=4, nu=2), lambda tree: window_forest(tree, 2)),
}


def build_forest(name, rng):
    make_tree, make_forest = FORESTS[name]
    tree = make_tree(rng)
    return tree, make_forest(tree)


@pytest.mark.parametrize("name", list(FORESTS))
def test_factor_solves_match_fresh_forest_solves_bit_for_bit(name):
    rng = np.random.default_rng(70)
    tree, forest = build_forest(name, rng)
    factor = kkt.RiccatiFactor(tree, *forest)
    zd = 2 * tree.nx + tree.nu
    for R in (1, 5, 1, 12):
        p = rng.standard_normal((len(forest[0]), zd, R))
        for a, b in zip(factor.solve(p), kkt.solve_forest(tree, *forest, p)):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_factor_builds_the_residual_layout_on_first_solve(monkeypatch):
    rng = np.random.default_rng(76)
    tree, forest = build_forest("windows", rng)
    factor = kkt.RiccatiFactor(tree, *forest)
    p = rng.standard_normal((len(forest[0]), 2 * tree.nx + tree.nu, 2))
    factor.sweep(p)
    assert not {"kids", "root_sums"} & set(vars(factor))
    factor.solve(p)
    assert {"kids", "root_sums"} <= set(vars(factor))

    # the policy and the hypothetical states use the gains and sweep alone
    def refuse(self):
        raise AssertionError("residual layout built")

    for name in ("kids", "root_sums"):
        monkeypatch.setattr(kkt.RiccatiFactor, name, property(refuse))
    w_prev = (rng.standard_normal(tree.nx), rng.standard_normal(tree.nu))
    hypothetical_state(tree, run_spc(tree, w_prev, 2))


@pytest.mark.parametrize("name", ["crossed", "windows"])
def test_kkt_residual_check_catches_a_perturbed_rollout(name, monkeypatch):
    rng = np.random.default_rng(74)
    tree, forest = build_forest(name, rng)
    node, parent, _, layers = forest
    factor = kkt.RiccatiFactor(tree, *forest)
    p = rng.standard_normal((len(node), 2 * tree.nx + tree.nu, 3))
    factor.solve(p)
    # perturb one leaf of the last tree; the check names that tree's root
    bad = int(np.flatnonzero(parent >= 0)[-1])
    root = bad
    while parent[root] >= 0:
        root = int(parent[root])
    window = next(h for h, at in enumerate(layers) if root in at)
    rollout = kkt.rollout

    def perturbed(*args):
        x, u = rollout(*args)
        x[bad, 0, 1] += 1e-6
        return x, u

    monkeypatch.setattr(kkt, "rollout", perturbed)
    with pytest.raises(SolverError, match=f"node {node[root]}, window {window}: KKT residual"):
        factor.solve(p)


@pytest.mark.parametrize("build", [crossed_tree, interleaved_tree], ids=["crossed", "interleaved"])
def test_sibling_group_sums_match_add_at_bit_for_bit(build):
    # sums start from a nonzero base, as the step Hessians start from the
    # stage cost, so the order of the additions shows in the last bits
    rng = np.random.default_rng(75)
    tree = build(rng)
    node, parent, weight, layers = window_forest(tree, 2)
    factor = kkt.RiccatiFactor(tree, node, parent, weight, layers)
    vals = rng.standard_normal((len(node), 4)) * 10.0 ** rng.uniform(-8, 8, (len(node), 4))
    base = rng.standard_normal((len(node), 4))
    kids = np.flatnonzero(parent >= 0)
    expected = base.copy()
    np.add.at(expected, parent[kids], vals[kids])
    (ch, ranks), got, backwards = factor.kids, base.copy(), base.copy()
    for sel, up in ranks:
        got[up] += vals[ch[sel]]
    for sel, up in ranks[::-1]:
        backwards[up] += vals[ch[sel]]
    assert np.array_equal(got, expected)
    if build is interleaved_tree:
        assert not np.array_equal(backwards, expected)  # the test can see order
    for h, at in enumerate(layers):  # per depth, into the parents' places
        (ch, ranks), local = factor.groups[h], base[at].copy()
        for sel, up in ranks:
            local[up] += vals[ch[sel]]
        assert np.array_equal(local, expected[at])


@pytest.mark.parametrize(
    "solve, where",
    [
        (lambda tree, w: solve_extensive(tree, 0, 3, w), "node 3, window 1"),
        (solve_here_and_now, "node 3, window 1"),
        (solve_anticipative, "node 3, window 1"),
        (lambda tree, w: run_spc(tree, w, 1), "node 0, window 1"),
        (lambda tree, w: [recursion_matrices(tree, 2, t) for t in range(tree.horizon + 1)],
         "node 1, window 1"),
    ],
    ids=["extensive", "here_and_now", "anticipative", "run_spc", "recursion"],
)
def test_nonconvex_problem_refused_naming_node_and_window(solve, where):
    # Q = -5: depth-0 steps are R = 1 > 0, depth-1 ones 1 - 5 = -4; the
    # first refused is the first depth-1 subproblem in layer order
    tree = nonconvex_tree(T=3)
    with pytest.raises(NonconvexError, match=f"{where}: step matrix not positive definite"):
        solve(tree, (np.zeros(1), np.zeros(1)))
    assert issubclass(NonconvexError, SolverError)


# ---------------------------------------------------------------------------
# solution_map


def test_decoupled_map_has_identity_blocks_and_no_cross_coupling():
    tree = decoupled_tree(T=2, branching=2)
    smap = solution_map(tree, 0, 2)
    for a in range(len(smap.nodes)):
        # columns ordered (q, r, d): x row picks d, u row picks r
        assert_allclose(smap.Psi[a, :, a], [[0, 0, 1], [0, 1, 0]], atol=1e-12)
        for b in range(len(smap.nodes)):
            if b != a:
                assert_allclose(smap.Psi[a, :, b], 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [51, 52])
def test_map_linearity_reproduces_direct_solve(seed):
    tree = random_tree(seed=seed, T=2, branching=2, nx=2, nu=1)
    smap = solution_map(tree, 0, 2)
    sol = solve_extensive(tree, 0, 2, (np.zeros(2), np.zeros(1)))
    p_blocks = {n: tree.raw_arrays.p[n] for n in smap.nodes}
    w = apply_psi(smap.Omega, smap.nodes, smap.nw, p_blocks)
    for i, n in enumerate(sol.nodes):
        assert_allclose(w[n], np.r_[sol.x[i], sol.u[i]], atol=1e-8)


def test_map_superposition():
    tree = random_tree(seed=53, T=2, branching=2, nx=2, nu=1)
    rng = np.random.default_rng(53)
    smap = solution_map(tree, 0, 2)
    zd = 2 * 2 + 1
    p1 = {n: rng.standard_normal(zd) for n in smap.nodes}
    p2 = {n: rng.standard_normal(zd) for n in smap.nodes}
    p12 = {n: p1[n] + p2[n] for n in smap.nodes}
    lhs, r1, r2 = (apply_psi(smap.Omega, smap.nodes, smap.nw, p) for p in (p12, p1, p2))
    for n in smap.nodes:
        assert_allclose(lhs[n], r1[n] + r2[n], atol=1e-10)


def test_interior_subtree_map_matches_interior_solve():
    tree = random_tree(seed=54, T=3, branching=2, nx=2, nu=1)
    k = tree.stage_nodes(1)[1]
    smap = solution_map(tree, k, 2)
    sol = solve_extensive(tree, k, 2, (np.zeros(2), np.zeros(1)))
    p_blocks = {n: tree.raw_arrays.p[n] for n in smap.nodes}
    w = apply_psi(smap.Omega, smap.nodes, smap.nw, p_blocks)
    for i, n in enumerate(sol.nodes):
        assert_allclose(w[n], np.r_[sol.x[i], sol.u[i]], atol=1e-8)


def test_row_extraction_matches_full_map():
    tree = random_tree(seed=55, T=2, branching=2, nx=2, nu=1)
    smap = solution_map(tree, 0, 2)
    rows = solution_map_rows(tree, 0, 2, (1, 0), rows="w")
    assert np.array_equal(smap.nodes, np.arange(tree.node_count))
    assert rows.shape == (2, tree.node_count, smap.nw, 2 * tree.nx + tree.nu)
    assert_allclose(rows, smap.Psi[[1, 0]].transpose(0, 2, 1, 3), atol=1e-10)
    # node 2 is outside the window at node 1, and 7 past every node
    for outside in [(1, 2), (7,)]:
        with pytest.raises(TreeError, match="not all in the window"):
            solution_map_rows(tree, 1, 2, outside)


@pytest.mark.parametrize(
    "build, root",
    [
        (lambda rng: random_tree(81, T=3, branching=2, nx=3, nu=2), 0),
        (crossed_tree, 0),
        (uneven_tree, 0),
        (lambda rng: random_tree(82, T=4, branching=2, nx=3, nu=1), 2),
    ],
    ids=["stagewise", "crossed", "uneven", "interior"],
)
def test_solution_map_matches_dense_oracle_for_every_window(build, root):
    tree = build(np.random.default_rng(80))
    for W in range(tree.horizon - int(tree.stage[root]) + 1):
        nodes = subtree_nodes(tree, root, W).tolist()
        smap = solution_map(tree, root, W)
        expected = dense_solution_map(tree, root, nodes)
        assert smap.nodes.tolist() == nodes
        scale = np.abs(expected).max()
        assert_allclose(smap.Omega, expected, rtol=0, atol=1e-10 * scale)


def test_solution_map_peak_memory_below_three_omegas():
    # T = 6: 127 nodes, Omega is 635 x 635 (3.2 MB); the unit perturbations
    # alone, stacked densely, would take as much again
    tree = random_tree(seed=86, T=6, branching=2, nx=2, nu=1)
    tracemalloc.start()
    try:
        smap = solution_map(tree, 0, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert smap.Omega.shape == (127, 5, 127, 5)
    assert peak < 3 * smap.Omega.nbytes


def test_maps_and_recursion_use_no_sparse_lu_or_assembled_kkt(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sparse LU or assembled KKT system used")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    monkeypatch.setattr(ScaledKKT, "__init__", refuse)
    tree = random_tree(seed=87, T=3, branching=2)
    solution_map(tree, 0, 3)
    solution_map_rows(tree, 1, 2, (1, 3), rows="z")
    for t in range(tree.horizon + 1):
        recursion_matrices(tree, 1, t)
    measure_decay(tree, 0, 3)


# ---------------------------------------------------------------------------
# measure_decay


def test_decoupled_instance_has_zero_off_diagonal_decay():
    tree = decoupled_tree(T=2, branching=2)
    rows = measure_decay(tree, 0, 2)
    for row in rows:
        if row.t != row.tprime:
            assert row.psi_norm == 0.0
            assert row.omega_norm == 0.0
        else:
            assert row.psi_norm > 0.0


def test_decay_table_covers_all_stage_pairs():
    tree = random_tree(seed=56, T=3, branching=2)
    rows = measure_decay(tree, 0, 3)
    pairs = {(r.t, r.tprime) for r in rows}
    assert pairs == {(t, tp) for t in range(4) for tp in range(4)}
    for r in rows:
        assert r.omega_norm >= r.psi_norm - 1e-12


def test_decay_rows_match_hand_built_stage_blocks():
    for tree, k, W in [interior_window(seed=26), crossed_window()]:
        smap = solution_map(tree, k, W)
        nodes = smap.nodes.tolist()
        pos = {n: a for a, n in enumerate(nodes)}
        stages = sorted({int(tree.stage[n]) for n in nodes})
        rows = measure_decay(tree, k, W)
        assert [(r.t, r.tprime) for r in rows] == [
            (t, tp) for t in stages for tp in stages
        ]
        for r in rows:
            ri = [n for n in nodes if tree.stage[n] == r.t]
            ci = [n for n in nodes if tree.stage[n] == r.tprime]
            for measured, M in [(r.psi_norm, smap.Psi), (r.omega_norm, smap.Omega)]:
                blocks = {(i, j): M[pos[i], :, pos[j]] for i in ri for j in ci}
                expected = pi_norm_mat(BlockMatrix(tree, ri, ci, blocks_of(blocks)))
                assert measured == pytest.approx(expected, rel=1e-12)


def cheap_last_controls_tree(rng=None):
    """Random binary depth-3 tree whose last-stage controls cost R = 0.05 I:
    their inverse step matrices, of norm 20, outweigh the rest of the
    (3, 3) stage block (generated instances have R = I)."""
    stages = random_stages(59, T=3, branching=2, nx=2, nu=2)
    stages[-1] = [(SimpleNamespace(**{**vars(nd), "R": 0.05 * np.eye(2)}), p)
                  for nd, p in stages[-1]]
    return build_tree_stagewise(stagewise(stages))


@pytest.mark.parametrize(
    "build, root, W",
    [
        (crossed_tree, 0, None),
        (uneven_tree, 0, None),
        (lambda rng: unstable_chain(24), 0, None),
        (lambda rng: random_tree(58, T=4, branching=2, nx=3, nu=1), 2, 2),
    ],
    ids=["crossed", "uneven", "unstable-chain-T24", "interior"],
)
def test_last_stage_controls_answer_only_their_own_cost(build, root, W):
    # in a window's last stage a control enters only its own stage cost,
    # even where the node has children in the tree (the interior window):
    # its u rows and r columns vanish outside its own (u, r) block, which
    # is the inverse of its symmetric R; measure_decay folds these blocks in
    # without solving for them
    tree = build(np.random.default_rng(90))
    W = tree.horizon - int(tree.stage[root]) if W is None else W
    nodes = tuple(subtree_nodes(tree, root, W))
    Omega = dense_solution_map(tree, root, nodes)
    nx, nw, last = tree.nx, tree.nx + tree.nu, tree.stage[list(nodes)].max()
    scale = np.abs(Omega).max()
    for a in np.flatnonzero(tree.stage[list(nodes)] == last):
        u_rows, r_cols = Omega[a, nx:nw].copy(), Omega[:, :, a, nx:nw].copy()
        inverse = np.linalg.inv(tree.arrays.R[nodes[a]])
        assert_allclose(u_rows[:, a, nx:nw], inverse, rtol=1e-12, atol=0)
        assert_allclose(r_cols[a, nx:nw], inverse, rtol=1e-12, atol=0)
        u_rows[:, a, nx:nw], r_cols[a, nx:nw] = 0.0, 0.0
        assert np.abs(u_rows).max() <= 1e-14 * scale
        assert np.abs(r_cols).max() <= 1e-14 * scale


def test_cheap_last_controls_decide_the_last_stage_row():
    # the (3, 3) norms are max(norm of the (x, y) x (q, d) part, max ||R^-1||);
    # here the second term decides both
    tree = cheap_last_controls_tree()
    nodes = tuple(subtree_nodes(tree, 0, 3))
    Omega = dense_solution_map(tree, 0, nodes)
    a = np.flatnonzero(tree.stage[list(nodes)] == 3)
    xy = np.r_[: tree.nx, tree.nx + tree.nu : 2 * tree.nx + tree.nu]
    pi = tree.pi[list(nodes)][a]
    part = block_norm(Omega[np.ix_(a, xy, a, xy)], np.sqrt(pi[:, None] / pi[None, :]))
    fold = max(np.linalg.norm(np.linalg.inv(tree.arrays.R[nodes[i]]), 2) for i in a)
    assert part < 0.5 * fold and fold == pytest.approx(20.0, rel=1e-14)
    last = measure_decay(tree, 0, 3)[-1]
    assert (last.t, last.tprime) == (3, 3)
    assert last.psi_norm == pytest.approx(fold, rel=1e-14)
    assert last.omega_norm == pytest.approx(fold, rel=1e-14)


DECAY_TREES = [
    (crossed_tree, 0, None),
    (uneven_tree, 0, None),
    (lambda rng: random_tree(57, T=4, branching=2, nx=2, nu=1), 0, None),
    (lambda rng: random_tree(58, T=4, branching=2, nx=3, nu=1), 2, 2),
    (lambda rng: decoupled_tree(T=3, branching=2, nx=2, nu=1), 0, None),
    (lambda rng: unstable_chain(24), 0, None),
    (cheap_last_controls_tree, 0, None),
]


@pytest.mark.parametrize(
    "cut, chunk",
    [(None, None), (0, None), (10, 7)],
    ids=["dense", "krylov", "mixed"],
)
@pytest.mark.parametrize(
    "build, root, W",
    DECAY_TREES,
    ids=["crossed", "uneven", "random-nu1", "interior", "decoupled", "unstable-chain-T24",
         "cheap-last-controls"],
)
def test_decay_rows_match_dense_oracle(build, root, W, cut, chunk, monkeypatch):
    # cut 0 sends every pair to Lanczos; cut 10 keeps the one-node stages
    # dense, and chunks of 7 unit columns cross node and stage boundaries
    if cut is not None:
        monkeypatch.setattr(kkt, "DENSE_PAIR_CUT", cut)
    if chunk is not None:
        monkeypatch.setattr(kkt, "UNIT_CHUNK", chunk)
    tree = build(np.random.default_rng(88))
    W = tree.horizon - int(tree.stage[root]) if W is None else W
    nodes = tuple(subtree_nodes(tree, root, W))
    omega = dense_solution_map(tree, root, nodes)
    expected = dense_decay(tree, nodes, omega, tree.nx + tree.nu)
    rows = measure_decay(tree, root, W)
    assert [(r.t, r.tprime) for r in rows] == [e[:2] for e in expected]
    measured = [(r.psi_norm, r.omega_norm) for r in rows]
    assert_allclose(measured, [e[2:] for e in expected], rtol=1e-12, atol=0)


@pytest.mark.parametrize("build", [crossed_tree, uneven_tree], ids=["crossed", "uneven"])
def test_weighted_map_norms_are_symmetric_in_the_stage_pair(build):
    # the weighted map is self-adjoint: ||Omega~[t, t']|| = ||Omega~[t', t]||,
    # and each diagonal stage block Omega~[t, t] is symmetric, which lets
    # measure_decay take its norm as its largest absolute eigenvalue
    tree = build(np.random.default_rng(89))
    nodes = tuple(subtree_nodes(tree, 0, tree.horizon))
    Omega = dense_solution_map(tree, 0, nodes)
    rows = dense_decay(tree, nodes, Omega, tree.nx + tree.nu)
    omega = {(t, tp): om for t, tp, _, om in rows}
    for (t, tp), om in omega.items():
        assert om == pytest.approx(omega[tp, t], rel=1e-12)
    pi, stage = tree.pi[list(nodes)], tree.stage[list(nodes)]
    for t in np.unique(stage):
        a = np.flatnonzero(stage == t)
        f = np.sqrt(pi[a, None] / pi[None, a])
        n = a.size * Omega.shape[1]
        B = (Omega[a][:, :, a] * f[:, None, :, None]).reshape(n, n)
        assert_allclose(B, B.T, rtol=0, atol=1e-13 * omega[t, t])


def test_decay_working_set_below_one_point_eight_stage_blocks(monkeypatch):
    # seed 5, T = 6 (the CLI defaults): stage 6 has 64 nodes, so its full
    # block of unit responses would be 384 x 384 (1.18 MB), the largest; its
    # u rows and r columns decouple, so it is solved as 256 x 256, and each
    # pair is weighted in place and reduced from views of its block.  Chunks
    # of 8 unit columns keep the fill below the reductions
    spec = InstanceSpec(n_x=2, n_u=2, T=6, branching=2, L=1.0, alpha=0.04,
                        gamma=1.0, noise_scale=0.1, seed=5)
    tree = generate_certified_instance(spec).tree
    monkeypatch.setattr(kkt, "UNIT_CHUNK", 8)
    zd, size = 2 * tree.nx + tree.nu, np.bincount(tree.stage)
    block = max(8 * zd**2 * size[t] * size[t:].sum() for t in range(size.size))
    tracemalloc.start()
    try:
        measure_decay(tree, 0, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block == 8 * 384**2 and peak < 1.8 * block


# ---------------------------------------------------------------------------
# uniform regularity


def test_regularity_single_decoupled_node():
    nd = nd_scalar(A=0.0, B=0.0)
    tree = build_tree_stagewise(uniform_outcome(nd, [[1.0]]))
    consts = SimpleNamespace(L_H=3.0, gamma_F=0.5, gamma_G=0.5)
    report = check_uniform_regularity(tree, 0, 0, constants=consts)
    assert report.FFt_min_eig == pytest.approx(1.0, abs=1e-12)
    assert report.ReH_min_eig == pytest.approx(1.0, abs=1e-12)
    assert report.H_norm == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    assert report.H_norm <= 3.0
    assert report.all_pass and not report.rank_deficient


def test_regularity_measures_are_bound_free_without_constants():
    tree = random_tree(seed=57, T=2, branching=2)
    report = check_uniform_regularity(tree, 0, tree.horizon)
    assert report.FFt_min_eig > 0.0
    assert not report.rank_deficient
    # claimed bounds default to vacuous values
    assert report.H_pass and report.FFt_pass and report.ReH_pass


def test_regularity_null_space_hessian_positive_for_pd_costs():
    tree = random_tree(seed=58, T=2, branching=2, nx=2, nu=1)
    report = check_uniform_regularity(tree, 0, tree.horizon)
    assert report.ReH_min_eig > 0.0


def nonconvex_tree(T=3):
    """Scalar stagewise tree with Q = -5 at every node and two branches per
    stage: the stationary point of its problem is a saddle."""
    def nd(d, q):
        return nd_scalar(A=1.0, B=1.0, d=d, Q=-5.0, R=1.0, q=q)

    branches = [(nd(0.1, 0.1), 0.5), (nd(-0.1, -0.1), 0.5)]
    return build_tree_stagewise(stagewise([[(nd(0.0, 0.1), 1.0)]] + [branches] * T))


@pytest.mark.parametrize(
    "build, root",
    [
        (lambda rng: random_tree(91, T=2, branching=3, nx=1, nu=1), 0),
        (lambda rng: random_tree(92, T=3, branching=2, nx=2, nu=1), 0),
        (lambda rng: random_tree(93, T=4, branching=2, nx=3, nu=2), 0),
        (lambda rng: random_tree(94, T=4, branching=2, nx=1, nu=3), 2),
        (crossed_tree, 0),
        (uneven_tree, 0),
        (lambda rng: unstable_chain(24), 0),
        (lambda rng: unstable_chain(60), 0),
    ],
    ids=[
        "stagewise-T2", "stagewise-T3", "stagewise-T4", "interior", "crossed", "uneven",
        "unstable-chain-T24", "unstable-chain-T60",
    ],
)
def test_regularity_matches_dense_oracle(build, root):
    # on the A = 2 chain a null-space basis that simulates the states
    # forward grows like 2^T; the projector onto null(F) does not
    tree = build(np.random.default_rng(90))
    W = tree.horizon - int(tree.stage[root])
    report = check_uniform_regularity(tree, root, W)
    H_norm, FFt_min, ReH_min = dense_regularity(tree, subtree_nodes(tree, root, W).tolist())
    assert report.H_norm == pytest.approx(H_norm, rel=1e-12)
    assert report.FFt_min_eig == pytest.approx(FFt_min, rel=1e-12)
    assert report.ReH_min_eig == pytest.approx(ReH_min, rel=1e-12)
    assert not report.rank_deficient


def test_regularity_finds_smallest_not_nearest_zero_on_nonconvex_tree():
    # 15 nodes with one control each: a 15-dimensional null space of F,
    # whose reduced Hessian has eigenvalues near -4.008 and -0.413; the
    # smallest, not the one nearest zero, is the regularity measure
    tree = nonconvex_tree(T=3)
    ReH_min = dense_regularity(tree, tuple(range(tree.node_count)))[2]
    assert ReH_min == pytest.approx(-4.0080869578432985, rel=1e-12)
    report = check_uniform_regularity(tree, 0, tree.horizon)
    assert report.ReH_min_eig == pytest.approx(ReH_min, rel=1e-12)
    assert not report.ReH_pass


def test_regularity_factors_F_Ft_once_and_no_kkt_system(monkeypatch):
    factored = []
    splu = scipy.sparse.linalg.splu

    def counted(A, *args, **kwargs):
        factored.append(A.toarray())
        return splu(A, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("KKT system factored or solved")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    monkeypatch.setattr(kkt, "factor_kkt", refuse)
    monkeypatch.setattr(kkt, "solve_kkt", refuse)
    tree = random_tree(seed=95, T=4, branching=2, nx=2, nu=2)
    check_uniform_regularity(tree, 0, tree.horizon)
    assert len(factored) == 1
    H = ScaledKKT(tree, 0, tree.horizon).H.toarray()
    w = np.arange(H.shape[0]) % 6 < 4  # (x, u) of each (x, u, y) block
    F = H[~w][:, w]
    assert_allclose(factored[0], F @ F.T, rtol=0, atol=1e-14)


def test_regularity_reruns_bit_identical():
    def fresh():
        tree = random_tree(seed=95, T=4, branching=2, nx=2, nu=2)
        return check_uniform_regularity(tree, 0, tree.horizon)

    assert fresh() == fresh()


def test_regularity_eigsh_stops_at_the_krylov_tolerance(monkeypatch):
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def recorded(A, *args, **kwargs):
        calls.append(kwargs)
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(kkt.spla, "eigsh", recorded)
    tree = random_tree(seed=95, T=4, branching=2, nx=2, nu=2)
    check_uniform_regularity(tree, 0, tree.horizon)
    assert [call["tol"] for call in calls] == [KRYLOV_TOL] * 3


def test_kkt_names_no_aslinearoperator():
    with open(kkt.__file__) as fh:
        tree = ast.parse(fh.read(), filename=kkt.__file__)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "aslinearoperator" not in names


def test_regularity_peak_memory_below_half_a_dense_kkt():
    # the T = 6 KKT matrix is 762 x 762; its dense float64 form alone would
    # take 4.6 MB
    tree = random_tree(seed=96, T=6, branching=2, nx=2, nu=2)
    n = (2 * tree.nx + tree.nu) * tree.node_count
    tracemalloc.start()
    try:
        check_uniform_regularity(tree, 0, tree.horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 762 and peak < 0.5 * 8 * n * n


# ---------------------------------------------------------------------------
# stage cost kernel


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    T=st.integers(0, 3),
    branching=st.integers(1, 3),
    nx=st.integers(1, 3),
    nu=st.integers(1, 3),
    M=st.integers(0, 12),
)
@example(seed=1, T=0, branching=1, nx=2, nu=1, M=3)
@example(seed=2, T=2, branching=2, nx=3, nu=2, M=12)
def test_stage_costs_match_per_node_loop(seed, T, branching, nx, nu, M):
    # T = 0 is the single-node tree; positions repeat nodes in any order,
    # as the scenario paths of the anticipative baseline do
    tree = random_tree(seed, T=T, branching=branching, nx=nx, nu=nu)
    rng = np.random.default_rng(seed)
    node = rng.integers(0, tree.node_count, size=M)
    x, u = rng.standard_normal((M, nx)), rng.standard_normal((M, nu))
    cost = stage_costs(tree, node, x, u)
    ref, scale = stage_costs_loop(tree, node, x, u)
    assert cost.shape == (M,)
    assert np.all(np.abs(cost - ref) <= 1e-14 * scale)

