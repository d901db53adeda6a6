"""Receding-horizon policy, baselines, regret, and closed-loop recursion."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spc_lab import (
    BlockMatrix,
    Blocks,
    ClosedLoopTrace,
    InstanceSpec,
    SingularKKTError,
    SolverError,
    TreeError,
    build_tree_explicit,
    dynamic_regret,
    generate_certified_instance,
    hypothetical_state,
    pi_norm_mat,
    recursion_matrices,
    run_spc,
    solution_map,
    solve_anticipative,
    solve_here_and_now,
    solve_optimal,
    spc_step,
    stage_norm,
    subtree_nodes,
)

from spc_lab.cli import DEFAULT_SPEC
from spc_lab.controller import checked_regret, here_and_now_system, run_spc_windows
from spc_lab.kkt import factor_kkt
from spc_lab.tree import build_tree_stagewise

from .helpers import (
    chain_tree,
    crossed_tree,
    node_data,
    nd_scalar,
    random_node_data,
    random_tree,
    stack,
    stagewise,
    uneven_tree,
    unstable_chain,
)
from .oracles import (
    NodeRow,
    dense_solution_map,
    dense_unscaled_solve,
    here_and_now_dense,
    riccati_chain,
    simulate_no_lookahead,
)


def zero_pair(tree):
    return np.zeros(tree.nx), np.zeros(tree.nu)


def random_pair(rng, tree):
    return rng.standard_normal(tree.nx), rng.standard_normal(tree.nu)


def committed(trace):
    """Committed pairs of a trace stacked as ``(N, nx + nu)``."""
    return np.hstack([trace.x, trace.u])


def zero_data_tree(T=3, branching=2):
    nd = nd_scalar(A=0.7, B=1.0, d=0.0, Q=1.0, R=1.0, q=0.0, r=0.0)
    parents, stages, probs, data = [-1], [0], [1.0], [nd]
    frontier = [0]
    for t in range(1, T + 1):
        nxt = []
        for par in frontier:
            for _ in range(branching):
                parents.append(par)
                stages.append(t)
                probs.append(probs[par] / branching)
                data.append(nd)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return build_tree_explicit(parents, stages, probs, stack(data))


# ---------------------------------------------------------------------------
# solve_optimal


def test_solve_optimal_zero_data_gives_zero():
    tree = zero_data_tree()
    sol = solve_optimal(tree, zero_pair(tree))
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    for n in sol.nodes:
        assert np.allclose(sol.x[n], 0.0, atol=1e-12)
        assert np.allclose(sol.u[n], 0.0, atol=1e-12)


def test_solve_optimal_singleton_matches_deterministic_lq():
    rng = np.random.default_rng(5)
    tree = random_tree(5, T=4, branching=1, nx=2, nu=2)
    w_prev = random_pair(rng, tree)
    sol = solve_optimal(tree, w_prev)
    x_or, u_or, J_or = riccati_chain(tree, w_prev)
    assert sol.objective == pytest.approx(J_or, abs=1e-8)
    for t in range(tree.horizon + 1):
        assert np.allclose(sol.x[t], x_or[t], atol=1e-8)
        assert np.allclose(sol.u[t], u_or[t], atol=1e-8)


@pytest.mark.parametrize("T", [32, 40])
def test_solve_optimal_open_loop_unstable_chain(T):
    # with A = 2 an adjoint recursion for the multipliers amplifies
    # rounding by 2^T on the way up; value gradients do not
    tree = unstable_chain(T)
    w_prev = (np.array([1.0]), np.array([0.0]))
    sol = solve_optimal(tree, w_prev)
    x_lq, u_lq, J_lq = riccati_chain(tree, w_prev)
    assert sol.objective == pytest.approx(J_lq, abs=1e-10)
    assert np.allclose(sol.x, [x_lq[t] for t in range(T + 1)], rtol=0, atol=1e-10)
    assert np.allclose(sol.u, [u_lq[t] for t in range(T + 1)], rtol=0, atol=1e-10)


def test_solve_optimal_seven_nodes_matches_dense_oracle():
    rng = np.random.default_rng(7)
    tree = random_tree(7, T=2, branching=2, nx=2, nu=1)
    w_prev = random_pair(rng, tree)
    sol = solve_optimal(tree, w_prev)
    nodes = tuple(range(tree.node_count))
    x_or, u_or, y_or, J_or = dense_unscaled_solve(tree, 0, nodes, w_prev)
    assert sol.objective == pytest.approx(J_or, abs=1e-8)
    for n in nodes:
        assert np.allclose(sol.x[n], x_or[n], atol=1e-8)
        assert np.allclose(sol.u[n], u_or[n], atol=1e-8)
        assert np.allclose(sol.y[n], y_or[n], atol=1e-8)


# ---------------------------------------------------------------------------
# spc_step


def test_spc_step_full_window_matches_subtree_resolve():
    rng = np.random.default_rng(11)
    tree = random_tree(11, T=3, branching=2)
    opt = solve_optimal(tree, random_pair(rng, tree))
    k = 1
    step = spc_step(tree, k, (opt.x[0], opt.u[0]), tree.horizon)
    for i, n in enumerate(step.plan.nodes):
        assert np.allclose(step.plan.x[i], opt.x[n], atol=1e-8)
        assert np.allclose(step.plan.u[i], opt.u[n], atol=1e-8)


def test_spc_step_zero_window_first_order_control():
    rng = np.random.default_rng(13)
    tree = random_tree(13, T=2, branching=2)
    k = 2
    prev = random_pair(rng, tree)
    step = spc_step(tree, k, prev, 0)
    nd = NodeRow(tree, k)
    assert np.allclose(step.u, np.linalg.solve(nd.R, nd.r), atol=1e-10)
    forced = nd.A @ prev[0] + nd.B @ prev[1] + nd.d
    assert np.allclose(step.x, forced, atol=1e-10)


def test_spc_step_zero_data_zero_commitment():
    tree = zero_data_tree()
    step = spc_step(tree, 3, zero_pair(tree), 1)
    assert np.allclose(step.x, 0.0, atol=1e-12)
    assert np.allclose(step.u, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# run_spc


def test_run_spc_full_window_equals_optimal():
    rng = np.random.default_rng(17)
    tree = random_tree(17, T=3, branching=2)
    w_prev = random_pair(rng, tree)
    trace = run_spc(tree, w_prev, tree.horizon)
    opt = solve_optimal(tree, w_prev)
    for n in range(tree.node_count):
        assert np.allclose(trace.x[n], opt.x[n], atol=1e-8)
        assert np.allclose(trace.u[n], opt.u[n], atol=1e-8)
    assert trace.J_W == pytest.approx(opt.objective, abs=1e-8)


def test_run_spc_chain_myopic_closed_form():
    T = 5
    tree = chain_tree(T)
    trace = run_spc(tree, (np.array([1.0]), np.array([0.0])), 0)
    for t in range(T + 1):
        assert trace.u[t] == pytest.approx(0.0, abs=1e-12)
        assert trace.x[t] == pytest.approx(1.0, abs=1e-12)
    assert trace.J_W == pytest.approx((T + 1) / 2, abs=1e-12)
    x_or, u_or, J_or = simulate_no_lookahead(
        tree, (np.array([1.0]), np.array([0.0]))
    )
    assert trace.J_W == pytest.approx(J_or, abs=1e-12)


def test_run_spc_zero_data_all_windows():
    tree = zero_data_tree(T=2)
    for W in range(tree.horizon + 1):
        trace = run_spc(tree, zero_pair(tree), W)
        assert trace.J_W == pytest.approx(0.0, abs=1e-12)


def test_run_spc_dynamics_invariant():
    rng = np.random.default_rng(19)
    tree = random_tree(19, T=3, branching=2)
    trace = run_spc(tree, random_pair(rng, tree), 1)
    for n in range(1, tree.node_count):
        nd = NodeRow(tree, n)
        par = int(tree.parent[n])
        forced = nd.A @ trace.x[par] + nd.B @ trace.u[par] + nd.d
        assert np.allclose(trace.x[n], forced, atol=1e-8)


def test_run_spc_annotates_failing_node():
    nd = nd_scalar()
    broken = nd_scalar(R=0.0)
    tree = build_tree_explicit(
        [-1, 0, 0], [0, 1, 1], [1.0, 0.5, 0.5], stack([nd, nd, broken])
    )
    with pytest.raises(SingularKKTError, match="node 2"):
        run_spc(tree, (np.zeros(1), np.zeros(1)), 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: random_tree(61, T=3, branching=2, nx=3, nu=2),
        lambda rng: random_tree(62, T=4, branching=2, nx=3, nu=2),
        crossed_tree,
        uneven_tree,
    ],
    ids=["stagewise-T3", "stagewise-T4", "crossed", "uneven"],
)
def test_run_spc_commits_first_decision_of_dense_oracle(build):
    # every window's commitment is the first decision of its own subtree
    # problem, started from the parent's committed pair
    rng = np.random.default_rng(60)
    tree = build(rng)
    w_prev = random_pair(rng, tree)
    for W in range(tree.horizon + 1):
        trace = run_spc(tree, w_prev, W)
        for k in range(tree.node_count):
            par = int(tree.parent[k])
            prev = w_prev if par < 0 else (trace.x[par], trace.u[par])
            nodes = tuple(subtree_nodes(tree, k, W))
            ox, ou, _, _ = dense_unscaled_solve(tree, k, nodes, prev)
            assert np.allclose(trace.x[k], ox[k], rtol=0, atol=1e-8)
            assert np.allclose(trace.u[k], ou[k], rtol=0, atol=1e-8)


def test_run_spc_root_without_control_cost():
    # R = 0 at the root leaves only the depth-0 root problem singular;
    # every window W >= 1 sees the children's curvature
    rng = np.random.default_rng(63)
    nd = random_node_data(rng, 1, 1)
    root = nd_scalar(A=0.5, B=1.0, d=0.2, Q=1.0, R=0.0, q=0.3, r=0.1)
    tree = build_tree_explicit(
        [-1, 0, 0, 1, 2], [0, 1, 1, 2, 2], [1.0, 0.5, 0.5, 0.5, 0.5],
        stack([root, nd, nd, nd, nd]),
    )
    w_prev = random_pair(rng, tree)
    for W in (1, 2):
        trace = run_spc(tree, w_prev, W)
        ox, ou, _, _ = dense_unscaled_solve(
            tree, 0, tuple(subtree_nodes(tree, 0, W)), w_prev
        )
        assert np.allclose(trace.u[0], ou[0], rtol=0, atol=1e-8)
    with pytest.raises(SingularKKTError, match="node 0"):
        run_spc(tree, w_prev, 0)


def test_run_spc_rejects_negative_window():
    tree = zero_data_tree(T=1)
    with pytest.raises(Exception, match="W"):
        run_spc(tree, zero_pair(tree), -1)


def window_sets(T):
    """Window sets with gaps, ends, a single window, a run and the full range."""
    return [[1, 4], [0, T], [3], [2, 5, 6], list(range(T + 1))]


def seed5_instance(T):
    inst = generate_certified_instance(InstanceSpec(**{**DEFAULT_SPEC, "T": T, "seed": 5}))
    return inst.tree, inst.w_prev


@pytest.mark.parametrize(
    "build",
    [
        lambda: seed5_instance(7),
        lambda: seed5_instance(8),
        lambda: (crossed_tree(np.random.default_rng(64)), None),
        lambda: (uneven_tree(np.random.default_rng(65)), None),
    ],
    ids=["seed5-T7", "seed5-T8", "crossed", "uneven"],
)
def test_shared_factor_traces_equal_one_window_runs_bit_for_bit(build):
    tree, w_prev = build()
    if w_prev is None:
        w_prev = random_pair(np.random.default_rng(66), tree)
    for windows in window_sets(tree.horizon):
        traces = run_spc_windows(tree, w_prev, windows)
        assert [trace.W for trace in traces] == windows
        for W, trace in zip(windows, traces):
            alone = run_spc(tree, w_prev, W)
            assert np.array_equal(trace.x, alone.x)
            assert np.array_equal(trace.u, alone.u)
            assert trace.J_W == alone.J_W
            assert not trace.x.flags.writeable and not trace.u.flags.writeable


def test_run_spc_windows_empty_list_factors_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("factored for an empty window list")

    monkeypatch.setattr("spc_lab.controller.RiccatiFactor", refuse)
    tree = zero_data_tree(T=2)
    assert run_spc_windows(tree, zero_pair(tree), []) == []
    with pytest.raises(TreeError, match="W"):
        run_spc_windows(tree, zero_pair(tree), [2, -1])


# ---------------------------------------------------------------------------
# dynamic_regret


def test_regret_vanishes_at_full_window():
    rng = np.random.default_rng(23)
    tree = random_tree(23, T=3, branching=2)
    J_W, J_star, regret = dynamic_regret(
        tree, random_pair(rng, tree), tree.horizon
    )
    assert abs(regret) <= 1e-8


def test_regret_chain_quarter():
    tree = chain_tree(1)
    w_prev = (np.array([1.0]), np.array([0.0]))
    J_W, J_star, regret = dynamic_regret(tree, w_prev, 0)
    assert J_W == pytest.approx(1.0, abs=1e-10)
    assert J_star == pytest.approx(0.75, abs=1e-10)
    assert regret == pytest.approx(0.25, abs=1e-10)
    x_or, u_or, y_or, J_or = dense_unscaled_solve(tree, 0, (0, 1), w_prev)
    assert J_star == pytest.approx(J_or, abs=1e-10)


def test_regret_curve_reported_not_asserted():
    rng = np.random.default_rng(29)
    tree = random_tree(29, T=3, branching=2)
    w_prev = random_pair(rng, tree)
    curve = []
    for W in range(tree.horizon + 1):
        _, _, regret = dynamic_regret(tree, w_prev, W)
        assert regret >= -1e-8
        curve.append(regret)
    print("regret vs window:", [f"{r:.3e}" for r in curve])
    assert curve[-1] <= 1e-8


def test_checked_regret_refuses_a_cost_below_the_optimum():
    # convex problems are solved to 1e-8, so only a broken solve undercuts
    assert checked_regret(1.0, 1.0 - 1e-9) == pytest.approx(1e-9)
    with pytest.raises(SolverError, match="undercuts the optimum"):
        checked_regret(1.0, 1.0 + 1e-6)


# ---------------------------------------------------------------------------
# baselines


def test_here_and_now_singleton_equals_optimal():
    rng = np.random.default_rng(31)
    tree = random_tree(31, T=3, branching=1)
    w_prev = random_pair(rng, tree)
    hn = solve_here_and_now(tree, w_prev)
    opt = solve_optimal(tree, w_prev)
    assert hn.objective == pytest.approx(opt.objective, abs=1e-9)


def test_here_and_now_zero_data():
    tree = zero_data_tree(T=2)
    hn = solve_here_and_now(tree, zero_pair(tree))
    assert hn.objective == pytest.approx(0.0, abs=1e-12)


def test_here_and_now_matches_reduced_oracle():
    rng = np.random.default_rng(37)
    tree = random_tree(37, T=3, branching=2, nx=2, nu=2)
    w_prev = random_pair(rng, tree)
    hn = solve_here_and_now(tree, w_prev)
    v_or, x_or, J_or = here_and_now_dense(tree, w_prev)
    assert hn.objective == pytest.approx(J_or, abs=1e-8)
    for t in range(tree.horizon + 1):
        assert np.allclose(hn.v[t], v_or[t], atol=1e-8)
    for n in range(tree.node_count):
        assert np.allclose(hn.x[n], x_or[n], atol=1e-8)


@pytest.mark.parametrize("T", [24, 40])
def test_here_and_now_open_loop_unstable_chain(T):
    # with A = 2 the map from v_0 to x_T grows like 2^T, so a solve that
    # eliminates the states loses 4^T in conditioning; on one outcome the
    # baseline is the deterministic optimum, solved here by two oracles
    tree = unstable_chain(T)
    w_prev = (np.array([1.0]), np.array([0.0]))
    hn = solve_here_and_now(tree, w_prev)
    v_or, x_or, J_or = here_and_now_dense(tree, w_prev)
    x_lq, u_lq, J_lq = riccati_chain(tree, w_prev)
    assert hn.objective == pytest.approx(J_or, abs=1e-10)
    assert hn.objective == pytest.approx(J_lq, abs=1e-10)
    assert np.allclose(hn.v, v_or, rtol=0, atol=1e-10)
    assert np.allclose(hn.x, x_or, rtol=0, atol=1e-10)
    assert np.allclose(hn.v, [u_lq[t] for t in range(T + 1)], rtol=0, atol=1e-10)
    assert np.allclose(hn.x, [x_lq[t] for t in range(T + 1)], rtol=0, atol=1e-10)


def test_here_and_now_states_follow_dynamics():
    rng = np.random.default_rng(41)
    tree = random_tree(41, T=3, branching=2)
    x_prev, u_prev = random_pair(rng, tree)
    hn = solve_here_and_now(tree, (x_prev, u_prev))
    root = NodeRow(tree, 0)
    assert np.allclose(
        hn.x[0], root.A @ x_prev + root.B @ u_prev + root.d, atol=1e-8
    )
    for n in range(1, tree.node_count):
        nd = NodeRow(tree, n)
        par = int(tree.parent[n])
        t = int(tree.stage[n])
        forced = nd.A @ hn.x[par] + nd.B @ hn.v[t - 1] + nd.d
        assert np.allclose(hn.x[n], forced, atol=1e-8)


def ci_stagewise_tree():
    """The stagewise product tree of the CI's stagewise problem file: nx = 2,
    nu = 1, T = 4, two outcomes per stage with probabilities 0.4 and 0.6."""
    def outcome(s):
        return node_data(
            A=[[0.9, 0.1 * s], [0.0, 0.8]], B=[[0.0], [1.0]], d=[0.1 * s, 0.0],
            Q=[[1.0, 0.0], [0.0, 0.5]], R=[[1.0]], q=[0.1, -0.1 * s], r=[0.05 * s],
        )
    return build_tree_stagewise(
        stagewise([[(outcome(0), 1.0)]] + [[(outcome(1), 0.4), (outcome(-1), 0.6)]] * 4)
    )


HN_TREES = {
    "branching3": lambda rng: random_tree(51, T=3, branching=3, nx=2, nu=1),
    "ci_stagewise": lambda rng: ci_stagewise_tree(),
    "nx1_nu2": lambda rng: random_tree(52, T=4, branching=2, nx=1, nu=2),
    "crossed": crossed_tree,
    "uneven": uneven_tree,
}


@pytest.mark.parametrize("make", HN_TREES.values(), ids=HN_TREES.keys())
def test_here_and_now_matches_oracle_on_other_trees(make):
    rng = np.random.default_rng(53)
    tree = make(rng)
    w_prev = random_pair(rng, tree)
    hn = solve_here_and_now(tree, w_prev)
    v_or, x_or, J_or = here_and_now_dense(tree, w_prev)
    assert hn.objective == pytest.approx(J_or, rel=0, abs=1e-10)
    assert_allclose(hn.v, v_or, rtol=0, atol=1e-10)
    assert_allclose(hn.x, x_or, rtol=0, atol=1e-10)


@pytest.mark.parametrize("make", HN_TREES.values(), ids=HN_TREES.keys())
def test_here_and_now_system_is_ordered_leaves_first(make):
    # node i's (x~, y~) block sits at position N - 1 - i, so every block
    # couples only to its children's blocks, before it, and its parent's,
    # after it; the shared controls close the system
    rng = np.random.default_rng(54)
    tree = make(rng)
    H, rhs = here_and_now_system(tree, random_pair(rng, tree))
    N, T, nx, nu, zd = tree.node_count, tree.horizon, tree.nx, tree.nu, 2 * tree.nx
    V = zd * N
    assert H.shape == (V + nu * (T + 1),) * 2 == (rhs.size,) * 2
    assert H.has_canonical_format
    assert (H != H.T).nnz == 0  # exactly symmetric
    pos = N - 1 - np.arange(N)
    for i in range(N):
        own = H[zd * pos[i] : zd * pos[i] + zd][:, zd * pos[i] : zd * pos[i] + zd].toarray()
        assert np.array_equal(own, np.block([[tree.arrays.Q[i], np.eye(nx)],
                                             [np.eye(nx), np.zeros((nx, nx))]]))
    coo = H[:V, :V].tocoo()
    row_blk, col_blk = coo.row // zd, coo.col // zd
    cross = {(int(a), int(b)) for a, b in zip(row_blk, col_blk) if a < b}
    kids = np.arange(1, N)
    assert cross == set(zip(pos[kids].tolist(), pos[tree.parent[kids]].tolist()))
    assert all(pos[c] < pos[tree.parent[c]] for c in kids)
    # the controls: stage t's block is sum s_i^2 R_i, they couple to no
    # other control, and only to the multiplier rows y~ of stages >= 1
    s2 = tree.pi / tree.pi[0]
    want = np.zeros((nu * (T + 1),) * 2)
    for i in range(N):
        t = int(tree.stage[i])
        want[nu * t : nu * t + nu, nu * t : nu * t + nu] += s2[i] * tree.arrays.R[i]
    assert_allclose(H[V:, V:].toarray(), want, rtol=1e-15, atol=0)
    coupled = np.unique(H[:V, V:].tocoo().row)
    assert np.all(coupled % zd >= nx)
    assert set((N - 1 - coupled // zd).tolist()) <= set(range(1, N))


def test_here_and_now_order_fills_less_than_colamd():
    # eliminated leaves first, the system fills in less than under
    # SuperLU's fill-reducing column search
    tree = random_tree(55, T=6, branching=2, nx=2, nu=2)
    H, _ = here_and_now_system(tree, zero_pair(tree))
    natural = factor_kkt(H, permc_spec="NATURAL")
    colamd = factor_kkt(H)
    assert natural.L.nnz + natural.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_anticipative_singleton_equals_optimal():
    rng = np.random.default_rng(43)
    tree = random_tree(43, T=3, branching=1)
    w_prev = random_pair(rng, tree)
    an = solve_anticipative(tree, w_prev)
    opt = solve_optimal(tree, w_prev)
    assert an.objective == pytest.approx(opt.objective, abs=1e-9)


def test_baselines_are_read_only_arrays():
    rng = np.random.default_rng(45)
    tree = random_tree(45, T=3, branching=2, nx=2, nu=2)
    w_prev = random_pair(rng, tree)
    hn, an = solve_here_and_now(tree, w_prev), solve_anticipative(tree, w_prev)
    assert hn.x.shape == (tree.node_count, 2) and hn.v.shape == (4, 2)
    assert an.path_values.shape == (len(tree.leaves()),) == (8,)
    for a in (hn.x, hn.v, an.path_values):
        assert not a.flags.writeable


def test_run_keeps_its_own_committed_pair():
    # the caller's arrays stay the caller's: editing them after the run
    # changes neither the trace's pair nor the re-solves started from it
    rng = np.random.default_rng(46)
    tree = random_tree(46, T=3, branching=2, nx=2, nu=2)
    x0, u0 = random_pair(rng, tree)
    trace = run_spc(tree, (x0, u0), 1)
    pair = [a.copy() for a in trace.w_prev_init]
    before = hypothetical_state(tree, trace)
    x0 += 1.0
    u0[:] = np.nan
    assert all(not a.flags.writeable for a in trace.w_prev_init)
    assert [a.tobytes() for a in trace.w_prev_init] == [a.tobytes() for a in pair]
    assert hypothetical_state(tree, trace).tobytes() == before.tobytes()


@pytest.mark.parametrize("form", [list, tuple, np.array], ids=["lists", "tuples", "arrays"])
def test_solve_entries_take_any_pair_form(form):
    # every solve entry reads a committed pair given as lists, tuples or
    # arrays to the same bits, and hands back read-only arrays
    rng = np.random.default_rng(48)
    tree = random_tree(48, T=3, branching=2, nx=2, nu=1)
    pair = random_pair(rng, tree)
    given = tuple(form(a.tolist()) for a in pair)
    entries = {
        "optimal": lambda w: (solve_optimal(tree, w).x, solve_optimal(tree, w).u),
        "spc_step": lambda w: spc_step(tree, 0, w, 2)[:2],
        "run_spc": lambda w: (lambda t: (t.x, t.u, *t.w_prev_init))(run_spc(tree, w, 1)),
        "here_and_now": lambda w: (lambda s: (s.x, s.v))(solve_here_and_now(tree, w)),
        "anticipative": lambda w: (solve_anticipative(tree, w).path_values,),
    }
    for name, entry in entries.items():
        got, want = entry(given), entry(pair)
        for a, b in zip(got, want):
            assert not a.flags.writeable and a.dtype == np.float64, name
            assert a.tobytes() == b.tobytes(), name


def test_anticipative_zero_data():
    tree = zero_data_tree(T=2)
    an = solve_anticipative(tree, zero_pair(tree))
    assert an.objective == pytest.approx(0.0, abs=1e-12)


def test_anticipative_paths_match_dense_oracle():
    rng = np.random.default_rng(47)
    tree = random_tree(47, T=2, branching=2)
    w_prev = random_pair(rng, tree)
    an = solve_anticipative(tree, w_prev)
    for leaf, val in zip(tree.leaves(), an.path_values):
        path = tree.ancestors[leaf, : tree.stage[leaf] + 1].tolist()
        chain = build_tree_explicit(
            list(range(-1, len(path) - 1)),
            list(range(len(path))),
            [1.0] * len(path),
            stack([NodeRow(tree, n) for n in path]),
        )
        _, _, _, J_or = dense_unscaled_solve(
            chain, 0, tuple(range(len(path))), w_prev
        )
        assert val == pytest.approx(J_or, abs=1e-8)


def test_sandwich_inequality():
    rng = np.random.default_rng(53)
    for seed in (53, 54, 55):
        tree = random_tree(seed, T=3, branching=2)
        w_prev = random_pair(rng, tree)
        J_an = solve_anticipative(tree, w_prev).objective
        J_star = solve_optimal(tree, w_prev).objective
        J_hn = solve_here_and_now(tree, w_prev).objective
        assert J_an - 1e-9 <= J_star <= J_hn + 1e-9


# ---------------------------------------------------------------------------
# recursion matrices


class StageSlabs:
    """Every stage's ``recursion_matrices(tree, W, t)`` slab, read per node:
    row block ``psi(k, j)`` of k over ``p_j``, transfer ``S(k)`` and window
    term ``drive(k)``."""

    def __init__(self, tree, W):
        self.tree = tree
        self.slabs = [recursion_matrices(tree, W, t) for t in range(tree.horizon + 1)]

    def psi(self, k, j):
        """Zero where j lies outside k's window."""
        tree, t = self.tree, int(self.tree.stage[k])
        slab, row = self.slabs[t], j - int(tree.stage_nodes(t)[0])
        if tree.ancestors[j, t] == k and row < len(slab):
            return slab[row]
        return np.zeros(slab.shape[1:])

    def S(self, k):
        return self.psi(k, k) @ injection(self.tree, k)

    def drive(self, k):
        """``sum_j Psi_kj p_j`` over k's window."""
        tree, t = self.tree, int(self.tree.stage[k])
        j = tree.stage_nodes(t)[0] + np.arange(len(self.slabs[t]))
        mine = tree.ancestors[j, t] == k
        return np.einsum("jab,jb->a", self.slabs[t][mine], tree.raw_arrays.p[j[mine]])


def injection(tree, k):
    """Lambda_k: the parent's committed pair (x, u) enters node k's
    perturbation as its dynamics offset A_k x + B_k u, nothing else."""
    nw = tree.nx + tree.nu
    lam = np.zeros((nw + tree.nx, nw))
    lam[nw:] = np.hstack([NodeRow(tree, k).A, NodeRow(tree, k).B])
    return lam


def test_recursion_lambda_layout():
    # S_k = Psi_kk Lambda_k is what the parent's pair adds to k's
    # commitment: k's window solved from that pair, less from zero
    rng = np.random.default_rng(59)
    tree = random_tree(59, T=2, branching=2)
    rec = StageSlabs(tree, 1)
    for n in range(tree.node_count):
        w_prev = random_pair(rng, tree)
        moved, still = spc_step(tree, n, w_prev, 1), spc_step(tree, n, zero_pair(tree), 1)
        response = np.concatenate([moved.x - still.x, moved.u - still.u])
        assert_allclose(rec.S(n) @ np.concatenate(w_prev), response, rtol=0, atol=1e-10)


def test_recursion_s_consistent_with_solution_maps():
    tree = random_tree(61, T=3, branching=2)
    W = 2
    rec = StageSlabs(tree, W)
    for k in (0, 1, 4):
        smap = solution_map(tree, k, W)
        # the subtree root k sits at block position 0
        psi_kk = smap.Psi[0, :, 0]
        assert np.allclose(rec.S(k), psi_kk @ injection(tree, k), atol=1e-10)
        for b, j in enumerate(subtree_nodes(tree, k, W)):
            assert np.allclose(rec.psi(k, j), smap.Psi[0, :, b], atol=1e-10)


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: random_tree(83, T=3, branching=2, nx=3, nu=2),
        crossed_tree,
        uneven_tree,
    ],
    ids=["stagewise", "crossed", "uneven"],
)
def test_recursion_psi_matches_dense_oracle_for_every_window(build):
    # row j - first of stage t's slab: row block of j's stage-t ancestor k
    # over p_j in k's window, read off the dense map of that window
    tree = build(np.random.default_rng(84))
    T, nw = tree.horizon, tree.nx + tree.nu
    for W in range(T + 1):
        for t in range(T + 1):
            first = int(tree.stage_nodes(t)[0])
            end = np.searchsorted(tree.stage, t + W, side="right")
            expected = np.zeros((end - first, nw, nw + tree.nx))
            for k in tree.stage_nodes(t):
                nodes = tuple(subtree_nodes(tree, k, W))
                omega = dense_solution_map(tree, k, nodes)
                for b, j in enumerate(nodes):
                    expected[j - first] = omega[0, :nw, b]
            slab = recursion_matrices(tree, W, t)
            assert not slab.flags.writeable and slab.shape == expected.shape
            assert_allclose(slab, expected, rtol=0, atol=1e-10 * np.abs(expected).max())


@pytest.mark.parametrize("W", [2, 6])
def test_recursion_matrices_allocate_nothing_of_dense_kkt_size(W):
    tree = random_tree(85, T=6, branching=2, nx=2, nu=1)
    dim = tree.node_count * (2 * tree.nx + tree.nu)
    tracemalloc.start()
    try:
        for t in range(tree.horizon + 1):
            recursion_matrices(tree, W, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 635 and peak < 8 * dim * dim


def test_recursion_zero_dynamics_gives_zero_S():
    rng = np.random.default_rng(67)
    nx, nu = 2, 1
    def still(seed):
        src = random_node_data(np.random.default_rng(seed), nx, nu)
        return type(src)(
            A=np.zeros((nx, nx)),
            B=np.zeros((nx, nu)),
            d=src.d,
            Q=src.Q,
            R=src.R,
            q=src.q,
            r=src.r,
        )
    parents = [-1, 0, 0, 1, 1, 2, 2]
    stages = [0, 1, 1, 2, 2, 2, 2]
    probs = [1.0, 0.4, 0.6, 0.2, 0.2, 0.3, 0.3]
    tree = build_tree_explicit(
        parents, stages, probs, stack([still(s) for s in range(7)])
    )
    rec = StageSlabs(tree, 1)
    for n in range(tree.node_count):
        assert np.allclose(rec.S(n), 0.0, atol=1e-12)
    w_prev = random_pair(rng, tree)
    trace = run_spc(tree, w_prev, 1)
    # with S = 0 every commitment is its own window's term
    drive = np.array([rec.drive(n) for n in range(tree.node_count)])
    assert_allclose(drive, committed(trace), rtol=0, atol=1e-8)


@pytest.mark.parametrize("W", [0, 1, 3])
def test_recursion_iterate_matches_run_spc(W):
    rng = np.random.default_rng(71)
    tree = random_tree(71, T=3, branching=2)
    w_prev = random_pair(rng, tree)
    rec = StageSlabs(tree, W)
    trace = run_spc(tree, w_prev, W)
    # one step from each node's parent commitment (the initial pair at the
    # root) gives the node's; iterated from the root, it gives the run
    w = committed(trace)
    prev = np.where((tree.parent >= 0)[:, None], w[tree.parent], np.concatenate(w_prev))
    one_step = [rec.drive(n) + rec.S(n) @ prev[n] for n in range(tree.node_count)]
    assert_allclose(one_step, w, rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "build",
    [lambda rng: random_tree(37, T=5, branching=2, nx=3, nu=2), crossed_tree],
    ids=["stagewise-T5", "crossed"],
)
def test_stage_norm_matches_dense_on_lemma_matrices(build):
    # products of S, Psi truncation gaps and S truncation gaps: each has
    # one block per row or one per column, so the exact stage norm must
    # agree with the general pi_norm_mat of the assembled block matrix
    tree = build(np.random.default_rng(37))
    T, anc, parent = tree.horizon, tree.ancestors, tree.parent
    rec_inf, rec_W = StageSlabs(tree, T), StageSlabs(tree, 1)

    def check(blocks, t_row, t_col):
        rows, cols = tree.stage_nodes(t_row), tree.stage_nodes(t_col)
        dense = pi_norm_mat(BlockMatrix(tree, rows, cols, blocks))
        exact = stage_norm(tree.pi, blocks)
        assert exact == pytest.approx(dense, rel=1e-12, abs=0)

    for t2 in range(T):
        P = {i: np.eye(tree.nx + tree.nu) for i in tree.stage_nodes(t2)}
        for t in range(t2 + 1, T + 1):
            at = tree.stage_nodes(t)
            P.update({i: rec_inf.S(i) @ P[int(parent[i])] for i in at})
            check(Blocks(at, anc[at, t2], np.array([P[i] for i in at])), t, t2)
    for t in range(T + 1):
        for tp in range(t, T + 1):
            cols = tree.stage_nodes(tp)
            gap = [rec_inf.psi(anc[j, t], j) - rec_W.psi(anc[j, t], j) for j in cols]
            check(Blocks(anc[cols, t], cols, np.array(gap)), t, tp)
    for t in range(1, T + 1):
        at = tree.stage_nodes(t)
        gap = [rec_inf.S(i) - rec_W.S(i) for i in at]
        check(Blocks(at, parent[at], np.array(gap)), t, t - 1)


def stage_apply(rec, t, v):
    """The stage-t transfer applied to stage-(t-1) blocks ``v``."""
    tree = rec.tree
    return {i: rec.S(i) @ v[int(tree.parent[i])] for i in tree.stage_nodes(t)}


def psi_stage_apply(rec, t, tp):
    """Stage-t' perturbations mapped to the stage-t rows of their windows."""
    tree = rec.tree
    out = {i: np.zeros(tree.nx + tree.nu) for i in tree.stage_nodes(t)}
    for j in tree.stage_nodes(tp):
        k = int(tree.ancestors[j, t])
        out[k] += rec.psi(k, j) @ tree.raw_arrays.p[j]
    return out


def test_recursion_stagewise_matches_run_spc():
    rng = np.random.default_rng(73)
    tree = random_tree(73, T=3, branching=2)
    W = 2
    w_prev = random_pair(rng, tree)
    rec = StageSlabs(tree, W)
    trace = run_spc(tree, w_prev, W)

    current = {0: rec.S(0) @ np.concatenate(w_prev)}
    for tp in range(0, min(W, tree.horizon) + 1):
        current[0] = current[0] + psi_stage_apply(rec, 0, tp)[0]
    assert np.allclose(current[0], trace.w(0), atol=1e-8)
    for t in range(1, tree.horizon + 1):
        acc = stage_apply(rec, t, current)
        for tp in range(t, min(t + W, tree.horizon) + 1):
            for n, blk in psi_stage_apply(rec, t, tp).items():
                acc[n] += blk
        current = acc
        for n in tree.stage_nodes(t):
            assert np.allclose(current[n], trace.w(n), atol=1e-8)


def test_recursion_expansion_matches_run_spc():
    rng = np.random.default_rng(79)
    tree = random_tree(79, T=3, branching=2)
    W = 1
    w_prev = random_pair(rng, tree)
    rec = StageSlabs(tree, W)
    trace = run_spc(tree, w_prev, W)

    def prod_apply(t_from, t_to, v):
        for tau in range(t_from + 1, t_to + 1):
            v = stage_apply(rec, tau, v)
        return v

    for t in range(tree.horizon + 1):
        total = {n: np.zeros(tree.nx + tree.nu) for n in tree.stage_nodes(t)}
        seed = {0: rec.S(0) @ np.concatenate(w_prev)}
        for n, blk in prod_apply(0, t, seed).items():
            total[n] = total[n] + blk
        for t2 in range(0, t + 1):
            for tp in range(t2, min(t2 + W, tree.horizon) + 1):
                term = psi_stage_apply(rec, t2, tp)
                for n, blk in prod_apply(t2, t, term).items():
                    total[n] = total[n] + blk
        for n in tree.stage_nodes(t):
            assert np.allclose(total[n], trace.w(n), atol=1e-8)


# ---------------------------------------------------------------------------
# hypothetical re-solve and time consistency


def test_hypothetical_full_window_equals_trace():
    rng = np.random.default_rng(83)
    tree = random_tree(83, T=3, branching=2)
    w_prev = random_pair(rng, tree)
    trace = run_spc(tree, w_prev, tree.horizon)
    hyp = hypothetical_state(tree, trace)
    for n in range(tree.node_count):
        assert np.allclose(hyp[n], trace.w(n), atol=1e-8)


@pytest.mark.parametrize("build", [crossed_tree, uneven_tree], ids=["crossed", "uneven"])
def test_hypothetical_matches_per_node_full_horizon_solves(build):
    rng = np.random.default_rng(85)
    tree = build(rng)
    w_prev = random_pair(rng, tree)
    trace = run_spc(tree, w_prev, 1)
    hyp = hypothetical_state(tree, trace)
    for k in range(tree.node_count):
        par = int(tree.parent[k])
        prev = w_prev if par < 0 else (trace.x[par], trace.u[par])
        nodes = tuple(subtree_nodes(tree, k, tree.horizon))
        ox, ou, _, _ = dense_unscaled_solve(tree, k, nodes, prev)
        assert np.allclose(hyp[k], np.concatenate([ox[k], ou[k]]), atol=1e-8)


def test_hypothetical_zero_data():
    tree = zero_data_tree(T=2)
    trace = run_spc(tree, zero_pair(tree), 1)
    hyp = hypothetical_state(tree, trace)
    for n in range(tree.node_count):
        assert np.allclose(hyp[n], 0.0, atol=1e-12)


def time_consistency_gap(tree, w_prev):
    """Largest entry of the full-horizon plan minus its re-solve at every
    node from the plan's own commitment at the node's parent."""
    star = solve_optimal(tree, w_prev)
    plan = ClosedLoopTrace(tree, tree.horizon, star.x, star.u, star.objective, w_prev)
    return float(np.max(np.abs(hypothetical_state(tree, plan) - committed(plan))))


def test_time_consistency_singleton():
    tree = random_tree(89, T=4, branching=1)
    assert time_consistency_gap(tree, zero_pair(tree)) <= 1e-8


def test_time_consistency_random_binary():
    rng = np.random.default_rng(97)
    tree = random_tree(97, T=3, branching=2)
    assert time_consistency_gap(tree, random_pair(rng, tree)) <= 1e-8


def test_time_consistency_zero_data():
    tree = zero_data_tree(T=2)
    assert time_consistency_gap(tree, zero_pair(tree)) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# nonanticipativity


def test_commitment_ignores_data_outside_window():
    rng = np.random.default_rng(103)
    nx, nu = 2, 1
    datasets = [random_node_data(rng, nx, nu) for _ in range(7)]
    parents = [-1, 0, 0, 1, 1, 2, 2]
    stages = [0, 1, 1, 2, 2, 2, 2]
    probs = [1.0, 0.4, 0.6, 0.2, 0.2, 0.3, 0.3]
    tree = build_tree_explicit(parents, stages, probs, stack(datasets))
    prev = random_pair(rng, tree)
    k, W = 1, 1
    inside = set(subtree_nodes(tree, k, W))
    step = spc_step(tree, k, prev, W)
    mutated = list(datasets)
    for n in (2, 5, 6):
        assert n not in inside
        mutated[n] = random_node_data(rng, nx, nu)
    tree2 = build_tree_explicit(parents, stages, probs, stack(mutated))
    step2 = spc_step(tree2, k, prev, W)
    assert np.array_equal(step.x, step2.x)
    assert np.array_equal(step.u, step2.u)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), W=st.integers(0, 3))
def test_property_trace_dynamics_and_regret(seed, W):
    rng = np.random.default_rng(seed)
    tree = random_tree(seed, T=2, branching=2)
    w_prev = random_pair(rng, tree)
    J_W, J_star, regret = dynamic_regret(tree, w_prev, W)
    assert regret >= -1e-8
    trace = run_spc(tree, w_prev, W)
    for n in range(1, tree.node_count):
        nd = NodeRow(tree, n)
        par = int(tree.parent[n])
        forced = nd.A @ trace.x[par] + nd.B @ trace.u[par] + nd.d
        assert np.allclose(trace.x[n], forced, atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_sandwich(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(seed, T=2, branching=2)
    w_prev = random_pair(rng, tree)
    J_an = solve_anticipative(tree, w_prev).objective
    J_star = solve_optimal(tree, w_prev).objective
    J_hn = solve_here_and_now(tree, w_prev).objective
    assert J_an - 1e-9 <= J_star <= J_hn + 1e-9
