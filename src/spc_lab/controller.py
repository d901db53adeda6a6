"""Receding-horizon control on scenario trees, baselines, and regret.

The policy solves a depth-W subtree problem at every node, commits only
that node's state-control pair, and hands the commitment to the node's
children as their initial condition.  A full-horizon solve, a
here-and-now baseline (stagewise controls, no recourse), and an
anticipative baseline (per-scenario clairvoyant plans) bracket the
policy's performance.  The closed-loop recursion expresses each
commitment as its window's perturbation term plus a one-step transfer of
its parent's commitment; its matrices are built one ancestor stage at a
time, from the windows of that stage's nodes solved as one forest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .kkt import (
    PolicySolution,
    RiccatiFactor,
    SolverError,
    _mv,
    _window,
    depth_layers,
    factor_kkt,
    forest_rhs,
    rollout,
    solve_extensive,
    solve_forest,
    solve_kkt,
    stage_costs,
)
from .tree import TreeError, _frozen, committed_pair, predecessor_pairs

# SuperLU panel width of the here-and-now LU: against SuperLU's default
# width, 4 lowers the peak RSS of a fresh `solve --policy hn` from 158 MB
# to 132 MB at T=14 (seed 5, x86-64 Linux) at the same wall time
HN_PANEL_SIZE = 4


@dataclass(frozen=True)
class ClosedLoopTrace:
    """Committed state-control pairs of one receding-horizon run, as
    read-only ``(N, nx)`` and ``(N, nu)`` arrays whose row is the node."""

    tree: object
    W: int
    x: np.ndarray
    u: np.ndarray
    J_W: float
    w_prev_init: tuple

    def w(self, node):
        return np.concatenate([self.x[node], self.u[node]])


class SpcStep(NamedTuple):
    x: np.ndarray
    u: np.ndarray
    plan: PolicySolution


@dataclass(frozen=True)
class HereAndNowSolution:
    """Stagewise-control baseline: one control per stage, states per node,
    as read-only ``(N, nx)`` states whose row is the node and ``(T+1, nu)``
    shared controls whose row is the stage."""

    tree: object
    x: np.ndarray
    v: np.ndarray
    objective: float


@dataclass(frozen=True)
class AnticipativeSolution:
    """Clairvoyant baseline: optimal value of each scenario, averaged.
    ``path_values`` is read-only; entry i is the optimal value along the
    scenario that ends at ``tree.leaves()[i]``, in ascending leaf order."""

    tree: object
    objective: float
    path_values: np.ndarray


def solve_optimal(tree, w_prev):
    """Full-horizon optimal decision tree from the root."""
    return solve_extensive(tree, 0, tree.horizon, w_prev)


def spc_step(tree, k, w_prev_committed, W):
    """One receding-horizon step: solve depth-W subproblem at k, commit k.

    Returns the committed pair and the whole subtree plan; the committed
    state is the dynamics-forced value, the control is the plan's first
    decision.
    """
    plan = solve_extensive(tree, k, W, w_prev_committed)
    return SpcStep(plan.x[0], plan.u[0], plan)


def run_spc(tree, w_prev_init, W):
    """Run the policy with window W over the whole tree: the one-window case
    of :func:`run_spc_windows`."""
    return run_spc_windows(tree, w_prev_init, [W])[0]


def run_spc_windows(tree, w_prev_init, windows):
    """Run the policy over the whole tree in breadth-first order, once per
    window of ``windows``; returns one :class:`ClosedLoopTrace` per window.

    Every node's commitment is computed from its parent's committed pair;
    the reported performance is the exact probability-weighted cost of
    the committed pairs.  With window W, node j's own window has depth
    ``min(W, T - stage(j))``, and its ancestors' windows reach it with
    every depth down to ``min(max(W - stage(j), 0), T - stage(j))``.  A
    (node, depth) subproblem is the same whichever window reaches it, so
    one Riccati pass over the (node, depth) pairs that any of the windows
    uses gives every window's first feedbacks, and one forward pass over
    the stacked (window, node) items commits them.  Solver failures name
    the failing node and window.
    """
    if any(W < 0 for W in windows):
        raise TreeError("window W must be >= 0")
    if not len(windows):
        return []
    x_init, u_init = committed_pair(w_prev_init, tree)
    N, T, stage = tree.node_count, tree.horizon, tree.stage
    Ws = np.asarray(windows)[:, None]
    own = np.minimum(Ws, T - stage)
    low = np.minimum(np.maximum(Ws - stage, 0), T - stage)
    depths = np.arange(int(own.max()) + 1)[:, None]
    used = np.zeros((len(depths), N), dtype=bool)
    for lo, hi in zip(low, own):
        used |= (lo <= depths) & (depths <= hi)
    depth, node = np.nonzero(used)
    pos = np.full((len(depths) + 1, N), -1)
    pos[depth, node] = np.arange(len(node))
    # (j, h) is a child of (parent(j), h + 1) when that pair is used
    par = tree.parent[node]
    parent = np.where(par >= 0, pos[depth + 1, par], -1)
    weight = tree.pi[node] / tree.pi[np.maximum(par, 0)]
    p = tree.arrays.p[node][:, :, None]
    factor = RiccatiFactor(tree, node, parent, weight, depth_layers(depth))
    # item w * N + j is node j under windows[w]
    n_w, every = len(Ws), np.arange(N)
    g = pos[own, every].ravel()
    K, k = factor.K[g], factor.sweep(p)[0][g]
    del factor  # before the stacked rollout, which sets the peak memory
    shift = N * np.arange(n_w)[:, None]
    pred = np.where(tree.parent >= 0, tree.parent + shift, -1).ravel()
    levels = [(tree.stage_nodes(t) + shift).ravel() for t in range(T + 1)]
    d = forest_rhs(tree, every, tree.parent, (x_init, u_init))[:, tree.nx + tree.nu :]
    x, u = rollout(tree, np.tile(every, n_w), pred, K, k, np.tile(d, (n_w, 1, 1)), levels)
    x, u = _frozen((x.reshape(n_w, N, -1), u.reshape(n_w, N, -1)))
    return [
        ClosedLoopTrace(
            tree, int(W), x[i], u[i],
            math.fsum(tree.pi * stage_costs(tree, every, x[i], u[i])), (x_init, u_init),
        )
        for i, W in enumerate(windows)
    ]


def checked_regret(J_W, J_star):
    """Policy cost minus optimal cost.

    The difference must be nonnegative up to solver accuracy; a value
    below -1e-8 means the optimum is not one (a broken solve, or a
    nonconvex problem whose stationary point is a saddle) and raises.
    """
    regret = J_W - J_star
    if regret < -1e-8:
        raise SolverError(
            f"policy cost undercuts the optimum: regret = {regret:.3e}"
        )
    return regret


def dynamic_regret(tree, w_prev, W):
    """Policy cost, optimal cost, and their :func:`checked_regret`."""
    J_W = run_spc(tree, w_prev, W).J_W
    J_star = solve_optimal(tree, w_prev).objective
    return J_W, J_star, checked_regret(J_W, J_star)


# ---------------------------------------------------------------------------
# baselines


def here_and_now_system(tree, w_prev):
    """The here-and-now KKT system ``(H, rhs)`` in leaves-first order.

    Node i's variables are scaled by ``s_i = sqrt(pi_i / pi_0)`` into one
    block ``(x~_i, y~_i)`` of 2nx columns; the block of node i sits at
    position ``N - 1 - i``, so every block comes after its children's,
    deepest stage first, and the T + 1 unscaled shared controls ``v_t``
    close the system, nu columns each.  Node i's block holds ``Q_i`` and
    the two identities; stage t's control holds ``sum_{i in t} s_i^2 R_i``;
    child c of p, with ``r_c = sqrt(pi_c / pi_p)``, couples ``y~_c`` to
    ``x~_p`` by ``-r_c A_c`` and to ``v_{t(p)}`` by ``-r_c s_p B_c``, each
    with its exact transpose.  The right-hand side is ``s_i q_i``,
    ``s_i d_i`` (the root's d carries the committed pair) and
    ``sum_{i in t} s_i^2 r_i``.  Every column's row indices ascend, and
    ``H`` is written straight into CSC arrays, with no sort.
    """
    arr, nx, nu, N, T = tree.arrays, tree.nx, tree.nu, tree.node_count, tree.horizon
    stage, parent, zd, V = tree.stage, tree.parent, 2 * tree.nx, 2 * tree.nx * N
    s = np.sqrt(tree.pi / tree.pi[0])
    starts, size = np.searchsorted(stage, np.arange(T + 2)), np.bincount(stage, minlength=T + 2)
    n_kids = np.bincount(parent[1:], minlength=N)
    blk = zd * (N - 1 - np.arange(N))  # node i's first column
    # entries per column: x~ takes its children's y~ rows, its Q and one
    # identity row; y~ one identity row and, except at the root, its
    # parent's x~ rows and control rows; v_t the y~ rows of stage t + 1
    # and its own block
    count = np.concatenate([
        np.repeat(np.stack([nx * n_kids + nx + 1, 1 + (nx + nu) * (parent >= 0)], 1)[::-1],
                  nx, axis=1).ravel(),
        np.repeat(nx * size[1:] + nu, nu),
    ])
    ptr = np.zeros(count.size + 1, dtype=np.int32)
    np.cumsum(count, out=ptr[1:])
    rows, vals = np.empty(ptr[-1], dtype=np.int32), np.empty(ptr[-1])

    def put(col, offset, row, val):  # entry at `offset` into column `col`
        at = ptr[col] + offset
        rows[at], vals[at] = row, val

    kid = np.arange(N - 1, 0, -1)  # non-root nodes, leaves first
    par, r = parent[kid], np.sqrt(tree.pi[kid] / tree.pi[parent[kid]])
    by_par = np.argsort(par, kind="stable")
    rank = np.empty_like(kid)  # among its siblings, leaves first
    rank[by_par] = np.arange(kid.size) - np.searchsorted(par[by_par], par[by_par])
    cA = -(r[:, None, None] * arr.A[kid])
    cB = -(r[:, None, None] * arr.B[kid]) * s[par, None, None]
    # blocks are indexed [node, row, column]: ex, eu count columns within
    # a block, rx, ru rows
    ex, eu = np.arange(nx), np.arange(nu)
    rx, ru = ex[:, None], eu[:, None]
    i, c, p = np.arange(N)[:, None, None], kid[:, None, None], par[:, None, None]
    v_p = V + nu * stage[p]
    put(blk[p] + ex, nx * rank[:, None, None] + rx, blk[c] + nx + rx, cA)
    put(blk[i] + ex, nx * n_kids[i] + rx, blk[i] + rx, arr.Q)
    put(blk[i] + ex, nx * n_kids[i] + nx, blk[i] + nx + ex, 1.0)
    put(blk[i] + nx + ex, 0, blk[i] + ex, 1.0)
    put(blk[c] + nx + ex, 1 + rx, blk[p] + rx, cA.transpose(0, 2, 1))
    put(blk[c] + nx + ex, 1 + nx + ru, v_p + ru, cB.transpose(0, 2, 1))
    put(v_p + eu, nx * (starts[stage[c] + 1] - 1 - c) + rx, blk[c] + nx + rx, cB)
    S = np.add.reduceat((s * s)[:, None, None] * arr.R, starts[:-1])
    t = np.arange(T + 1)[:, None, None]
    put(V + nu * t + eu, nx * size[t + 1] + ru, V + nu * t + ru, S)
    H = sp.csc_matrix((vals, rows, ptr), shape=(ptr.size - 1,) * 2)
    H.eliminate_zeros()
    scaled = s[:, None] * forest_rhs(tree, np.arange(N), parent, w_prev)[..., 0]
    rhs = np.concatenate([
        scaled[::-1, np.r_[:nx, nx + nu : zd + nu]].ravel(),
        np.add.reduceat(s[:, None] * scaled[:, nx : nx + nu], starts[:-1]).ravel(),
    ])
    return H, rhs


def solve_here_and_now(tree, w_prev):
    """Optimal cost with one shared control per stage (no recourse in u).

    States stay per-node; the stage control is shared by every node of
    that stage.  The KKT system (:func:`here_and_now_system`) keeps every
    state and multiplier row of the scaled full-tree system and sums the
    control rows per stage, so the residual contract of the solve holds
    the blockwise KKT residual of the here-and-now problem.  It is a tree
    plus T + 1 shared controls, ordered leaves first with the controls
    last: eliminated in that order it fills in little (Liu, SIMAX 11(1),
    1990), so it is factored in its own column order, with no fill-reducing
    search.  Eliminating the states instead (condensing onto ``v``) is not
    used: its Hessian is as ill conditioned as the open-loop dynamics over
    the horizon, and on a scalar chain with A = 2 its pivot ratio falls
    below ``PIVOT_TOL`` from T = 22.  A row-pivoted LU reveals no inertia,
    so it cannot tell a nonconvex problem from a convex one; the feasible
    set is a subspace of the full problem's, so one full-horizon
    :class:`RiccatiFactor` is what refuses a nonconvex problem.
    """
    RiccatiFactor(tree, *_window(tree, 0, tree.horizon))
    nx, nu, N, T = tree.nx, tree.nu, tree.node_count, tree.horizon
    H, rhs = here_and_now_system(tree, w_prev)
    lu = factor_kkt(H, permc_spec="NATURAL", panel_size=HN_PANEL_SIZE)
    z = solve_kkt(H, lu, rhs)
    V, s = 2 * nx * N, np.sqrt(tree.pi / tree.pi[0])
    x, v = _frozen((z[:V].reshape(N, 2 * nx)[::-1, :nx] / s[:, None], z[V:].reshape(T + 1, nu)))
    node = np.arange(N)
    objective = math.fsum(tree.pi * stage_costs(tree, node, x, v[tree.stage]))
    return HereAndNowSolution(tree, x, v, objective)


def solve_anticipative(tree, w_prev):
    """Clairvoyant baseline: per-scenario optimal values, probability mix.

    Each root-to-leaf path is a deterministic problem; one Riccati pass
    solves the forest of all paths (branch weights 1).  The objective is
    the probability-weighted sum of path optima.
    """
    leaves = tree.leaves()
    L, T = len(leaves), tree.horizon
    # position t * L + l holds stage t of the path to leaves[l]
    paths = tree.ancestors[leaves].T
    node = paths.ravel()
    parent = np.arange(node.size) - L
    parent[:L] = -1
    layers = depth_layers(np.repeat(np.arange(T, -1, -1), L))
    p = forest_rhs(tree, node, parent, w_prev)
    x, u, _ = solve_forest(tree, node, parent, np.ones(node.size), layers, p)
    cost = stage_costs(tree, node, x[..., 0], u[..., 0]).reshape(T + 1, L)
    values = np.array([math.fsum(c) for c in cost.T])
    objective = math.fsum(tree.pi[leaves] * values)
    return AnticipativeSolution(tree, objective, *_frozen((values,)))


# ---------------------------------------------------------------------------
# closed-loop recursion machinery


def recursion_matrices(tree, W, t):
    """Stage t's row blocks of the closed-loop recursion for window W.

    The windows of stage t's nodes are one forest (:func:`_window`).  One
    solve with unit (q, r) perturbations at every root gives the responses
    ``Z_j(k)``; the map is self-adjoint in the probability weights, so root
    k's row block over ``p_j`` is ``Psi[j] = (pi_j / pi_k) Z_j(k)'``, where
    k is j's stage-t ancestor.  Returns the read-only ``Psi`` of shape
    ``(M, nx + nu, 2nx + nu)`` whose row is node ``j - first``, for the
    forest's M ascending nodes from stage t's first node.  Its first rows
    are the roots' own blocks: times the injection ``[0; A_k B_k]`` of the
    parent's committed pair, they give the one-step transfer ``S_k``.
    """
    roots = tree.stage_nodes(t)
    forest = _window(tree, roots, W)
    node, nw = forest[0], tree.nx + tree.nu
    p = np.zeros((len(node), nw + tree.nx, nw))
    p[np.arange(len(roots))[:, None], np.arange(nw), np.arange(nw)] = 1.0
    Psi = np.concatenate(solve_forest(tree, *forest, p), axis=1).transpose(0, 2, 1).copy()
    Psi *= (tree.pi[node] / tree.pi[tree.ancestors[node, t]])[:, None, None]
    return _frozen((Psi,))[0]


def hypothetical_state(tree, trace):
    """Full-horizon re-solve of every node from its parent's commitment.

    Returns per-node stacked pairs ``(N, nx + nu)``: node k's value of the
    optimal plan for the remaining horizon, started from the policy's
    committed pair at k's parent (the run's initial pair for the root).
    That value is the first decision of k's full-horizon subproblem, so
    one Riccati pass over the whole tree gives every node's feedback, and
    one step from the parent's pair applies it.
    """
    arr = tree.arrays
    factor = RiccatiFactor(tree, *_window(tree, 0, tree.horizon))
    xp, up = predecessor_pairs(tree, trace.x, trace.u, trace.w_prev_init)
    x = _mv(arr.A, xp) + _mv(arr.B, up) + arr.d
    u = _mv(factor.K, x) + factor.sweep(arr.p[:, :, None])[0][..., 0]
    return np.concatenate([x, u], axis=1)
