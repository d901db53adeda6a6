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
    ScaledKKT,
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


def solve_here_and_now(tree, w_prev):
    """Optimal cost with one shared control per stage (no recourse in u).

    States stay per-node; the stage control is shared by every node of
    that stage.  The system is the full-tree scaled KKT system restricted
    by ``z = E zeta``: ``E`` keeps every scaled state and multiplier and
    maps node i's scaled control ``sqrt(pi_i) u_i`` to ``sqrt(pi_i) v_t``,
    with the unscaled shared controls ``v_t`` trailing in ``zeta``.  Every
    state and multiplier row of the tree system is kept and the control
    rows are summed per stage, so the residual contract of the solve holds
    the blockwise KKT residual of the here-and-now problem.  Eliminating
    the states instead (condensing onto ``v``) is not used: its Hessian is
    as ill conditioned as the open-loop dynamics over the horizon, and on
    a scalar chain with A = 2 its pivot ratio falls below ``PIVOT_TOL``
    from T = 22.  The feasible set is a subspace of the full problem's, so
    one full-horizon :class:`RiccatiFactor` refuses a nonconvex problem.
    """
    system = ScaledKKT(tree, 0, tree.horizon)
    RiccatiFactor(tree, *system.window)
    nx, nu, zd, T = tree.nx, tree.nu, system.zdim, tree.horizon
    # states and multipliers keep their column; node controls move to
    # their stage's shared control, and the emptied columns are dropped
    col = np.arange(system.dim).reshape(-1, zd)
    col[:, nx : nx + nu] = system.dim + nu * tree.stage[:, None] + np.arange(nu)
    val = np.ones(col.shape)
    val[:, nx : nx + nu] = system.scales[:, None]
    E = sp.csc_matrix(
        (val.ravel(), (np.arange(system.dim), col.ravel())),
        shape=(system.dim, system.dim + nu * (T + 1)),
    )[:, np.unique(col)]
    H = (E.T @ system.H @ E).tocsc()
    z = solve_kkt(H, factor_kkt(H), E.T @ system.scaled_rhs(w_prev))
    x = system.unscale(E @ z)[0]
    (v,) = _frozen((z[-nu * (T + 1) :].reshape(T + 1, nu),))
    node = np.arange(tree.node_count)
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
