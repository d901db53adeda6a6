"""Subtree QP solves: a tree Riccati engine, and the assembled KKT system.

The subproblem over the depth-W subtree rooted at k minimizes the
conditional expected quadratic cost subject to the linear dynamics along
tree edges.  Plans, policies and solution maps are solved on forests of
(node, remaining depth) subproblems: a :class:`RiccatiFactor` runs the
right-hand-side-free backward pass once per forest, refusing singular
and nonconvex steps, and each :meth:`~RiccatiFactor.solve` sweeps any
number of right-hand sides through it, rolls the gains forward, and holds
every solution to the residual of the KKT system below in one pass.  A
subtree's nodes ascend (:func:`~spc_lab.tree.subtree_nodes`), and every
result is an array whose row follows that order: over the whole tree,
row = node.

The maps' stage-decay rows (:func:`measure_decay`) form no map: small
stage pairs come from unit-perturbation solves one stage at a time, large
ones from the Lanczos kernel of :mod:`spc_lab.norms` on their Gram
operators, every pair in lockstep.  In a window's last stage a control
enters only its own stage cost, so its unit response is the inverse of
its step matrix and nothing else: those coordinates are neither solved
nor reduced.  Only the last stage's own row, (T, T) over the full
horizon, depends on them, so only that row can differ, by rounding, from
the norm of its full block: it folds them in from the eigenvalues the
factor already holds.

Where the assembled matrix itself is needed (uniform regularity, and
the here-and-now baseline, whose shared stage controls couple every node
of a stage), :class:`ScaledKKT` builds the probability-scaled system,
whose variables are ``z_i`` premultiplied by ``sqrt(pi_{i|k})``: the
scaled KKT matrix is uniformly well conditioned, while the raw weighted
system is not.  The per-node variable layout is ``(x, u, y)``, one block
per node of the window in ascending order; the scaled KKT matrix couples
a node to itself and to its parent only, and is exactly symmetric by
construction.
Uniform regularity (:func:`check_uniform_regularity`) reads three extreme
eigenvalues off that matrix H, its constraint rows F and its cost block
G, by ARPACK (:func:`_lanczos`, the library's one ARPACK caller) with one
sparse LU, of F F': the cost on the null space of F is a standard
eigenproblem under the explicit projector ``v - F'(F F')^{-1} F v`` onto
that space, with no null-space basis and no KKT solve.  ARPACK stops at
the relative Ritz residual :data:`~spc_lab.norms.KRYLOV_TOL`, where every
Krylov estimate of the library stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .norms import KRYLOV_TOL, _block_norm, _lanczos_lockstep
from .tree import TreeError, _frozen, committed_pair, subtree_nodes

RESIDUAL_TOL = 1e-8
PIVOT_TOL = 1e-12
DENSE_PAIR_CUT, UNIT_CHUNK = 768, 96  # see measure_decay


class SolverError(RuntimeError):
    """Solve failed to meet its accuracy contract."""


class SingularKKTError(SolverError):
    """KKT matrix numerically singular; carries the smallest pivot ratio."""

    def __init__(self, message, pivot=0.0):
        super().__init__(message)
        self.pivot = pivot


class NonconvexError(SolverError):
    """A step matrix is not positive definite: the problem is nonconvex."""


@dataclass(frozen=True)
class PolicySolution:
    """Primal-dual solution of one subtree problem, in original variables:
    read-only ``(m, nx)``, ``(m, nu)`` and ``(m, nx)`` arrays whose rows
    follow ``nodes``, the read-only array of ascending subtree nodes."""

    tree: object
    k: int
    nodes: np.ndarray
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    objective: float


@dataclass(frozen=True)
class SolutionMap:
    """Linear maps from stacked perturbations p = (q, r, d) to solutions.

    ``Omega[a, :, b, :]`` takes the perturbation of node ``nodes[b]`` to
    the full primal-dual triple z = (x, u, y) of node ``nodes[a]``;
    ``Psi`` keeps its first ``nw`` rows, the state-control pair
    w = (x, u).  Both act on the original (unscaled) perturbations and
    return original variables, for the subtree problem with zero
    committed state-control pair.  ``nodes`` is the read-only array of
    ascending subtree nodes, which is breadth-first, so each stage is a
    contiguous range of block positions.
    """

    tree: object
    k: int
    nodes: np.ndarray
    Omega: np.ndarray
    nw: int

    @property
    def Psi(self):
        return self.Omega[:, : self.nw]


@dataclass(frozen=True)
class DecayRow:
    t: int
    tprime: int
    psi_norm: float
    omega_norm: float


@dataclass(frozen=True)
class RegularityReport:
    """Measured uniform-regularity quantities against their claimed bounds."""

    H_norm: float
    FFt_min_eig: float
    ReH_min_eig: float
    L_H: float
    gamma_F: float
    gamma_G: float
    rank_deficient: bool

    @property
    def H_pass(self):
        return self.H_norm <= self.L_H + 1e-9

    @property
    def FFt_pass(self):
        return self.FFt_min_eig >= self.gamma_F - 1e-9

    @property
    def ReH_pass(self):
        return self.ReH_min_eig >= self.gamma_G - 1e-9

    @property
    def all_pass(self):
        return self.H_pass and self.FFt_pass and self.ReH_pass


def factor_kkt(H):
    """Sparse LU of a KKT matrix, refused when numerically singular.

    Raises :class:`SingularKKTError` carrying the smallest relative pivot
    when it falls below ``PIVOT_TOL``.
    """
    try:
        lu = spla.splu(H.tocsc())
    except RuntimeError as exc:
        raise SingularKKTError(
            f"KKT factorization failed: {exc}", pivot=0.0
        ) from exc
    diag = np.abs(lu.U.diagonal())
    worst = float(diag.min() / diag.max()) if diag.max() > 0 else 0.0
    if worst < PIVOT_TOL:
        raise SingularKKTError(
            f"KKT matrix numerically singular: relative pivot "
            f"{worst:.3e} below {PIVOT_TOL:g}",
            pivot=worst,
        )
    return lu


def solve_kkt(H, lu, rhs):
    """Solve ``H z = rhs`` for one or many right-hand sides with the LU of
    ``H``: one refinement step and a hard residual contract per column."""
    rhs = np.asarray(rhs, dtype=float)
    z = lu.solve(rhs)
    z = z + lu.solve(rhs - H @ z)
    resid = np.linalg.norm(H @ z - rhs, axis=0)
    scale = 1.0 + np.linalg.norm(rhs, axis=0)
    worst = float(np.max(resid / scale))
    if worst > RESIDUAL_TOL:
        raise SolverError(f"KKT residual {worst:.3e} exceeds contract {RESIDUAL_TOL:g}")
    return z


class ScaledKKT:
    """Assembled scaled KKT system of the depth-W subtree problem at k.

    Holds the sparse symmetric matrix ``H``, the per-node scale factors
    ``sqrt(pi_{i|k})`` (array ``scales``, in node order), and a cached
    sparse LU factorization with the library's deterministic default
    column permutation.  Node blocks follow ``nodes``, the window's
    read-only array of ascending nodes; ``window`` keeps the whole
    :func:`_window` forest it was assembled from.
    """

    def __init__(self, tree, k, W):
        self.tree = tree
        self.k = int(k)
        self.window = _window(tree, k, W)
        self.nodes, parent, weight, _ = self.window
        nx, nu = tree.nx, tree.nu
        self.nx, self.nu = nx, nu
        self.zdim = 2 * nx + nu
        self.scales = np.sqrt(tree.pi[self.nodes] / tree.pi[k])
        self.dim = self.zdim * len(self.nodes)
        self._lu = None
        self.H = self._assemble(parent[1:], np.sqrt(weight[1:]))

    def _assemble(self, pos, ratio):
        """One diagonal block per node and one parent coupling block per
        child (plus its transpose), emitted in a single sparse build: child
        position i + 1 couples to parent position ``pos[i]``, weighted by
        the branch probability ``ratio[i] = sqrt(pi_i / pi_parent)``."""
        tree, nx, nu, zd = self.tree, self.nx, self.nu, self.zdim
        nodes, arr = self.nodes, tree.arrays
        m = len(nodes)
        # node blocks first, then each child's coupling to its parent and
        # the transpose of that coupling
        blocks = np.zeros((3 * m - 2, zd, zd))
        diag, couple = blocks[:m], blocks[m : 2 * m - 1]
        diag[:, :nx, :nx] = arr.Q[nodes]
        diag[:, nx : nx + nu, nx : nx + nu] = arr.R[nodes]
        diag[:, :nx, nx + nu :] = np.eye(nx)
        diag[:, nx + nu :, :nx] = np.eye(nx)
        # node i's dynamics row couples to its parent's (x, u)
        AB = np.concatenate([arr.A[nodes[1:]], arr.B[nodes[1:]]], axis=2)
        couple[:, nx + nu :, : nx + nu] = -(ratio[:, None, None] * AB)
        blocks[2 * m - 1 :] = couple.transpose(0, 2, 1)
        child = np.arange(1, m)
        brow = np.concatenate([np.arange(m), child, pos])
        bcol = np.concatenate([np.arange(m), pos, child])
        b, r, c = np.nonzero(blocks)
        return sp.csc_matrix(
            (blocks[b, r, c], (brow[b] * zd + r, bcol[b] * zd + c)),
            shape=(self.dim, self.dim),
        )

    def factor(self):
        if self._lu is None:
            self._lu = factor_kkt(self.H)
        return self._lu

    def solve(self, rhs):
        """Solve against one or many right-hand sides; see :func:`solve_kkt`."""
        return solve_kkt(self.H, self.factor(), rhs)

    def scaled_rhs(self, w_prev):
        """Stacked scaled perturbation with the committed pair folded into
        the root constraint."""
        x_prev, u_prev = committed_pair(w_prev, self.tree)
        p = self.tree.arrays.p[self.nodes]
        raw, k = self.tree.raw_arrays, self.k
        p[0, self.nx + self.nu :] = raw.d[k] + raw.A[k] @ x_prev + raw.B[k] @ u_prev
        return (self.scales[:, None] * p).ravel()

    def unscale(self, ztilde):
        """Original variables (x, u, y) from a scaled stack, as read-only
        ``(m, nx)``, ``(m, nu)`` and ``(m, nx)`` views whose rows follow
        ``nodes``."""
        nx, nw = self.nx, self.nx + self.nu
        z = np.reshape(ztilde, (len(self.nodes), self.zdim)) / self.scales[:, None]
        z.flags.writeable = False
        return z[:, :nx], z[:, nx:nw], z[:, nw:]


def stage_costs(tree, node, x, u):
    """Stage costs ``1/2 x'Qx + 1/2 u'Ru - q'x - r'u`` of positions over
    tree nodes ``node``, for the states ``x`` (M, nx) and controls ``u``
    (M, nu) stacked along the same positions."""
    arr, quad = tree.arrays, "mi,mij,mj->m"
    return (
        0.5 * (np.einsum(quad, x, arr.Q[node], x) + np.einsum(quad, u, arr.R[node], u))
        - np.einsum("mi,mi->m", arr.q[node], x) - np.einsum("mi,mi->m", arr.r[node], u)
    )


def _mv(M, v):
    """Batched matrix-vector products ``M[i] @ v[i]``."""
    return np.einsum("nij,nj->ni", M, v)


def _sq(a):
    """Squared norms ``sum_i a[m, i, r]**2``."""
    return np.einsum("mir,mir->mr", a, a)


def depth_layers(depth):
    """Positions grouped by depth: ``layers[h]`` holds, in position
    order, every position of depth h."""
    order = np.argsort(depth, kind="stable")
    cuts = np.searchsorted(depth[order], np.arange(int(depth.max()) + 2))
    return [order[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _hold(ratio, node, window, what):
    """Hold ``ratio`` (rows, R) to ``RESIDUAL_TOL``; the first row above it (or
    NaN) raises :class:`SolverError` naming root ``node[i]`` and its window."""
    if ratio.max(initial=0.0) <= RESIDUAL_TOL:
        return
    i = np.flatnonzero(~(ratio.max(axis=1) <= RESIDUAL_TOL))[0]
    raise SolverError(
        f"node {node[i]}, window {np.broadcast_to(window, len(node))[i]}: {what} "
        f"{ratio[i].max():.3e} exceeds contract {RESIDUAL_TOL:g}"
    )


def _step_solve(step, rhs, node, h):
    """Solve ``G[i] X[i] = rhs[i]`` by G's eigenpairs, ``step = (G, lam, U, ...)``,
    each column held to ``RESIDUAL_TOL`` relative to ``1 + ||rhs||``."""
    G, lam, U = step[:3]
    X = U @ ((U.transpose(0, 2, 1) @ rhs) / lam[:, :, None])
    _hold(np.sqrt(_sq(G @ X - rhs)) / (1.0 + np.sqrt(_sq(rhs))), node, h, "step residual")
    return X


class RiccatiFactor:
    """One backward Riccati pass over a forest of subproblems, free of the
    right-hand side and kept for any number of them.

    Position i is the depth-h subproblem rooted at tree node ``node[i]``,
    for the h with i in ``layers[h]``; its children are the positions whose
    ``parent`` is i, with ``weight`` their probability conditional on i.  A
    child's x is ``F z + d`` in its parent's ``z = [u; x]``, ``F = [B, A]``.
    Each step sums the stage cost and the weighted child values ``F'PF``
    into a Hessian H in z and eliminates u through the step matrix
    ``G = H_uu`` and its eigenpairs (lam, U): ``K = -G^-1 H_ux``,
    ``P = H_xx + H_xu K``.  A step with ``lam_min / max|lam|`` below
    ``PIVOT_TOL`` raises :class:`SingularKKTError` when that ratio is within
    ``PIVOT_TOL`` of zero, else :class:`NonconvexError` (every G is positive
    definite exactly when the reduced Hessian is).  Children are grouped by
    rank among their siblings: no two in a group share a parent, so one
    fancy-index ``+=`` per group adds in exactly the order ``np.add.at`` does.
    The residual layout of :meth:`solve` (:attr:`kids`, :attr:`root_sums`)
    is built on first use, so a factor used for its gains and :meth:`sweep`
    alone never pays for it.
    """

    def __init__(self, tree, node, parent, weight, layers):
        arr, nx, nu, M = tree.arrays, tree.nx, tree.nu, len(node)
        self.tree, self.node, self.parent, self.weight = tree, node, parent, weight
        self.layers, loc = layers, np.empty_like(parent)
        for at in layers:
            loc[at] = np.arange(len(at))
        kids = np.flatnonzero(parent >= 0)
        order = kids[np.argsort(parent[kids], kind="stable")]
        self._rank = rank = np.full(M, -1)
        rank[order] = np.arange(kids.size) - np.searchsorted(parent[order], parent[order])
        self.groups = [self._by_rank(kids[:0], kids[:0])] + [  # into the places in the layer
            self._by_rank(c, loc[parent[c]])
            for c in (at[parent[at] >= 0] for at in layers[:-1])
        ]
        self.F = F = np.concatenate([arr.B[node], arr.A[node]], axis=2)
        self.P, self.K, self.steps = np.empty((M, nx, nx)), np.empty((M, nu, nx)), []
        for h, at in enumerate(layers):
            H = np.zeros((len(at), nu + nx, nu + nx))
            H[:, :nu, :nu], H[:, nu:, nu:] = arr.R[node[at]], arr.Q[node[at]]
            ch, ranks = self.groups[h]
            child = weight[ch, None, None] * (F[ch].transpose(0, 2, 1) @ (self.P[ch] @ F[ch]))
            for sel, up in ranks:
                H[up] += child[sel]
            H = 0.5 * (H + H.transpose(0, 2, 1))
            lam, U = np.linalg.eigh(H[:, :nu, :nu])
            top = np.abs(lam).max(axis=1)
            bad = np.flatnonzero(~(lam[:, 0] > PIVOT_TOL * top))
            if bad.size:
                i = bad[0]
                pivot = lam[i, 0] / top[i] if top[i] > 0 else 0.0
                where = f"node {node[at[i]]}, window {h}: step matrix"
                if not pivot <= -PIVOT_TOL:
                    raise SingularKKTError(
                        f"{where} numerically singular: relative pivot {abs(pivot):.3e} "
                        f"below {PIVOT_TOL:g}", pivot=abs(float(pivot)),
                    )
                raise NonconvexError(
                    f"{where} not positive definite: smallest eigenvalue "
                    f"{lam[i, 0]:.3e}; the problem is nonconvex"
                )
            self.steps.append((H[:, :nu, :nu], lam, U, H[:, nu:, :nu]))
            self.K[at] = K = -_step_solve(self.steps[h], H[:, :nu, nu:], node[at], h)
            P = H[:, nu:, nu:] + H[:, nu:, :nu] @ K
            self.P[at] = 0.5 * (P + P.transpose(0, 2, 1))

    def _by_rank(self, ch, up):
        """Children ``ch``, and per sibling rank (sel, where ch[sel] adds)."""
        rank = self._rank
        sel = (np.flatnonzero(rank[ch] == r) for r in range(rank.max() + 1))
        return ch, [(s, up[s]) for s in sel]

    @cached_property
    def kids(self):
        """Every child position, grouped by sibling rank into its parent's."""
        kids = np.flatnonzero(self.parent >= 0)
        return self._by_rank(kids, self.parent[kids])

    @cached_property
    def root_sums(self):
        """``(by_root, root_cut, cond, roots, root_window)``: positions sorted
        by root, the start of each root's run, their probabilities conditional
        on the root, and each root's position and window."""
        parent, weight, M = self.parent, self.weight, len(self.node)
        root, cond = np.arange(M), np.ones(M)
        for at in self.layers[::-1]:
            below = at[parent[at] >= 0]
            root[below], cond[below] = root[parent[below]], cond[parent[below]] * weight[below]
        by_root = np.argsort(root, kind="stable")
        root_cut = np.flatnonzero(np.diff(root[by_root], prepend=-1))
        roots, window = by_root[root_cut], np.empty(M, dtype=int)
        for h, at in enumerate(self.layers):
            window[at] = h
        return by_root, root_cut, cond[by_root], roots, window[roots]

    def sweep(self, p):
        """Feedforward ``k`` (M, nu, R) of ``u = K x + k`` and gradients ``v``
        (M, nx, R) of the values ``1/2 x'Px + v'x + c`` for perturbations
        ``p`` (M, 2nx + nu, R) = (q, r, d), each column held to the step contract."""
        nx, nu, F, w = self.tree.nx, self.tree.nu, self.F, self.weight
        k, v = np.empty((len(p), nu, p.shape[2])), np.empty((len(p), nx, p.shape[2]))
        for h, at in enumerate(self.layers):
            g = -np.concatenate([p[at, nx : nx + nu], p[at, :nx]], axis=1)
            ch, ranks = self.groups[h]
            t = self.P[ch] @ p[ch, nx + nu :] + v[ch]
            child = w[ch, None, None] * (F[ch].transpose(0, 2, 1) @ t)
            for sel, up in ranks:
                g[up] += child[sel]
            k[at] = ka = -_step_solve(self.steps[h], g[:, :nu], self.node[at], h)
            v[at] = g[:, nu:] + self.steps[h][3] @ ka
        return k, v

    def solve(self, p):
        """x, u and y of every tree for perturbations ``p`` (see :meth:`sweep`):
        a rollout of the gains, and ``y = -(P x + v)`` (an adjoint recursion
        would amplify rounding by the open-loop dynamics).  Each tree and
        column is held to its scaled KKT residual (the system :class:`ScaledKKT`
        assembles) in one pass, rows weighted by probability conditional on the
        root and summed per root, against ``RESIDUAL_TOL`` relative to ``1 + ||rhs||``."""
        arr, node, parent, F = self.tree.arrays, self.node, self.parent, self.F
        nx, nz = self.tree.nx, self.tree.nx + self.tree.nu
        k, v = self.sweep(p)
        x, u = rollout(self.tree, node, parent, self.K, k, p[:, nz:], self.layers[::-1])
        y = -(self.P @ x + v)
        del k, v
        # child sums of the weighted multipliers through F' = [B'; A']
        (kids, ranks), Fy = self.kids, np.zeros((len(p), nz, p.shape[2]))
        child = F[kids].transpose(0, 2, 1) @ (self.weight[kids, None, None] * y[kids])
        for sel, up in ranks:
            Fy[up] += child[sel]
        res2 = _sq(arr.Q[node] @ x + y - Fy[:, nz - nx :] - p[:, :nx])
        res2 += _sq(arr.R[node] @ u - Fy[:, : nz - nx] - p[:, nx:nz])
        del Fy, child
        dyn = x - p[:, nz:]
        dyn[kids] -= F[kids] @ np.concatenate([u[parent[kids]], x[parent[kids]]], axis=1)
        res2 += _sq(dyn)
        by_root, root_cut, cond, roots, root_window = self.root_sums
        res2, rhs2 = (
            np.add.reduceat(cond[:, None] * a[by_root], root_cut) for a in (res2, _sq(p))
        )
        ratio = np.sqrt(res2) / (1.0 + np.sqrt(rhs2))
        _hold(ratio, node[roots], root_window, "KKT residual")
        return x, u, y


def rollout(tree, node, pred, K, k, d, levels):
    """States and controls driven forward by feedback gains: item i follows
    tree node ``node[i]``'s dynamics with offset ``d[i]`` from the pair of
    item ``pred[i]`` (a zero pair where ``pred`` is -1) and applies
    ``u = K[i] x + k[i]``, for every right-hand side.  ``levels`` lists
    each item after its predecessor.
    """
    A, B = tree.arrays.A, tree.arrays.B
    x, u = np.zeros(d.shape), np.zeros(k.shape)
    for at in levels:
        n, prev, live = node[at], np.maximum(pred[at], 0), pred[at, None, None] >= 0
        x[at] = live * (A[n] @ x[prev] + B[n] @ u[prev]) + d[at]
        u[at] = K[at] @ x[at] + k[at]
    return x, u


def forest_rhs(tree, node, parent, w_prev):
    """Node data (q, r, d) of a forest's positions as one right-hand side,
    (M, 2nx + nu, 1), with the committed pair ``w_prev`` folded into the
    dynamics offset of every root."""
    x_prev, u_prev = committed_pair(w_prev, tree)
    p, roots = tree.arrays.p[node], node[parent < 0]
    drive = tree.arrays.A[roots] @ x_prev + tree.arrays.B[roots] @ u_prev
    p[parent < 0, tree.nx + tree.nu :] += drive
    return p[:, :, None]


def solve_forest(tree, node, parent, weight, layers, p):
    """x, u and y of every tree of a forest for every right-hand side:
    :meth:`RiccatiFactor.solve` on a fresh factor.  A committed pair
    enters through its root's d (:func:`forest_rhs`)."""
    return RiccatiFactor(tree, node, parent, weight, layers).solve(p)


def _window(tree, k, W):
    """The depth-W windows at ``k`` as one forest: ascending nodes, parent
    positions, branch weights and depth layers.  ``k`` is one node, as every
    subproblem solve, map and assembled system takes it, or the ascending
    array of every node of one stage t: node ids are breadth-first, so
    their windows together are the contiguous id range of stages t to
    ``t + min(W, T - t)``, cut from their parents at stage t.  The roots
    lead, with weight 1."""
    if np.ndim(k):
        t = int(tree.stage[k[0]])
        end = np.searchsorted(tree.stage, t + W, side="right")
        (node,) = _frozen((np.arange(k[0], end),))
    else:
        t, node = int(tree.stage[k]), subtree_nodes(tree, k, W)
    rel = tree.stage[node] - t
    parent = np.where(rel > 0, np.searchsorted(node, tree.parent[node]), -1)
    weight = tree.pi[node] / tree.pi[np.where(rel > 0, tree.parent[node], node)]
    return node, parent, weight, depth_layers(rel.max() - rel)


def solve_extensive(tree, k, W, w_prev):
    """Solve the depth-W subtree problem rooted at k.

    ``w_prev`` is the ``(x, u)`` pair committed at the stage before ``k``
    (see :func:`committed_pair`).  Returns
    a :class:`PolicySolution` in original variables whose objective is
    the conditional expected cost over the subtree.
    """
    forest = _window(tree, k, W)
    node = forest[0]
    p = forest_rhs(tree, node, forest[1], w_prev)
    x, u, y = _frozen([v[..., 0] for v in solve_forest(tree, *forest, p)])
    objective = math.fsum(tree.pi[node] / tree.pi[k] * stage_costs(tree, node, x, u))
    return PolicySolution(tree, k, node, x, u, y, objective)


def _unit_response(factor, c, out):
    """Write into ``out`` (r, 2nx + nu, c.size) the responses z = (x, u, y)
    of the last r positions of the forest of ``factor`` to unit
    perturbations of its flat coordinates ``c``; an ``out`` of (r, 2nx,
    c.size) takes (x, y) alone."""
    nx, nz = factor.tree.nx, factor.tree.nx + factor.tree.nu
    zd = nz + nx
    p = np.zeros((len(factor.node), zd, c.size))
    p[c // zd, c % zd, np.arange(c.size)] = 1.0
    first, (x, u, y) = len(p) - len(out), factor.solve(p)
    out[:, :nx], out[:, -nx:] = x[first:], y[first:]
    if out.shape[1] == zd:
        out[:, nx:nz] = u[first:]


def solution_map(tree, k, W):
    """Linear solution maps of the subtree problem at ``k`` with zero
    committed pair: column (b, c) of Omega is the response to a unit
    perturbation of coordinate c of node b.  Columns are solved in eight
    chunks, straight into Omega, so the working arrays stay a fraction of it.
    """
    factor = RiccatiFactor(tree, *_window(tree, k, W))
    m, zd = len(factor.node), 2 * tree.nx + tree.nu
    Omega = np.empty((m, zd, m, zd))
    cols = Omega.reshape(m, zd, m * zd)
    for c in np.array_split(np.arange(m * zd), min(8, m * zd)):
        _unit_response(factor, c, cols[:, :, c[0] : c[-1] + 1])
    Omega.flags.writeable = False
    return SolutionMap(tree, k, factor.node, Omega, tree.nx + tree.nu)


def solution_map_rows(tree, k, W, row_nodes, rows="w"):
    """Row blocks of the solution map without forming the whole map.

    The map is self-adjoint in the probability weights, block (i, j)
    being ``pi_j / pi_i`` times block (j, i) transposed: one forest solve
    with unit perturbations at the row coordinates serves every row.
    ``rows="w"`` restricts to the state-control rows of each requested
    node.  Returns the blocks as one array ``(len(row_nodes), m, nrow,
    2nx+nu)``: block (a, b) has row node ``row_nodes[a]`` and column node
    the subtree's b-th node in ascending order.
    """
    forest = _window(tree, k, W)
    node, m, zd = forest[0], len(forest[0]), 2 * tree.nx + tree.nu
    nrow = tree.nx + tree.nu if rows == "w" else zd
    pos = np.searchsorted(node, row_nodes)
    if not np.array_equal(node[np.minimum(pos, m - 1)], row_nodes):
        raise TreeError(f"row nodes {row_nodes} not all in the window at node {k}")
    at = np.repeat(pos, nrow)
    Z = np.empty((m, zd, at.size))
    _unit_response(RiccatiFactor(tree, *forest), at * zd + np.arange(at.size) % nrow, Z)
    Z = Z.reshape(m, zd, len(pos), nrow).transpose(2, 0, 3, 1)
    weight = tree.pi[node] / tree.pi[node[pos]][:, None]
    return weight[:, :, None, None] * Z


def measure_decay(tree, k, W):
    """One :class:`DecayRow` per ordered stage pair (t, t') of the depth-W
    subtree problem at k, stage-major, with neither solution map formed:
    the norms of the stage blocks of Psi and Omega, block (i, j) scaled by
    ``sqrt(pi_i / pi_j)``.  That weighted Omega is symmetric, so a pair
    t >= t' gives both Omega norms, Psi's (t, t') from its (x, u) rows and
    Psi's (t', t) from its (q, r) columns.  Stage sizes never decrease
    (leaves sit at the last stage), and a pair is small when stage t' has
    at most ``DENSE_PAIR_CUT`` coordinates: the stage's unit columns are
    solved ``UNIT_CHUNK`` per forest solve straight into one block on the
    rows of stages >= t', whose rows of stage t are then weighted in place,
    so every norm of the pair is reduced exactly from views of that one
    weighted block (:func:`~spc_lab.norms._block_norm`), and the block is
    freed.  The weighted diagonal block (t, t) is symmetric, so its Omega
    norm is its largest absolute eigenvalue, with no Gram.  Large pairs
    run :func:`_lanczos_lockstep` on their Gram operators.  Norm
    ``(i, ki, j, kj)`` takes the first ki rows of every block of stage i
    over the first kj columns of every block of stage j.

    In the window's last stage L a control enters only its own stage cost:
    a unit ``r`` of node l there moves only l's u, by ``G_l^-1`` (its step
    matrix, the symmetric part of ``R_l``), and l's u answers nothing else.
    So the weighted (L, L) block is block-diagonal, the (x, y) x (q, d)
    part plus one ``G_l^-1`` per node: stage L's ``r`` is never perturbed
    nor its u read there (its dense block holds (x, y) rows over (q, d)
    columns, its Gram operators perturb (q, d) and read (x, y) for Omega,
    x for Psi), and both (L, L) norms are ``max(norm of that part,
    max_l 1 / lam_min(G_l))``, with lam the eigenvalues the factor holds
    for its last layer.  Pairs (L, t' < L) read stage L's u rows, exact
    zeros, as they stand, so only the (L, L) row can differ, by rounding,
    from the norm of its full block.
    """
    forest = _window(tree, k, W)
    m, zd, nw = len(forest[0]), 2 * tree.nx + tree.nu, tree.nx + tree.nu
    stages, starts = np.unique(tree.stage[forest[0]], return_index=True)
    cut, pi = np.append(starts, m), tree.pi[forest[0]]
    size, span = np.diff(cut), [slice(*c) for c in zip(cut, cut[1:])]
    small, sq = size * zd <= DENSE_PAIR_CUT, np.sqrt(pi)[:, None]
    L, xy = len(stages) - 1, np.r_[: tree.nx, nw:zd]
    keys = [(i, ki, j, kj) for i in range(len(stages)) for j in range(i + 1)
            for ki, kj in [(zd, zd), (nw, zd), (zd, nw)][: 2 + (i > j)]]

    def coords(i, ki, j, kj):  # a key's row and column coordinates per node
        if i == j == L:  # the (x, y) rows, x first, over the (q, d) columns
            return xy[: ki - tree.nu], xy
        return np.arange(ki), np.arange(kj)

    # each small stage's unit columns, UNIT_CHUNK per solve, straight into
    # its block on the rows of stages >= j; each stage's rows weighted in
    # place, then every norm of the pair taken from views of them
    factor, norm = RiccatiFactor(tree, *forest), {}
    for j in np.flatnonzero(small):
        own = xy if j == L else np.arange(zd)  # stage L perturbs (q, d) alone
        c, n = (np.arange(cut[j], cut[j + 1])[:, None] * zd + own).ravel(), own.size
        block = np.empty((m - cut[j], n, c.size))
        for a in range(0, c.size, UNIT_CHUNK):
            _unit_response(factor, c[a : a + UNIT_CHUNK], block[:, :, a : a + UNIT_CHUNK])
        for i in range(j, len(stages)):
            M4 = block[cut[i] - cut[j] : cut[i + 1] - cut[j]].reshape(-1, n, size[j], n)
            M4 *= np.sqrt(pi[span[i], None] / pi[None, span[j]])[:, None, :, None]
            for key in (key for key in keys if key[::2] == (i, j)):
                if i == j and key[1] == key[3]:  # symmetric: no Gram
                    w = np.linalg.eigvalsh(M4.reshape(c.size, c.size))
                    norm[key] = float(max(abs(w[0]), abs(w[-1])))
                else:
                    rows, cols = coords(*key)
                    norm[key] = _block_norm(M4[:, : rows.size, :, : cols.size])
        del block, M4
    large = [key for key in keys if not small[key[2]]]
    ops = [(i, j, *coords(i, ki, j, kj)) for i, ki, j, kj in large]

    def gram(live, vectors):  # perturb stage j, read i, perturb i, read j
        p, now = np.zeros((m, zd, len(live))), [ops[g] for g in live]
        for r, (i, j, rows, cols) in enumerate(now):
            p[span[j], cols, r] = vectors[r].reshape(-1, cols.size) / sq[span[j]]
        Z, p[:] = np.concatenate(factor.solve(p), axis=1), 0.0
        for r, (i, j, rows, cols) in enumerate(now):
            p[span[i], rows, r] = Z[span[i], rows, r]
        Z = np.concatenate(factor.solve(p), axis=1)
        return [(sq[span[j]] * Z[span[j], cols, r]).ravel()
                for r, (i, j, rows, cols) in enumerate(now)]

    lam = _lanczos_lockstep(gram, [size[j] * cols.size for _, j, _, cols in ops])
    norm.update((key, math.sqrt(max(v, 0.0))) for key, v in zip(large, lam))
    # fold in stage L's G^-1 blocks
    inv = float(1.0 / factor.steps[0][1][:, 0].min())
    for ki in (zd, nw):
        norm[L, ki, L, zd] = max(norm[L, ki, L, zd], inv)
    return [
        DecayRow(t, tp, norm[i, nw, j, zd] if i >= j else norm[j, zd, i, nw],
                 norm[max(i, j), zd, min(i, j), zd])
        for i, t in enumerate(stages.tolist()) for j, tp in enumerate(stages.tolist())
    ]


def _lanczos(A, **kw):
    """One extreme eigenvalue ``eigsh(A, k=1, **kw)`` of a symmetric operator,
    stopped at the relative Ritz residual ``KRYLOV_TOL`` like the lockstep
    kernel, from a fixed-seed random start, so reruns are bit-identical;
    0.0 for the zero operator, whose start ARPACK refuses, and the one entry
    at order 1, where ARPACK needs ``k < n``."""
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    if not np.any(A @ v0):
        return 0.0
    if A.shape[0] == 1:
        return float((A @ np.ones(1))[0])
    return float(spla.eigsh(A, k=1, v0=v0, tol=KRYLOV_TOL, return_eigenvectors=False, **kw)[0])


def check_uniform_regularity(tree, k, W, constants=None):
    """Measure the three uniform-regularity quantities of the depth-W
    subtree problem at k.

    The claimed bounds come from ``constants`` (any object exposing
    ``L_H``, ``gamma_F``, ``gamma_G``).  F is the multiplier rows of the
    scaled KKT matrix H over its state-control columns, G its
    state-control block.  Each quantity is one extreme eigenvalue, by ARPACK
    Lanczos stopped at the relative Ritz residual ``KRYLOV_TOL``, with no
    dense matrix, and one sparse LU, of F F', serves the last two:

    - ``H_norm``: the largest-magnitude eigenvalue of H (exactly symmetric).
    - ``FFt_min_eig``: the smallest eigenvalue of F F', by shift-invert at
      0 through that LU.  The state columns of F are block unit lower
      triangular, so F has full row rank; ``rank_deficient`` reports F F'
      singular to working precision, against ``||F|| <= ||H||``.
    - ``ReH_min_eig``: the smallest eigenvalue of G on the null space of
      F, as ``sigma - lambda_max(P (sigma I - G) P)`` with
      ``sigma = H_norm`` and the projector ``P = I - F'(F F')^{-1} F``
      onto that null space, applied explicitly as ``v - F' lu.solve(F v)``
      on both sides of the sparse ``sigma I - G``, in one function.  Since
      ``||G|| <= ||H||`` the operator is positive semidefinite, vanishes
      on the range of F', and its largest eigenvalue (``which="LA"``)
      gives the smallest algebraic eigenvalue on the null space: on a
      nonconvex problem the negative one, not the one nearest zero that
      shift-invert at 0 would find.  P is conditioned by F F', not by the
      open-loop dynamics.
    """
    system = ScaledKKT(tree, k, W)
    # each node block of H is laid out (x, u, y); w marks G's part (x, u)
    w = np.arange(system.dim) % system.zdim < system.nx + system.nu
    H_norm = abs(_lanczos(system.H, which="LM"))
    H = system.H.tocsr()
    F, G = H[~w][:, w], H[w][:, w]
    FFt = (F @ F.T).tocsc()
    lu = spla.splu(FFt)
    inv = spla.LinearOperator(FFt.shape, lu.solve, dtype=float)
    FFt_min = _lanczos(FFt, sigma=0, OPinv=inv)
    S = H_norm * sp.eye(G.shape[0]) - G

    def project(v):  # onto the null space of F
        return v - F.T @ lu.solve(F @ v)

    shifted = spla.LinearOperator(G.shape, lambda v: project(S @ project(v)), dtype=float)
    return RegularityReport(
        H_norm=H_norm,
        FFt_min_eig=FFt_min,
        ReH_min_eig=H_norm - _lanczos(shifted, which="LA"),
        L_H=float(getattr(constants, "L_H", math.inf)),
        gamma_F=float(getattr(constants, "gamma_F", 0.0)),
        gamma_G=float(getattr(constants, "gamma_G", 0.0)),
        rank_deficient=FFt_min <= (1e-12 * H_norm) ** 2,
    )
