"""Subtree QP solves: a tree Riccati engine, and the assembled KKT system.

The subproblem over the depth-W subtree rooted at k minimizes the
conditional expected quadratic cost subject to the linear dynamics along
tree edges.  Plans and policies are solved by a backward Riccati pass over
(node, remaining depth) pairs, batched by depth, and a forward rollout
(:func:`riccati_gains`, :func:`rollout`, :func:`solve_forest`); every plan
is held to the residual of the KKT system below.

Where the assembled matrix itself is studied (solution maps, uniform
regularity, the here-and-now restriction), :class:`ScaledKKT` builds the
probability-scaled system, whose variables are ``z_i`` premultiplied by
``sqrt(pi_{i|k})``: the scaled KKT matrix is uniformly well conditioned,
while the raw weighted system is not.  Outputs are unscaled back before
being returned.  The per-node variable layout is ``(x, u, y)`` with nodes
in breadth-first subtree order; the scaled KKT matrix couples a node to
itself and to its parent only, and is exactly symmetric by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .norms import BlockVector, _block_norm, _lanczos
from .tree import TreeError, committed_pair, subtree_nodes

RESIDUAL_TOL = 1e-8
PIVOT_TOL = 1e-12


class SolverError(RuntimeError):
    """Solve failed to meet its accuracy contract."""


class SingularKKTError(SolverError):
    """KKT matrix numerically singular; carries the smallest pivot ratio."""

    def __init__(self, message, pivot=0.0):
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class PolicySolution:
    """Primal-dual solution of one subtree problem, in original variables."""

    tree: object
    k: int
    nodes: tuple
    x: dict
    u: dict
    y: dict
    objective: float

    def w(self, node):
        return np.concatenate([self.x[node], self.u[node]])


@dataclass(frozen=True)
class SolutionMap:
    """Linear maps from stacked perturbations p = (q, r, d) to solutions.

    ``Omega[a, :, b, :]`` takes the perturbation of node ``nodes[b]`` to
    the full primal-dual triple z = (x, u, y) of node ``nodes[a]``;
    ``Psi`` keeps its first ``nw`` rows, the state-control pair
    w = (x, u).  Both act on the original (unscaled) perturbations and
    return original variables, for the subtree problem with zero
    committed state-control pair.  Nodes are in breadth-first subtree
    order, so each stage is a contiguous range of block positions.
    """

    tree: object
    k: int
    nodes: tuple
    Omega: np.ndarray
    nw: int

    @property
    def Psi(self):
        return self.Omega[:, : self.nw]

    def apply_p(self, p_blocks):
        """Evaluate w = Psi p for per-node perturbation blocks."""
        p = np.array([p_blocks[n] for n in self.nodes], dtype=float)
        w = np.tensordot(self.Psi, p, axes=2)
        return BlockVector(self.tree, self.nodes, dict(zip(self.nodes, w)))


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
        raise SolverError(
            f"KKT residual {worst:.3e} exceeds contract {RESIDUAL_TOL:g}"
        )
    return z


class ScaledKKT:
    """Assembled scaled KKT system for one subtree problem.

    Holds the sparse symmetric matrix ``H``, the per-node scale factors
    ``sqrt(pi_{i|k})`` (array ``scales``, in node order), and a cached
    sparse LU factorization with the library's deterministic default
    column permutation; node blocks follow the breadth-first subtree
    order.
    """

    def __init__(self, tree, nodes, k):
        if k not in nodes or nodes[0] != k:
            raise TreeError("subtree node set must start at its root k")
        self.tree = tree
        self.k = int(k)
        self.nodes = tuple(nodes)
        nx, nu = tree.nx, tree.nu
        self.nx, self.nu = nx, nu
        self.zdim = 2 * nx + nu
        self.offsets = {n: i * self.zdim for i, n in enumerate(self.nodes)}
        self.scales = np.sqrt(tree.pi[list(self.nodes)] / tree.pi[k])
        self.dim = self.zdim * len(self.nodes)
        self._lu = None
        self.H = self._assemble()

    def _assemble(self):
        """One diagonal block per node and one parent coupling block per
        child (plus its transpose), emitted in a single sparse build."""
        tree, nx, nu, zd = self.tree, self.nx, self.nu, self.zdim
        nodes = np.asarray(self.nodes)
        arr = tree.arrays
        m = len(nodes)
        # node blocks first, then each child's coupling to its parent and
        # the transpose of that coupling
        blocks = np.zeros((3 * m - 2, zd, zd))
        diag, couple = blocks[:m], blocks[m : 2 * m - 1]
        diag[:, :nx, :nx] = arr.Q[nodes]
        diag[:, nx : nx + nu, nx : nx + nu] = arr.R[nodes]
        diag[:, :nx, nx + nu :] = np.eye(nx)
        diag[:, nx + nu :, :nx] = np.eye(nx)
        # node i's dynamics row couples to its parent's (x, u), weighted
        # by the branch probability sqrt(pi_i / pi_parent)
        parents = tree.parent[nodes[1:]]
        # breadth-first subtree order need not sort node ids, so search
        # through the sorting permutation
        order = np.argsort(nodes)
        pos = order[
            np.minimum(np.searchsorted(nodes, parents, sorter=order), m - 1)
        ]
        if not np.array_equal(nodes[pos], parents):
            raise TreeError("subtree node set must hold every node's parent")
        ratio = np.sqrt(tree.pi[nodes[1:]] / tree.pi[parents])
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
        p = self.tree.arrays.p[list(self.nodes)]
        root = self.tree.data[self.k]
        p[0, self.nx + self.nu :] = root.d + root.A @ x_prev + root.B @ u_prev
        return (self.scales[:, None] * p).ravel()

    def unscale(self, ztilde):
        """Original-variable blocks (x, u, y) per node from scaled stack."""
        nx, nu = self.nx, self.nu
        z = np.reshape(ztilde, (len(self.nodes), self.zdim)) / self.scales[:, None]
        x = {n: z[i, :nx] for i, n in enumerate(self.nodes)}
        u = {n: z[i, nx : nx + nu] for i, n in enumerate(self.nodes)}
        y = {n: z[i, nx + nu :] for i, n in enumerate(self.nodes)}
        return x, u, y


def assemble_scaled_kkt(tree, nodes, k):
    """The :class:`ScaledKKT` system of the subtree problem at ``k`` over
    ``nodes``, breadth-first from k."""
    return ScaledKKT(tree, tuple(nodes), k)


def stage_cost(nd, x, u):
    return float(
        0.5 * (x @ nd.Q @ x) + 0.5 * (u @ nd.R @ u) - nd.q @ x - nd.r @ u
    )


def _mv(M, v):
    """Batched matrix-vector products ``M[i] @ v[i]``."""
    return np.einsum("nij,nj->ni", M, v)


def _mtv(M, v):
    """Batched transposed products ``M[i]' @ v[i]``."""
    return np.einsum("nji,nj->ni", M, v)


def depth_layers(depth):
    """Positions grouped by depth: ``layers[h]`` holds, in position
    order, every position of depth h."""
    order = np.argsort(depth, kind="stable")
    cuts = np.searchsorted(depth[order], np.arange(int(depth.max()) + 2))
    return [order[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _step_solve(G, rhs, node, h):
    """Solve the symmetric step systems ``G[i] X[i] = rhs[i]``.

    G may be indefinite: it is solved through its eigendecomposition, so a
    nonconvex problem still yields its stationary point.  A step whose
    ``min|eig| / max|eig|`` falls below ``PIVOT_TOL`` raises
    :class:`SingularKKTError`, and every column is held to
    ``RESIDUAL_TOL`` relative to ``1 + ||rhs||``; a failure names the
    subproblem by its root ``node`` and window ``h``.
    """
    lam, V = np.linalg.eigh(G)
    mag = np.abs(lam)
    top = mag.max(axis=1)
    pivot = np.divide(
        mag.min(axis=1), top, out=np.zeros_like(top), where=top > 0
    )
    bad = np.flatnonzero(pivot < PIVOT_TOL)
    if bad.size:
        i = bad[0]
        raise SingularKKTError(
            f"node {node[i]}, window {h}: step matrix numerically singular: "
            f"relative pivot {pivot[i]:.3e} below {PIVOT_TOL:g}",
            pivot=float(pivot[i]),
        )
    X = V @ ((V.transpose(0, 2, 1) @ rhs) / lam[:, :, None])
    resid = np.linalg.norm(G @ X - rhs, axis=1)
    worst = resid / (1.0 + np.linalg.norm(rhs, axis=1))
    i = int(np.argmax(worst.max(axis=1)))
    if worst[i].max() > RESIDUAL_TOL:
        raise SolverError(
            f"node {node[i]}, window {h}: step residual {worst[i].max():.3e} "
            f"exceeds contract {RESIDUAL_TOL:g}"
        )
    return X


def riccati_gains(tree, node, parent, weight, layers):
    """Feedback ``u = K x + k`` of every subproblem of a forest, from one
    backward Riccati pass.

    Position i is the depth-h subproblem rooted at tree node ``node[i]``,
    for the h with i in ``layers[h]``.  Its children are the positions
    whose ``parent`` is i; they sit in ``layers[h - 1]`` and carry
    ``weight``, their probability conditional on i.  A position's value
    ``1/2 x'P x - p'x + c`` is kept as one matrix ``[[P, -p], [-p', c]]``
    acting on ``[x; 1]``.  One step per depth, batched over that depth's
    positions, sums the stage cost and the weighted child values into a
    quadratic form in ``z = [u; x; 1]`` and eliminates the control; the
    step matrix ``G = R + sum_c w_c B_c' P_c B_c`` is its control block.
    Returns ``K`` of shape (M, nu, nx) and ``k`` of shape (M, nu).
    """
    arr, nx, nu = tree.arrays, tree.nx, tree.nu
    M = len(node)
    # stage costs 1/2 x'Qx + 1/2 u'Ru - q'x - r'u as forms in z
    Hz = np.zeros((M, nu + nx + 1, nu + nx + 1))
    Hz[:, :nu, :nu] = arr.R[node]
    Hz[:, nu:-1, nu:-1] = arr.Q[node]
    Hz[:, :nu, -1] = Hz[:, -1, :nu] = -arr.r[node]
    Hz[:, nu:-1, -1] = Hz[:, -1, nu:-1] = -arr.q[node]
    # [x; 1] of a position as a linear map of its parent's z
    E = np.zeros((M, nx + 1, nu + nx + 1))
    E[:, :nx, :nu] = arr.B[node]
    E[:, :nx, nu:-1] = arr.A[node]
    E[:, :nx, -1] = arr.d[node]
    E[:, -1, -1] = 1.0
    V = np.empty((M, nx + 1, nx + 1))
    X = np.empty((M, nu, nx + 1))
    for h, at in enumerate(layers):
        if h:
            ch = layers[h - 1][parent[layers[h - 1]] >= 0]
            Ec = E[ch]
            child = Ec.transpose(0, 2, 1) @ V[ch] @ Ec
            np.add.at(Hz, parent[ch], weight[ch, None, None] * child)
        S = Hz[at]
        S = 0.5 * (S + S.transpose(0, 2, 1))
        X[at] = -_step_solve(S[:, :nu, :nu], S[:, :nu, nu:], node[at], h)
        Vh = S[:, nu:, nu:] + S[:, nu:, :nu] @ X[at]
        V[at] = 0.5 * (Vh + Vh.transpose(0, 2, 1))
    return X[:, :, :nx], X[:, :, nx]


def rollout(tree, node, pred, K, k, levels, w_prev):
    """States and controls driven forward by feedback gains.

    Item i follows tree node ``node[i]``'s dynamics from the pair of item
    ``pred[i]`` (from the committed pair ``w_prev`` where ``pred`` is -1)
    and applies ``u = K[i] x + k[i]``.  ``levels`` lists the items so that
    each comes after its predecessor.  Returns stacked ``x`` and ``u``.
    """
    arr = tree.arrays
    x_prev, u_prev = committed_pair(w_prev, tree)
    x = np.zeros((len(node), tree.nx))
    u = np.zeros((len(node), tree.nu))
    for at in levels:
        first = (pred[at] < 0)[:, None]
        xp = np.where(first, x_prev, x[pred[at]])
        up = np.where(first, u_prev, u[pred[at]])
        n = node[at]
        x[at] = _mv(arr.A[n], xp) + _mv(arr.B[n], up) + arr.d[n]
        u[at] = _mv(K[at], x[at]) + k[at]
    return x, u


def solve_forest(tree, node, parent, weight, layers, w_prev):
    """Primal-dual solution of every tree of a forest of subproblems.

    The forest is laid out as for :func:`riccati_gains`, and every root
    starts from the committed pair ``w_prev``.  States and controls come
    from a rollout of the gains from the roots, multipliers from the
    adjoint recursion ``y = q - Q x + sum_c w_c A_c' y_c``, children
    first.  Each tree is then held to the residual of its scaled KKT
    system (the one :class:`ScaledKKT` assembles), evaluated blockwise:
    stationarity and dynamics rows weighted by probabilities conditional
    on the root, against ``RESIDUAL_TOL`` relative to ``1 + ||rhs||``.
    """
    arr = tree.arrays
    K, k = riccati_gains(tree, node, parent, weight, layers)
    x, u = rollout(tree, node, parent, K, k, layers[::-1], w_prev)
    A, B = arr.A[node], arr.B[node]
    q, r, d = arr.q[node], arr.r[node], arr.d[node]
    # each position's root, and its probability conditional on the root
    root, cond = np.arange(len(node)), np.ones(len(node))
    for at in layers[::-1]:
        below = at[parent[at] >= 0]
        root[below] = root[parent[below]]
        cond[below] = cond[parent[below]] * weight[below]
    # SA, SB: child sums of the weighted multipliers through A' and B'
    SA, SB, y = np.zeros_like(x), np.zeros_like(u), np.empty_like(x)
    for at in layers:
        y[at] = q[at] - _mv(arr.Q[node[at]], x[at]) + SA[at]
        ch = at[parent[at] >= 0]
        wy = weight[ch, None] * y[ch]
        np.add.at(SA, parent[ch], _mtv(A[ch], wy))
        np.add.at(SB, parent[ch], _mtv(B[ch], wy))
    x_prev, u_prev = committed_pair(w_prev, tree)
    first = (parent < 0)[:, None]
    drive = _mv(A, np.where(first, x_prev, x[parent])) + _mv(
        B, np.where(first, u_prev, u[parent])
    )
    resid = np.concatenate(
        [
            _mv(arr.Q[node], x) + y - SA - q,
            _mv(arr.R[node], u) - SB - r,
            x - drive - d,
        ],
        axis=1,
    )
    rhs = np.concatenate([q, r, d + np.where(first, drive, 0.0)], axis=1)
    res_norm = np.sqrt(np.bincount(root, cond * np.sum(resid**2, axis=1)))
    rhs_norm = np.sqrt(np.bincount(root, cond * np.sum(rhs**2, axis=1)))
    worst = float(np.max(res_norm / (1.0 + rhs_norm)))
    if worst > RESIDUAL_TOL:
        raise SolverError(
            f"KKT residual {worst:.3e} exceeds contract {RESIDUAL_TOL:g}"
        )
    return x, u, y


def solve_extensive(tree, k, W, w_prev):
    """Solve the depth-W subtree problem rooted at k.

    ``w_prev`` is the state-control pair committed at the stage before
    ``k`` (a pair of arrays or an InitialCondition-like object).  Returns
    a :class:`PolicySolution` in original variables whose objective is
    the conditional expected cost over the subtree.
    """
    nodes = tuple(subtree_nodes(tree, k, W))
    node = np.asarray(nodes)
    pos = {n: i for i, n in enumerate(nodes)}
    parent = np.array([-1] + [pos[int(tree.parent[n])] for n in nodes[1:]])
    weight = tree.pi[node] / tree.pi[node[np.maximum(parent, 0)]]
    rel = tree.stage[node] - tree.stage[k]
    layers = depth_layers(rel.max() - rel)
    x, u, y = solve_forest(tree, node, parent, weight, layers, w_prev)
    x, u, y = (dict(zip(nodes, v)) for v in (x, u, y))
    cond = {n: tree.pi[n] / tree.pi[k] for n in nodes}
    objective = math.fsum(
        cond[n] * stage_cost(tree.data[n], x[n], u[n]) for n in nodes
    )
    return PolicySolution(tree, k, nodes, x, u, y, objective)


def solution_map(tree, k, W):
    """Linear solution maps of the subtree problem at ``k`` with zero
    committed pair.

    Solves the scaled system against one unit perturbation per
    p-coordinate (one factorization, many triangular solves), then
    unscales rows and columns so the returned maps take original
    perturbations to original variables.
    """
    nodes = tuple(subtree_nodes(tree, k, W))
    system = assemble_scaled_kkt(tree, nodes, k)
    m, zd = len(nodes), system.zdim
    # the perturbation enters the scaled system as sqrt(pi_{j|k}) p_j, so
    # columns already carry the s_j factor
    Z = system.solve(np.diag(np.repeat(system.scales, zd)))
    # the solve returns column-major data: reading it in that order makes
    # the four-index form a view rather than a second dense copy
    Omega = np.reshape(Z, (zd, m, zd, m), order="F").transpose(1, 0, 3, 2)
    # rows are unscaled back to original variables in place
    Omega /= system.scales[:, None, None, None]
    Omega.flags.writeable = False
    return SolutionMap(tree, k, nodes, Omega, system.nx + system.nu)


def solution_map_rows(tree, k, W, row_nodes, rows="w"):
    """Row blocks of the solution map without forming the whole inverse.

    The scaled KKT matrix is symmetric, so rows of its inverse are
    transposed columns; one solve per requested row coordinate suffices.
    ``rows="w"`` restricts to the state-control rows of each requested
    node.  Returns ``{(i, j): block}`` for i in ``row_nodes`` over all
    subtree nodes j.
    """
    nodes = tuple(subtree_nodes(tree, k, W))
    system = assemble_scaled_kkt(tree, nodes, k)
    nx, nu, zd = system.nx, system.nu, system.zdim
    nrow = nx + nu if rows == "w" else zd
    unit = np.ravel([[system.offsets[i] + c for c in range(nrow)] for i in row_nodes])
    cols = np.zeros((system.dim, unit.size))
    cols[unit, np.arange(unit.size)] = 1.0
    X = system.solve(cols)
    out = {}
    for idx, i in enumerate(row_nodes):
        si = system.scales[system.offsets[i] // zd]
        sub = X[:, idx * nrow : (idx + 1) * nrow]
        for j, sj in zip(nodes, system.scales):
            coff = system.offsets[j]
            # row block of the inverse = transpose of the column block,
            # then perturbation scaling s_j and variable unscaling 1/s_i
            out[(i, j)] = (sj / si) * sub[coff : coff + zd, :].T
    return out


def measure_decay(smap):
    """Stage-pair weighted norms of both solution maps.

    Returns one :class:`DecayRow` per ordered stage pair (t, t') of the
    mapped subtree, carrying the weighted operator norms of the
    corresponding stage blocks of Psi and Omega.
    """
    idx = list(smap.nodes)
    pi = smap.tree.pi[idx]
    # breadth-first order keeps each stage's nodes contiguous
    stages, starts = np.unique(smap.tree.stage[idx], return_index=True)
    spans = list(zip(stages.tolist(), starts, np.append(starts[1:], len(idx))))
    rows = []
    for t, a0, a1 in spans:
        for tp, b0, b1 in spans:
            f = np.sqrt(pi[a0:a1, None] / pi[None, b0:b1])
            psi = _block_norm(smap.Psi[a0:a1, :, b0:b1].copy(), f)
            omega = _block_norm(smap.Omega[a0:a1, :, b0:b1].copy(), f)
            rows.append(DecayRow(t, tp, psi, omega))
    return rows


def check_uniform_regularity(tree, subtree, constants=None):
    """Measure the three uniform-regularity quantities on one subtree.

    The claimed bounds come from ``constants`` (any object exposing
    ``L_H``, ``gamma_F``, ``gamma_G``).  F is the multiplier rows of the
    scaled KKT matrix H over its state-control columns, G its
    state-control block.  Each quantity is one extreme eigenvalue of a
    sparse operator, by Lanczos, with no dense matrix:

    - ``H_norm``: the largest-magnitude eigenvalue of H (exactly symmetric).
    - ``FFt_min_eig``: the smallest eigenvalue of F F', by shift-invert at
      0.  The state columns F_x of F are block unit lower triangular, so F
      has full row rank; ``rank_deficient`` reports F F' singular to
      working precision, against ``||F|| <= ||H||``.
    - ``ReH_min_eig``: the smallest algebraic eigenvalue (``which="SA"``)
      of the pencil (N'GN, N'N), G on the null space of F, for the
      forward-simulation basis N = [-F_x^{-1} F_u; I], applied through one
      LU of F_x.  ``N'N v = b`` is one KKT solve with G replaced by the
      identity (the tree LQ problem with Q = R = I).  Shift-invert at 0
      would find the eigenvalue nearest zero: on a nonconvex problem, not
      the smallest.
    """
    nodes = tuple(subtree)
    system = assemble_scaled_kkt(tree, nodes, nodes[0])
    H, dim, nx, nw = system.H, system.dim, system.nx, system.nx + system.nu
    # each node block of H is laid out (x, u, y), parts 0, 1 and 2
    part = np.searchsorted([nx, nw], np.arange(dim) % system.zdim, side="right")
    x, u, y = (np.flatnonzero(part == p) for p in range(3))
    H_norm = abs(_lanczos(H, dim, which="LM"))
    Hy = H.tocsr()[y]
    F, Fu, FuT = Hy[:, part < 2], Hy[:, u], Hy[:, u].T.tocsr()
    FFt_min = _lanczos((F @ F.T).tocsc(), y.size, sigma=0)
    Fx = spla.splu(Hy[:, x].tocsc())
    # H with G replaced by the identity, and the embedding of the u-part
    D = sp.diags((part < 2).astype(float))
    K = (H - D @ H @ D + D).tocsc()
    lu, lift = factor_kkt(K), sp.eye(dim, format="csr")[:, u]

    def N(v):  # the basis applied, as a full vector with y = 0
        z = lift @ v
        z[x] = -Fx.solve(Fu @ v)
        return z

    def Nt(z):
        return z[u] - FuT @ Fx.solve(z[x], trans="T")

    A, M, Minv = (
        spla.LinearOperator((u.size, u.size), matvec=f, dtype=float)
        for f in (
            lambda v: Nt(H @ N(v)),
            lambda v: Nt(N(v)),
            lambda b: solve_kkt(K, lu, lift @ b)[u],
        )
    )
    return RegularityReport(
        H_norm=H_norm,
        FFt_min_eig=FFt_min,
        ReH_min_eig=_lanczos(A, u.size, M=M, Minv=Minv, which="SA"),
        L_H=float(getattr(constants, "L_H", math.inf)),
        gamma_F=float(getattr(constants, "gamma_F", 0.0)),
        gamma_G=float(getattr(constants, "gamma_G", 0.0)),
        rank_deficient=FFt_min <= (1e-12 * H_norm) ** 2,
    )
