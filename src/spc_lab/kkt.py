"""Probability-scaled extensive-form QP assembly, solves, and solution maps.

The subproblem over the depth-W subtree rooted at k minimizes the
conditional expected quadratic cost subject to the linear dynamics along
tree edges.  All linear algebra happens on the probability-scaled system,
whose variables are ``z_i`` premultiplied by ``sqrt(pi_{i|k})``: the
scaled KKT matrix is uniformly well conditioned, while the raw weighted
system is not.  Outputs are unscaled back before being returned.

The per-node variable layout is ``(x, u, y)`` with nodes in breadth-first
subtree order; the scaled KKT matrix couples a node to itself and to its
parent only, and is exactly symmetric by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .norms import BlockMatrix, BlockVector, pi_norm_mat
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

    ``Psi`` returns state-control pairs w = (x, u); ``Omega`` returns full
    primal-dual triples z = (x, u, y).  Both act on the original
    (unscaled) perturbations and return original variables, for the
    subtree problem with zero committed state-control pair.
    """

    tree: object
    k: int
    nodes: tuple
    Psi: BlockMatrix
    Omega: BlockMatrix

    def apply_p(self, p_blocks):
        """Evaluate w = Psi p for per-node perturbation blocks."""
        v = BlockVector(self.tree, self.nodes, p_blocks)
        return self.Psi.apply(v)


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

    Holds the sparse symmetric matrix, the per-node scale factors
    ``sqrt(pi_{i|k})``, and a cached sparse LU factorization.  The
    factorization's fill-reducing column permutation is the library
    default, which is deterministic; node-block layout follows the
    breadth-first subtree order.
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
        self.scales = {
            n: math.sqrt(tree.pi[n] / tree.pi[k]) for n in self.nodes
        }
        self.dim = self.zdim * len(self.nodes)
        self._lu = None
        self.H = self._assemble()

    def _assemble(self):
        nx, nu = self.nx, self.nu
        rows, cols, vals = [], [], []

        def put(r0, c0, blk):
            blk = np.asarray(blk)
            nz = np.nonzero(blk)
            rows.extend(r0 + nz[0])
            cols.extend(c0 + nz[1])
            vals.extend(blk[nz])

        eye = np.eye(nx)
        for n in self.nodes:
            nd = self.tree.data[n]
            if nd.nx != nx or nd.nu != nu:
                raise TreeError(f"node {n}: data dims do not match tree")
            off = self.offsets[n]
            xo, uo, yo = off, off + nx, off + nx + nu
            # quadratic forms only see the symmetric part; storing it keeps
            # the assembled matrix exactly symmetric
            put(xo, xo, 0.5 * (nd.Q + nd.Q.T))
            put(uo, uo, 0.5 * (nd.R + nd.R.T))
            put(xo, yo, eye)
            put(yo, xo, eye)
            if n != self.k:
                par = int(self.tree.parent[n])
                ratio = math.sqrt(self.tree.pi[n] / self.tree.pi[par])
                Asc, Bsc = ratio * nd.A, ratio * nd.B
                poff = self.offsets[par]
                pxo, puo = poff, poff + nx
                put(yo, pxo, -Asc)
                put(yo, puo, -Bsc)
                put(pxo, yo, -Asc.T)
                put(puo, yo, -Bsc.T)
        return sp.csc_matrix(
            (vals, (rows, cols)), shape=(self.dim, self.dim)
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
        nx, nu = self.nx, self.nu
        x_prev, u_prev = committed_pair(w_prev, self.tree)
        rhs = np.zeros(self.dim)
        for n in self.nodes:
            nd = self.tree.data[n]
            s = self.scales[n]
            off = self.offsets[n]
            d_eff = nd.d
            if n == self.k:
                d_eff = nd.d + nd.A @ x_prev + nd.B @ u_prev
            rhs[off : off + nx] = s * nd.q
            rhs[off + nx : off + nx + nu] = s * nd.r
            rhs[off + nx + nu : off + 2 * nx + nu] = s * d_eff
        return rhs

    def unscale(self, ztilde):
        """Original-variable blocks (x, u, y) per node from scaled stack."""
        nx, nu = self.nx, self.nu
        x, u, y = {}, {}, {}
        for n in self.nodes:
            off, s = self.offsets[n], self.scales[n]
            x[n] = ztilde[off : off + nx] / s
            u[n] = ztilde[off + nx : off + nx + nu] / s
            y[n] = ztilde[off + nx + nu : off + 2 * nx + nu] / s
        return x, u, y


def assemble_scaled_kkt(tree, nodes, k):
    """Assemble the scaled KKT matrix for the subtree problem at ``k``.

    Parameters
    ----------
    tree : ScenarioTree
    nodes : ordered node list, breadth-first, rooted at k
    k : int

    Returns
    -------
    ScaledKKT holding the exactly symmetric sparse matrix, per-node
    scale factors, and block offsets.
    """
    return ScaledKKT(tree, tuple(nodes), k)


def stage_cost(nd, x, u):
    return float(
        0.5 * (x @ nd.Q @ x) + 0.5 * (u @ nd.R @ u) - nd.q @ x - nd.r @ u
    )


def solve_extensive(tree, k, W, w_prev):
    """Solve the depth-W subtree problem rooted at k.

    ``w_prev`` is the state-control pair committed at the stage before
    ``k`` (a pair of arrays or an InitialCondition-like object).  Returns
    a :class:`PolicySolution` in original variables whose objective is
    the conditional expected cost over the subtree.
    """
    nodes = tuple(subtree_nodes(tree, k, W))
    system = assemble_scaled_kkt(tree, nodes, k)
    ztilde = system.solve(system.scaled_rhs(w_prev))
    x, u, y = system.unscale(ztilde)
    cond = {n: tree.pi[n] / tree.pi[k] for n in nodes}
    objective = math.fsum(
        cond[n] * stage_cost(tree.data[n], x[n], u[n]) for n in nodes
    )
    return PolicySolution(tree, k, nodes, x, u, y, objective)


def _perturbation_columns(system):
    """Scaled unit right-hand sides for every p-coordinate of every node.

    The perturbation enters the scaled system as ``sqrt(pi_{j|k}) p_j``,
    so column (j, c) is that multiple of the corresponding unit vector.
    Column order follows node order then coordinate order (q, r, d).
    """
    cols = np.zeros((system.dim, system.dim))
    for n in system.nodes:
        off, s = system.offsets[n], system.scales[n]
        for c in range(system.zdim):
            cols[off + c, off + c] = s
    return cols


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
    Z = system.solve(_perturbation_columns(system))
    nx, nu, zd = system.nx, system.nu, system.zdim
    omega_blocks, psi_blocks = {}, {}
    for i in nodes:
        roff, si = system.offsets[i], system.scales[i]
        for j in nodes:
            coff = system.offsets[j]
            # columns already carry the s_j perturbation factor; rows are
            # unscaled back to original variables here
            blk = Z[roff : roff + zd, coff : coff + zd] / si
            omega_blocks[(i, j)] = blk
            psi_blocks[(i, j)] = blk[: nx + nu, :]
    Omega = BlockMatrix(tree, nodes, nodes, omega_blocks)
    Psi = BlockMatrix(tree, nodes, nodes, psi_blocks)
    return SolutionMap(tree, k, nodes, Psi, Omega)


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
    cols = np.zeros((system.dim, nrow * len(row_nodes)))
    for idx, i in enumerate(row_nodes):
        off = system.offsets[i]
        for c in range(nrow):
            cols[off + c, idx * nrow + c] = 1.0
    X = system.solve(cols)
    out = {}
    for idx, i in enumerate(row_nodes):
        si = system.scales[i]
        sub = X[:, idx * nrow : (idx + 1) * nrow]
        for j in nodes:
            coff, sj = system.offsets[j], system.scales[j]
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
    tree = smap.tree
    by_stage = {}
    for n in smap.nodes:
        by_stage.setdefault(int(tree.stage[n]), []).append(n)
    stages = sorted(by_stage)
    rows = []
    for t in stages:
        for tp in stages:
            ri, ci = tuple(by_stage[t]), tuple(by_stage[tp])
            psi = BlockMatrix(
                tree,
                ri,
                ci,
                {
                    (i, j): smap.Psi.blocks[(i, j)]
                    for i in ri
                    for j in ci
                    if (i, j) in smap.Psi.blocks
                },
            )
            omega = BlockMatrix(
                tree,
                ri,
                ci,
                {
                    (i, j): smap.Omega.blocks[(i, j)]
                    for i in ri
                    for j in ci
                    if (i, j) in smap.Omega.blocks
                },
            )
            rows.append(
                DecayRow(t, tp, pi_norm_mat(psi), pi_norm_mat(omega))
            )
    return rows


def check_uniform_regularity(tree, subtree, K_stab=None, K_det=None, constants=None):
    """Measure the three uniform-regularity quantities on one subtree.

    The gains do not enter the measurement; they matter only through the
    claimed bounds, which come from ``constants`` (any object exposing
    ``L_H``, ``gamma_F``, ``gamma_G``).  Rank deficiency of the dynamics
    operator is reported as a failed minimum-eigenvalue check rather than
    an exception.
    """
    nodes = tuple(subtree)
    k = nodes[0]
    system = assemble_scaled_kkt(tree, nodes, k)
    nx, nu = system.nx, system.nu
    H_norm = float(np.linalg.norm(system.H.toarray(), 2))

    nw = (nx + nu) * len(nodes)
    ny = nx * len(nodes)
    woff = {n: i * (nx + nu) for i, n in enumerate(nodes)}
    F = np.zeros((ny, nw))
    G = np.zeros((nw, nw))
    for i, n in enumerate(nodes):
        nd = tree.data[n]
        F[i * nx : (i + 1) * nx, woff[n] : woff[n] + nx] = np.eye(nx)
        if n != k:
            par = int(tree.parent[n])
            ratio = math.sqrt(tree.pi[n] / tree.pi[par])
            F[i * nx : (i + 1) * nx, woff[par] : woff[par] + nx] = -ratio * nd.A
            F[i * nx : (i + 1) * nx, woff[par] + nx : woff[par] + nx + nu] = (
                -ratio * nd.B
            )
        G[woff[n] : woff[n] + nx, woff[n] : woff[n] + nx] = nd.Q
        G[woff[n] + nx : woff[n] + nx + nu, woff[n] + nx : woff[n] + nx + nu] = nd.R

    FFt_min = float(np.linalg.eigvalsh(F @ F.T).min())
    U, s, Vt = np.linalg.svd(F, full_matrices=True)
    tol = (s[0] if s.size else 0.0) * 1e-12
    rank = int(np.sum(s > tol))
    rank_deficient = rank < ny
    Z = Vt[rank:].T
    ReH_min = (
        float(np.linalg.eigvalsh(Z.T @ G @ Z).min()) if Z.size else math.inf
    )
    L_H = getattr(constants, "L_H", math.inf) if constants is not None else math.inf
    gamma_F = getattr(constants, "gamma_F", 0.0) if constants is not None else 0.0
    gamma_G = getattr(constants, "gamma_G", 0.0) if constants is not None else 0.0
    return RegularityReport(
        H_norm=H_norm,
        FFt_min_eig=FFt_min,
        ReH_min_eig=ReH_min,
        L_H=float(L_H),
        gamma_F=float(gamma_F),
        gamma_G=float(gamma_G),
        rank_deficient=rank_deficient,
    )
