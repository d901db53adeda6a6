"""Probability-scaled norms over scenario-tree node sets.

The weighted vector norm ``sqrt(sum_i pi_i ||v_i||^2)`` and its induced
operator norm are the measuring sticks for every decay and performance
bound in this package.  Block vectors and block matrices are stacks over
node ids: a :class:`BlockVector` holds one row per node, a
:class:`BlockMatrix` one :class:`Blocks` stack in block coordinate
format.  :func:`stage_moments`, the one moment kernel, evaluates the
vector norm per stage on rows stacked over nodes.  The induced norm is
the spectral norm after rescaling block (i, j) by ``sqrt(pi_i / pi_j)``.
Three kernels evaluate it: :func:`pi_norm_mat` runs Lanczos on the Gram
operator of a general :class:`BlockMatrix`, with no matrix formed (the
norms suite); :func:`stage_norm` is exact, with no iteration, for the
closed-loop stage matrices, which hold one block per row or column (the
lemma suite); and :func:`_block_norm` takes the largest eigenvalue of the
Gram matrix, on the smaller side, of blocks that are dense already and
weighted by the caller, as the solution-map decay rows do with their
stage blocks, weighted in place.  A weighted diagonal stage block of a
solution map is symmetric, the map being self-adjoint in the weights, so
the decay rows take its norm as its largest absolute eigenvalue, with no
Gram.  One Lanczos kernel, :func:`_lanczos_lockstep`, serves
:func:`pi_norm_mat` and the decay rows' large stage pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .tree import ScenarioTree, TreeError

KRYLOV_TOL = 1e-13  # relative Ritz residual where every Krylov estimate stops


class Blocks(NamedTuple):
    """Blocks in coordinate format, like scipy's COO ``(row, col, data)``:
    block m is the matrix ``values[m]`` at row node ``rows[m]`` and column
    node ``cols[m]``.  Missing pairs are zero; repeated pairs add up."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _node_ids(tree, nodes):
    """Read-only int array of distinct node ids, checked to lie in ``tree``."""
    ids = np.array(nodes, dtype=int).reshape(-1)
    bad = ids[(ids < 0) | (ids >= tree.node_count)]
    if bad.size:
        raise TreeError(f"node {bad[0]} not in tree")
    seen, count = np.unique(ids, return_counts=True)
    if (count > 1).any():
        raise TreeError(f"node {seen[count > 1][0]} repeated")
    ids.setflags(write=False)
    return ids


def _block_action(W, a, b, n):
    """The action ``x -> y``, ``y[s] = sum_{a_k = s} W_k x[b_k]`` over ``n``
    row slots, of blocks ``W`` at row slots ``a`` and column slots ``b``,
    sorted once by row slot so that each action is one sorted segment sum."""
    order = np.argsort(a, kind="stable")
    slots, starts = np.unique(a[order], return_index=True)
    W, b = W[order], b[order]

    def act(x):
        y = np.zeros((n, W.shape[1]))
        y[slots] = np.add.reduceat(np.einsum("kij,kj->ki", W, x[b]), starts)
        return y

    return act


@dataclass(frozen=True)
class BlockVector:
    """Vector with one block per node of a node set: row m of the
    read-only ``(len(nodes), dim)`` stack ``V`` is node ``nodes[m]``'s."""

    tree: ScenarioTree
    nodes: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        nodes, V = _node_ids(self.tree, self.nodes), np.array(self.V, dtype=float)
        if V.ndim != 2 or len(V) != nodes.size:
            raise TreeError(f"{nodes.size} nodes but blocks of shape {V.shape}")
        V.setflags(write=False)
        self.__dict__.update(nodes=nodes, V=V)


@dataclass(frozen=True)
class BlockMatrix:
    """Sparse-by-blocks matrix between two node sets: one read-only
    :class:`Blocks` stack whose blocks share the shape ``shape_block``."""

    tree: ScenarioTree
    row_nodes: np.ndarray
    col_nodes: np.ndarray
    blocks: Blocks
    shape_block: tuple = field(init=False)

    def __post_init__(self):
        row_nodes, col_nodes = (_node_ids(self.tree, n) for n in (self.row_nodes, self.col_nodes))
        rows, cols = (np.array(a, dtype=int).reshape(-1) for a in self.blocks[:2])
        values = np.array(self.blocks[2], dtype=float)
        if values.ndim != 3 or not rows.size == cols.size == len(values):
            raise TreeError("blocks need one row node, column node and matrix each")
        out = np.flatnonzero(~np.isin(rows, row_nodes) | ~np.isin(cols, col_nodes))
        if out.size:
            raise TreeError(f"block ({rows[out[0]]}, {cols[out[0]]}) outside declared node sets")
        for a in (rows, cols, values):
            a.setflags(write=False)
        self.__dict__.update(row_nodes=row_nodes, col_nodes=col_nodes,
                             blocks=Blocks(rows, cols, values), shape_block=values.shape[1:])

    def _slots(self):
        """Positions of each block's row and column node in the node sets."""
        pos = np.full((2, self.tree.node_count), -1)
        pos[0, self.row_nodes] = np.arange(self.row_nodes.size)
        pos[1, self.col_nodes] = np.arange(self.col_nodes.size)
        return pos[0, self.blocks.rows], pos[1, self.blocks.cols]

    def apply(self, v):
        """Matrix-vector action; returns a BlockVector on the row nodes."""
        if not np.array_equal(v.nodes, self.col_nodes):
            raise TreeError("vector node set differs from matrix columns")
        act = _block_action(self.blocks.values, *self._slots(), self.row_nodes.size)
        return BlockVector(self.tree, self.row_nodes, act(v.V))


def stage_moments(weight, V, stage, T):
    """Per-stage moments ``sqrt(sum_j w_j ||V_j||^2)``, t = 0..T, of the
    rows ``V`` (n, m) stacked over nodes with weights ``weight`` and stage
    labels ``stage`` (0 for a stage without rows).  Each stage sum is exactly
    rounded (``math.fsum``), so it does not depend on the order of the rows.
    """
    terms = weight * np.einsum("ij,ij->i", V, V)
    return np.array([math.sqrt(math.fsum(terms[stage == t])) for t in range(T + 1)])


def pi_norm_vec(v):
    """Probability-weighted norm sqrt(sum_i pi_i ||v_i||^2)."""
    return float(stage_moments(v.tree.pi[v.nodes], v.V, np.zeros(len(v.V)), 0)[0])


def stage_perturbation_moments(tree):
    """Per-stage {E[||p_t||^2]}^{1/2}, t = 0..T, of the unshifted
    perturbations p = (q, r, d), by exact weighted enumeration."""
    return stage_moments(tree.pi, tree.arrays.p, tree.stage, tree.horizon)


def _block_norm(M4):
    """Spectral norm of the block array ``M4[a, :, b, :]``, its blocks
    already weighted by the caller: the root of the largest eigenvalue of
    the Gram matrix on the smaller side.  A contiguous view is reduced as
    it stands; a strided one is copied, contiguous, by the reshape."""
    if M4.size == 0:
        return 0.0
    a, r, b, c = M4.shape
    M = M4.reshape(a * r, b * c)
    gram = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def _lanczos_lockstep(gram, sizes):
    """Largest eigenvalues of PSD operators of orders ``sizes`` by Lanczos
    in lockstep; ``gram(live, vectors)`` applies operator ``live[r]`` to
    ``vectors[r]``.  Each starts from one fixed-seed random vector (reruns
    are bit-identical), keeps a fully reorthogonalised basis, and stops
    once its top Ritz residual ``beta_j |s_j|`` is at most ``KRYLOV_TOL``
    times the Ritz value or its basis spans the space.  An operator of
    order 0, or whose first product is exactly zero, has eigenvalue 0.0."""
    top, ab = np.zeros(len(sizes)), [([], []) for _ in sizes]
    basis = [np.random.default_rng(0).standard_normal((1, n)) for n in sizes]
    basis = [v / np.linalg.norm(v) for v in basis]
    live = [g for g, n in enumerate(sizes) if n]
    while live:
        products, going = gram(live, [basis[g][len(ab[g][0])] for g in live]), []
        for g, w in zip(live, products):
            (alpha, beta), Q = ab[g], basis[g][: len(ab[g][0]) + 1]
            alpha.append(Q[-1] @ w)
            for _ in range(2):
                w = w - Q.T @ (Q @ w)
            b, j = float(np.linalg.norm(w)), len(alpha)
            theta, s = eigh_tridiagonal(alpha, beta, select="i", select_range=(j - 1, j - 1))
            top[g] = theta[0]
            if b * abs(s[-1, 0]) > KRYLOV_TOL * theta[0] and j < sizes[g]:
                if j == len(basis[g]):  # double the basis storage
                    basis[g] = np.resize(basis[g], (min(2 * j, sizes[g]), sizes[g]))
                beta.append(b)
                basis[g][j] = w / b
                going.append(g)
        live = going
    return top


def pi_norm_mat(M):
    """Operator norm induced by :func:`pi_norm_vec`: the spectral norm after
    rescaling each block by ``sqrt(pi_row / pi_col)``, however the two nodes
    relate in the tree.  Its square is the largest eigenvalue of the Gram
    operator on the smaller side, by :func:`_lanczos_lockstep`; a product
    applies the rescaled blocks, then their transposes, forming no matrix."""
    pi, (rows, cols, values), (a, b) = M.tree.pi, M.blocks, M._slots()
    W = np.sqrt(pi[rows] / pi[cols])[:, None, None] * values
    n, m = M.row_nodes.size, M.col_nodes.size
    if W.shape[1] * n < W.shape[2] * m:  # the Gram of the transpose
        W, a, b, n, m = W.transpose(0, 2, 1), b, a, m, n
    S, St = _block_action(W, a, b, n), _block_action(W.transpose(0, 2, 1), b, a, m)

    def gram(live, vectors):  # S' S
        return [St(S(vectors[0].reshape(m, -1))).ravel()]

    return math.sqrt(max(float(_lanczos_lockstep(gram, [W.shape[2] * m])[0]), 0.0))


def stage_norm(pi, blocks):
    """:func:`pi_norm_mat` of a matrix with one block per row or per column.

    ``blocks`` is a :class:`Blocks` stack.  With one block per row,
    ``M'M`` (rescaled) is block diagonal over the columns:
    ``||M||^2 = max_c lambda_max(sum_{i: c(i) = c} (pi_i / pi_c) M_ic' M_ic)``.
    With one block per column, ``M M'`` is block diagonal over the rows,
    with the same weights.  Groups are formed from the node indices, so
    neither set needs to be sorted or contiguous.
    """
    rows, cols, values = (np.asarray(a) for a in blocks)
    if np.unique(rows).size == rows.size:
        group, gram = cols, values.transpose(0, 2, 1) @ values
    elif np.unique(cols).size == cols.size:
        group, gram = rows, values @ values.transpose(0, 2, 1)
    else:
        raise TreeError("stage matrix has neither one block per row nor per column")
    keys, slot = np.unique(group, return_inverse=True)
    G = np.zeros((keys.size,) + gram.shape[1:])
    np.add.at(G, slot, (pi[rows] / pi[cols])[:, None, None] * gram)
    return math.sqrt(max(float(np.linalg.eigvalsh(G)[:, -1].max()), 0.0))


def expectation_identity_check(tree, k, t, v):
    """Weighted norm versus conditional second moment on one stage slice.

    For ``v`` defined on the stage-``t`` nodes of the subtree rooted at
    ``k``, the weighted norm equals ``sqrt(pi_k)`` times the square root
    of the conditional expectation of ``||v||^2`` given arrival at ``k``,
    with the expectation enumerated exactly.  Returns ``(lhs, rhs, gap)``;
    the two sides must agree within ``1e-10 * (1 + lhs)``.
    """
    if t < tree.stage[k]:
        raise TreeError(f"stage {t} precedes node {k}'s stage {tree.stage[k]}")
    expected = np.flatnonzero((tree.stage == t) & (tree.ancestors[:, tree.stage[k]] == k))
    if not np.array_equal(np.unique(v.nodes), expected):
        raise TreeError(
            f"vector nodes do not match stage-{t} slice of subtree at {k}"
        )
    lhs = pi_norm_vec(v)
    # v @ v row by row: the stacked matmul runs the dot of v @ v per row
    cond = (tree.pi[v.nodes] / tree.pi[k]) * (v.V[:, None] @ v.V[:, :, None])[:, 0, 0]
    rhs = math.sqrt(tree.pi[k]) * math.sqrt(math.fsum(cond))
    return lhs, rhs, abs(lhs - rhs)
