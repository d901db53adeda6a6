"""Probability-scaled norms over scenario-tree node sets.

The weighted vector norm ``sqrt(sum_i pi_i ||v_i||^2)`` and its induced
operator norm are the measuring sticks for every decay and performance
bound in this package.  :func:`stage_moments`, the one moment kernel,
evaluates the vector norm per stage on rows stacked over nodes.  The
induced norm is the spectral norm after rescaling block (i, j) by
``sqrt(pi_i / pi_j)``.  Three kernels evaluate it: :func:`pi_norm_mat`
assembles a general :class:`BlockMatrix` sparse and takes its norm by
Lanczos (the norms suite); :func:`stage_norm` is exact, with no
iteration, for the closed-loop stage matrices, which hold one block per
row or column (the lemma suite); and :func:`_block_norm` takes the
largest eigenvalue of the Gram matrix, on the smaller side, of blocks
that are dense already (solution-map decay rows and :func:`sigma_pi`),
the kernel :func:`stage_norm` applies per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .tree import ScenarioTree, TreeError


@dataclass(frozen=True)
class BlockVector:
    """Vector with one fixed-size block per node of a tree node set."""

    tree: ScenarioTree
    nodes: tuple
    blocks: dict

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        blocks = {}
        dim = None
        for n in self.nodes:
            if not 0 <= n < self.tree.node_count:
                raise TreeError(f"node {n} not in tree")
            b = np.array(self.blocks[n], dtype=float).ravel()
            if dim is None:
                dim = b.shape[0]
            elif b.shape[0] != dim:
                raise TreeError("block dimensions differ across nodes")
            b.setflags(write=False)
            blocks[n] = b
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_dim", dim if dim is not None else 0)

    @property
    def dim(self):
        return self._dim

    def stacked(self):
        """Concatenation of blocks in node-set order."""
        if not self.nodes:
            return np.zeros(0)
        return np.concatenate([self.blocks[n] for n in self.nodes])


@dataclass(frozen=True)
class BlockMatrix:
    """Sparse-by-blocks matrix between two tree node sets.

    ``blocks`` maps ``(row_node, col_node)`` to a dense block; missing
    pairs are zero.  All stored blocks share one shape.
    """

    tree: ScenarioTree
    row_nodes: tuple
    col_nodes: tuple
    blocks: dict
    shape_block: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "row_nodes", tuple(self.row_nodes))
        object.__setattr__(self, "col_nodes", tuple(self.col_nodes))
        rows, cols = set(self.row_nodes), set(self.col_nodes)
        blocks = {}
        shape = None
        for (i, j), blk in self.blocks.items():
            if i not in rows or j not in cols:
                raise TreeError(f"block ({i}, {j}) outside declared node sets")
            b = np.atleast_2d(np.array(blk, dtype=float))
            if shape is None:
                shape = b.shape
            elif b.shape != shape:
                raise TreeError("stored blocks have differing shapes")
            b.setflags(write=False)
            blocks[(i, j)] = b
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "shape_block", shape if shape else (0, 0))

    @classmethod
    def identity(cls, tree, nodes, dim):
        return cls(
            tree, tuple(nodes), tuple(nodes), {(n, n): np.eye(dim) for n in nodes}
        )

    def transpose(self):
        return BlockMatrix(
            self.tree,
            self.col_nodes,
            self.row_nodes,
            {(j, i): blk.T for (i, j), blk in self.blocks.items()},
        )

    def scaled(self, alpha):
        return BlockMatrix(
            self.tree,
            self.row_nodes,
            self.col_nodes,
            {key: alpha * blk for key, blk in self.blocks.items()},
        )

    def add(self, other):
        if self.row_nodes != other.row_nodes or self.col_nodes != other.col_nodes:
            raise TreeError("block matrix node sets differ")
        out = dict(self.blocks)
        for key, blk in other.blocks.items():
            out[key] = out[key] + blk if key in out else blk
        return BlockMatrix(self.tree, self.row_nodes, self.col_nodes, out)

    def sub(self, other):
        return self.add(other.scaled(-1.0))

    def matmul(self, other):
        """Block product; column nodes must equal the factor's row nodes."""
        if self.col_nodes != other.row_nodes:
            raise TreeError("inner node sets differ in block product")
        by_row = {}
        for (i, m), blk in self.blocks.items():
            by_row.setdefault(i, []).append((m, blk))
        out = {}
        cols_of = {}
        for (m, j), blk in other.blocks.items():
            cols_of.setdefault(m, []).append((j, blk))
        for i, left_entries in by_row.items():
            for m, lblk in left_entries:
                for j, rblk in cols_of.get(m, ()):
                    key = (i, j)
                    prod = lblk @ rblk
                    out[key] = out[key] + prod if key in out else prod
        return BlockMatrix(self.tree, self.row_nodes, other.col_nodes, out)

    def apply(self, v):
        """Matrix-vector action; returns a BlockVector on the row nodes."""
        if tuple(v.nodes) != self.col_nodes:
            raise TreeError("vector node set differs from matrix columns")
        nr = self.shape_block[0] if self.blocks else v.dim
        out = {n: np.zeros(nr) for n in self.row_nodes}
        for (i, j), blk in self.blocks.items():
            out[i] = out[i] + blk @ v.blocks[j]
        return BlockVector(self.tree, self.row_nodes, out)

    def sparse(self, scaling=None):
        """Assembled sparse (CSR) matrix; ``scaling(i, j)`` multiplies each
        block."""
        nr, nc = self.shape_block
        rpos = {n: a for a, n in enumerate(self.row_nodes)}
        cpos = {n: b for b, n in enumerate(self.col_nodes)}
        a = np.array([rpos[i] for i, _ in self.blocks], dtype=int)
        b = np.array([cpos[j] for _, j in self.blocks], dtype=int)
        f = [1.0 if scaling is None else scaling(*key) for key in self.blocks]
        blocks = np.reshape(f, (-1, 1, 1)) * np.reshape(
            list(self.blocks.values()), (len(a), nr, nc)
        )
        m, r, c = np.nonzero(blocks)
        return sp.csr_matrix(
            (blocks[m, r, c], (a[m] * nr + r, b[m] * nc + c)),
            shape=(nr * len(rpos), nc * len(cpos)),
        )

    def dense(self, scaling=None):
        """Assembled dense matrix; ``scaling(i, j)`` multiplies each block."""
        return self.sparse(scaling).toarray()


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
    V = v.stacked().reshape(len(v.nodes), v.dim)
    return float(stage_moments(v.tree.pi[list(v.nodes)], V, np.zeros(len(V)), 0)[0])


def stage_perturbation_moments(tree):
    """Per-stage {E[||p_t||^2]}^{1/2} by exact weighted enumeration.

    Returns ``{t: weighted norm of the stage-t perturbation blocks}`` with
    the unshifted perturbations p = (q, r, d).
    """
    m = stage_moments(tree.pi, tree.arrays.p, tree.stage, tree.horizon)
    return dict(enumerate(m.tolist()))


def _block_norm(M4, f):
    """Spectral norm of the block array ``M4[a, :, b, :]`` with block
    ``(a, b)`` scaled by ``f[a, b]``: the root of the largest eigenvalue
    of the Gram matrix on the smaller side."""
    if M4.size == 0:
        return 0.0
    a, r, b, c = M4.shape
    M = (M4 * f[:, None, :, None]).reshape(a * r, b * c)
    gram = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def _lanczos(A, **kw):
    """One extreme eigenvalue ``eigsh(A, k=1, **kw)`` of a symmetric
    operator.

    The start is a fixed-seed random vector (``np.ones`` can be orthogonal
    to the wanted eigenvector) and ``tol=0`` iterates to working
    precision, so reruns are bit-identical.  The zero operator, whose
    start ARPACK refuses, has eigenvalue 0.0; ARPACK needs ``k < n``, so an
    order-1 operator is read off its one entry.
    """
    n = A.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    Av = A @ v0
    if not np.any(Av):
        return 0.0
    if n == 1:
        return float((A @ np.ones(1))[0])
    return float(
        spla.eigsh(A, k=1, v0=v0, tol=0, return_eigenvectors=False, **kw)[0]
    )


def pi_norm_mat(M):
    """Operator norm induced by :func:`pi_norm_vec`.

    Equals the spectral norm after rescaling each block by
    ``sqrt(pi_row / pi_col)``; the formula is applied verbatim to every
    block regardless of how the two nodes relate in the tree.  The
    rescaled matrix stays sparse; its squared norm is the largest
    eigenvalue of its Gram operator on the smaller side.
    """
    pi = M.tree.pi
    S = M.sparse(lambda i, j: math.sqrt(pi[i] / pi[j]))
    op = spla.aslinearoperator(S if S.shape[0] >= S.shape[1] else S.T)
    return math.sqrt(_lanczos(op.T @ op, which="LA"))


def stage_norm(pi, blocks, rows, cols):
    """:func:`pi_norm_mat` of a matrix with one block per row or per column.

    Block m is ``blocks[m]`` at row node ``rows[m]`` and column node
    ``cols[m]``.  With one block per row, ``M'M`` (rescaled) is block
    diagonal over the columns:
    ``||M||^2 = max_c lambda_max(sum_{i: c(i) = c} (pi_i / pi_c) M_ic' M_ic)``.
    With one block per column, ``M M'`` is block diagonal over the rows,
    with the same weights.  Groups are formed from the node indices, so
    neither set needs to be sorted or contiguous.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    if np.unique(rows).size == rows.size:
        group, gram = cols, blocks.transpose(0, 2, 1) @ blocks
    elif np.unique(cols).size == cols.size:
        group, gram = rows, blocks @ blocks.transpose(0, 2, 1)
    else:
        raise TreeError("stage matrix has neither one block per row nor per column")
    keys, slot = np.unique(group, return_inverse=True)
    G = np.zeros((keys.size,) + gram.shape[1:])
    np.add.at(G, slot, (pi[rows] / pi[cols])[:, None, None] * gram)
    return math.sqrt(max(float(np.linalg.eigvalsh(G)[:, -1].max()), 0.0))


def sigma_pi(M):
    """Largest singular value of the probability-desensitized form.

    Rescales each block by ``(pi_row * pi_col)^{-1/2}`` before taking the
    spectral norm; symmetric in transposition.
    """
    pi_r, pi_c = M.tree.pi[list(M.row_nodes)], M.tree.pi[list(M.col_nodes)]
    M4 = M.dense().reshape(pi_r.size, M.shape_block[0], pi_c.size, M.shape_block[1])
    return _block_norm(M4, 1.0 / np.sqrt(pi_r[:, None] * pi_c[None, :]))


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
    expected = [
        j
        for j in tree.stage_nodes(t)
        if tree.is_ancestor(k, j)
    ]
    if set(v.nodes) != set(expected):
        raise TreeError(
            f"vector nodes do not match stage-{t} slice of subtree at {k}"
        )
    lhs = pi_norm_vec(v)
    cond = [
        (tree.pi[j] / tree.pi[k]) * float(v.blocks[j] @ v.blocks[j])
        for j in v.nodes
    ]
    rhs = math.sqrt(tree.pi[k]) * math.sqrt(math.fsum(cond))
    return lhs, rhs, abs(lhs - rhs)
