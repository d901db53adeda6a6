"""Finite-support scenario trees: data model, builders, structural queries.

A scenario tree is a rooted tree whose nodes carry linear-quadratic problem
data and strictly positive probabilities.  The root has probability one,
every leaf sits at the final stage, the probability of an interior node
equals the sum over its children, and node indices follow breadth-first
order from the root.  That ordering fixes the layout of every stacked
vector and matrix built downstream, so it is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

PROB_TOL = 1e-12
SYM_TOL = 1e-12
FIELDS = ("A", "B", "d", "Q", "R", "q", "r")


class TreeError(ValueError):
    """Inconsistent tree input.  Carries the full validation report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _check_dims(A, B, d, Q, R, q, r):
    """A TreeError unless the field shapes are one node's: A and Q
    (nx, nx), B (nx, nu), R (nu, nu), q and d (nx,), r (nu,)."""
    if len(d) != 1 or len(r) != 1:
        raise TreeError("q/r/d dimension mismatch")
    nx, nu = d[0], r[0]
    if A != (nx, nx) or B != (nx, nu):
        raise TreeError("A/B dimension mismatch")
    if Q != (nx, nx) or R != (nu, nu):
        raise TreeError("Q/R dimension mismatch")
    if q != (nx,):
        raise TreeError("q/r/d dimension mismatch")


def spectral_norms(M):
    """Spectral norm of each matrix of a ``(k, r, c)`` stack, without an SVD.

    Each matrix is divided by its largest |entry|, so that its Gram matrix
    on the smaller side neither overflows nor underflows, and the norm is
    that scale times the root of the Gram's top eigenvalue.  Orders 1 and
    2 take it in closed form: ``(a + c)/2 + hypot((a - c)/2, b)`` for the
    Gram ``[[a, b], [b, c]]``, evaluated as ``max(a, c) + b**2 / (|h| +
    hypot(h, b))`` with ``h = (a - c)/2``, which does not cancel and is
    exact on diagonal input.  Larger orders take ``np.linalg.eigvalsh``.
    A matrix with an infinite entry has norm inf, one with a NaN entry NaN.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[1] < M.shape[2]:
        M = M.transpose(0, 2, 1)
    if not M.size:
        return np.zeros(len(M))
    # a copy with the stack axis last, so every reduction runs along it
    X = np.array(M.transpose(1, 2, 0), order="C")
    scale = np.abs(X).max(axis=(0, 1))
    ok = np.isfinite(scale) & (scale > 0.0)
    X[:, :, ~ok] = 0.0
    unit = np.where(ok, scale, 1.0)
    X /= unit
    if X.shape[1] == 1:
        top = (X[:, 0] * X[:, 0]).sum(axis=0)
    elif X.shape[1] == 2:
        x, y = X[:, 0], X[:, 1]
        a, b, c = (x * x).sum(axis=0), (x * y).sum(axis=0), (y * y).sum(axis=0)
        h = 0.5 * (a - c)
        # max(a, c) >= 1, so the denominator is 0 only where b is
        den = np.maximum(np.abs(h) + np.hypot(h, b), np.finfo(float).tiny)
        top = np.maximum(a, c) + b * b / den
    else:
        X = X.transpose(2, 0, 1)
        top = np.linalg.eigvalsh(X.transpose(0, 2, 1) @ X)[:, -1]
    return np.where(ok, unit * np.sqrt(top), scale)


def symmetry_defects(Q, R):
    """Per-node relative asymmetry ``max ||M - M'||_2 / max(1, ||M||_2)``
    over ``M`` in Q and R, stacked along a leading node axis."""
    out = np.zeros(len(Q))
    for M in (Q, R):
        skew = np.flatnonzero((M != M.transpose(0, 2, 1)).any(axis=(1, 2)))
        M = M[skew]
        scale = np.maximum(1.0, spectral_norms(M))
        gap = spectral_norms(M - M.transpose(0, 2, 1))
        out[skew] = np.maximum(out[skew], gap / scale)
    return out


class NodeArrays(NamedTuple):
    """Node data stacked along a leading node axis, read-only.

    Node i's ``A, B, d`` define the transition into it from its parent's
    state-control pair, ``x = A x_parent + B u_parent + d``, and its
    ``Q, R, q, r`` its stage cost ``0.5 x'Qx + 0.5 u'Ru - q'x - r'u``.
    In ``tree.arrays``, ``Q`` and ``R`` hold the symmetric parts
    ``(M + M')/2``: quadratic forms only see those, and storing them keeps
    every assembled system exactly symmetric.  ``tree.raw_arrays`` holds
    the fields as given, which are what a problem file stores.
    """

    A: np.ndarray
    B: np.ndarray
    d: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    q: np.ndarray
    r: np.ndarray

    @property
    def p(self):
        """Stacked perturbations (q, r, d), one row per node."""
        return np.concatenate([self.q, self.r, self.d], axis=1)


def _frozen(arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def committed_pair(w_prev, tree=None):
    """The committed state-control pair ``(x, u)`` as read-only float64
    copies of the array-likes ``w_prev`` holds, so that the caller's arrays
    stay its own.  Given a tree, the pair's dims must match it."""
    x, u = _frozen([np.array(a, dtype=float) for a in w_prev])
    if tree is not None and (x.shape != (tree.nx,) or u.shape != (tree.nu,)):
        raise TreeError(
            f"committed pair dims ({x.shape}, {u.shape}) do not match tree "
            f"({tree.nx}, {tree.nu})"
        )
    return x, u


def predecessor_pairs(tree, x, u, w_prev):
    """Each node's predecessor pair, stacked as ``(N, nx)`` and ``(N, nu)``:
    its parent's rows of ``x`` and ``u``, or the committed pair ``w_prev``
    at the root."""
    x_init, u_init = committed_pair(w_prev, tree)
    root = (tree.parent < 0)[:, None]
    return np.where(root, x_init, x[tree.parent]), np.where(root, u_init, u[tree.parent])


class ScenarioTree:
    """Immutable scenario tree in breadth-first node order.

    ``parent[0] == -1`` marks the root.  The node data come as one
    :class:`NodeArrays` stack, which becomes ``raw_arrays`` and stays the
    one copy; ``nx`` and ``nu`` are read off it.  ``horizon`` is set at
    construction; ``children`` and the per-stage node lists are derived
    from ``parent`` and ``stage`` on first use.  Invariants are not
    enforced here; builders call :func:`validate_tree` and raise, while this
    constructor stays usable for assembling deliberately broken fixtures.
    """

    def __init__(self, parent, stage, pi, arrays):
        put = self.__dict__.__setitem__
        for name, value, kind in (("parent", parent, int), ("stage", stage, int),
                                  ("pi", pi, float)):
            arr = np.array(value, dtype=kind)
            arr.setflags(write=False)
            put(name, arr)
        put("raw_arrays", _frozen(arrays))
        put("horizon", int(self.stage.max()) if len(self.stage) else 0)

    def __setattr__(self, name, value):
        raise AttributeError(f"ScenarioTree is immutable: cannot set {name!r}")

    @property
    def node_count(self):
        return len(self.parent)

    @cached_property
    def arrays(self):
        """:class:`NodeArrays` of all nodes with Q and R symmetrized."""
        raw = self.raw_arrays
        Q, R = (0.5 * (M + M.transpose(0, 2, 1)) for M in (raw.Q, raw.R))
        return _frozen(raw._replace(Q=Q, R=R))

    @property
    def nx(self):
        return self.raw_arrays.d.shape[1]

    @property
    def nu(self):
        return self.raw_arrays.r.shape[1]

    @cached_property
    def children(self):
        """Children of each node in index order; a parent outside the
        tree has none."""
        n, parent = self.node_count, self.parent
        kid = 1 + np.flatnonzero((parent[1:] >= 0) & (parent[1:] < n))
        kid = kid[np.argsort(parent[kid], kind="stable")]
        cuts = [0, *np.cumsum(np.bincount(parent[kid], minlength=n)).tolist()]
        kid = kid.tolist()
        return tuple(tuple(kid[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))

    @cached_property
    def _by_stage(self):
        """Nodes of each stage 0..horizon, ascending, as read-only arrays;
        stages outside that range are dropped."""
        (order,) = _frozen((np.argsort(self.stage, kind="stable"),))
        cuts = np.searchsorted(self.stage[order], np.arange(self.horizon + 2))
        return [order[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

    @cached_property
    def ancestors(self):
        """``(N, T+1)`` table whose entry ``[j, t]`` is node j's stage-t
        ancestor (j itself at its own stage), -1 past j's stage; built
        stage by stage from ``parent``."""
        anc = np.full((self.node_count, self.horizon + 1), -1)
        for t, nodes in enumerate(self._by_stage):
            anc[nodes, :t] = anc[self.parent[nodes], :t]
            anc[nodes, t] = nodes
        anc.setflags(write=False)
        return anc

    def stage_nodes(self, t):
        """Nodes at stage t, in index (breadth-first) order, read-only."""
        return self._by_stage[t]

    def leaves(self):
        """Nodes without children, ascending, read-only."""
        n, parent = self.node_count, self.parent[1:]
        inner = np.zeros(n, dtype=bool)
        inner[parent[(parent >= 0) & (parent < n)]] = True
        return _frozen((np.flatnonzero(~inner),))[0]


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        return "valid" if self.ok else "; ".join(self.violations)


def validate_tree(tree):
    """Check every structural invariant and report all violations.

    Returns a :class:`ValidationReport`; the report is empty exactly when
    the tree is a valid stage-``horizon`` scenario tree in breadth-first
    order with finite, consistent probabilities and finite, symmetric
    node data.  Each check is a mask over the stacked arrays.
    """
    n = tree.node_count
    if n == 0:
        return ValidationReport(["empty tree"])
    parent, stage, pi, T = tree.parent, tree.stage, tree.pi, tree.horizon
    idx = np.arange(n)
    kid = (idx > 0) & (0 <= parent) & (parent < n)
    roots = (idx > 0) & (parent == -1)
    v = ["node 0 is not a root (parent != -1)"] if parent[0] != -1 else []
    _flag(v, (roots, lambda i: "multiple roots"),
          ((idx > 0) & ~roots & ~(kid & (parent < idx)),
           lambda i: f"parent {parent[i]} does not precede child"))
    v += ["root stage != 0"] if stage[0] != 0 else []
    _flag(v, (kid & (stage != stage[np.where(kid, parent, 0)] + 1),
              lambda i: f"stage {stage[i]} != parent stage + 1"),
          (np.r_[False, stage[1:] < stage[:-1]],
           lambda i: "order not breadth-first (stage decreases)"))
    with np.errstate(invalid="ignore"):
        if abs(pi[0] - 1.0) > PROB_TOL:
            v.append(f"root probability {pi[0]:.12g} != 1")
        finite = np.isfinite(pi)
        _flag(v, (~finite, lambda i: f"probability {pi[i]:.12g} is not finite"),
              (finite & (pi <= 0), lambda i: f"probability {pi[i]:.12g} <= 0"))
        # children sums add in index order, as a running sum does
        sums = np.bincount(parent[kid], weights=pi[kid], minlength=n)
        kids = np.bincount(parent[kid], minlength=n) > 0
        _flag(v, (kids & (abs(sums - pi) > PROB_TOL), lambda i: f"children sum "
                  f"{sums[i]:.12g} != parent probability {pi[i]:.12g}"),
              (~kids & (stage != T),
               lambda i: f"leaf at wrong stage {stage[i]} (expected {T})"))
    _flag(v, *_data_checks(tree))
    return ValidationReport(v)


def _flag(v, *checks):
    """Append ``node i: text(i)`` for each ``(mask, text)`` check that flags
    node i: flagged nodes in order, each node's checks in the given order."""
    for i in np.flatnonzero(np.any([mask for mask, _ in checks], axis=0)):
        v.extend(f"node {i}: {text(i)}" for mask, text in checks if mask[i])


def _data_checks(tree):
    """Node data checks, exclusive per node: non-finite fields, then
    asymmetric Q or R."""
    raw = tree.raw_arrays
    bad = np.array([~np.isfinite(a.reshape(len(a), -1)).all(1) for a in raw]).T
    ok = ~bad.any(axis=1)
    defect = np.zeros(tree.node_count)
    defect[ok] = symmetry_defects(raw.Q[ok], raw.R[ok])
    return (
        (~ok, lambda i: "non-finite entries in "
         + ", ".join(f for f, b in zip(FIELDS, bad[i]) if b)),
        (ok & (defect > SYM_TOL), lambda i: f"Q or R not symmetric within {SYM_TOL:g}"),
    )


def _checked(tree):
    report = validate_tree(tree)
    if not report.ok:
        raise TreeError(str(report), report)
    return tree


def build_tree_stagewise(per_stage_outcomes):
    """Product tree for stagewise-independent uncertainty.

    Parameters
    ----------
    per_stage_outcomes : list over stages 0..T of ``(fields, probs)``
        ``fields`` maps each of the seven node fields to the stage's
        outcomes stacked along a leading axis, and ``probs`` holds their
        probabilities.  Stage 0 must hold exactly one outcome (the root
        realization is observed); each later stage's probabilities must be
        positive and sum to one within 1e-12.

    Returns
    -------
    ScenarioTree in which each stage-t node has one child per stage-(t+1)
    outcome, in outcome order, and a node's probability is the product of
    branch probabilities along its root path.  It is built by repeating
    and tiling the parents, probabilities and outcome rows of each stage.
    """
    if not per_stage_outcomes:
        raise TreeError("empty stage list")
    probs = [np.asarray(p, dtype=float) for _, p in per_stage_outcomes]
    if len(probs[0]) != 1:
        raise TreeError(f"stage 0 must have exactly one outcome, got {len(probs[0])}")
    for t, p in enumerate(probs):
        if not len(p):
            raise TreeError(f"stage {t}: no outcomes")
        s = sum(p.tolist())
        if (p <= 0).any():
            raise TreeError(f"stage {t}: nonpositive outcome probability")
        if abs(s - 1.0) > PROB_TOL:
            raise TreeError(f"stage {t}: outcome probabilities sum {s:.12g} != 1")
    try:  # every stage's outcomes in one stack per field
        pool = NodeArrays(*(np.concatenate(
            [np.asarray(fields[f], dtype=float) for fields, _ in per_stage_outcomes])
            for f in FIELDS))
    except ValueError:
        raise TreeError("outcome data dims differ between stages") from None
    sizes = [len(p) for p in probs]
    if {len(arr) for arr in pool} != {sum(sizes)}:
        raise TreeError("outcome fields and probabilities have mismatched lengths")
    _check_dims(*(arr.shape[1:] for arr in pool))
    first = np.cumsum([0] + sizes)  # pool row of each stage's first outcome
    parent, take, pi, start = [[-1]], [[0]], [np.ones(1)], 0
    for t in range(1, len(sizes)):
        width, k = len(pi[-1]), sizes[t]
        parent.append(start + np.repeat(np.arange(width), k))
        take.append(first[t] + np.tile(np.arange(k), width))
        pi.append(np.repeat(pi[-1], k) * np.tile(probs[t], width))
        start += width
    stage = np.repeat(np.arange(len(sizes)), [len(p) for p in pi])
    rows = np.concatenate(take)
    arrays = NodeArrays(*(arr[rows] for arr in pool))
    return _checked(ScenarioTree(np.concatenate(parent), stage, np.concatenate(pi), arrays))


def build_tree_explicit(parents, stage_labels, probabilities, node_data):
    """General tree from parallel arrays in breadth-first order.

    Covers arbitrary dependence structures (for example Markov-modulated
    data) that the stagewise product builder cannot express.  Parent
    indices must precede their children; all invariants are validated and
    a :class:`TreeError` carrying the report is raised on any violation.

    ``node_data`` maps each of the seven fields to its values stacked over
    nodes.  The stack becomes ``tree.raw_arrays`` without a copy (its
    arrays turn read-only) after one shape check.
    """
    node_data = NodeArrays(*(np.asarray(node_data[f], float) for f in FIELDS))
    n = len(parents)
    if {len(stage_labels), len(probabilities), *map(len, node_data)} != {n}:
        raise TreeError("parents/stages/probs/nodes arrays have mismatched lengths")
    if n == 0:
        raise TreeError("empty tree")
    _check_dims(*(arr.shape[1:] for arr in node_data))
    return _checked(ScenarioTree(parents, stage_labels, probabilities, node_data))


def subtree_nodes(tree, k, W):
    """Nodes of the depth-W subtree rooted at k, ascending, read-only.

    The window is capped at the final stage, so the effective depth is
    ``min(W, horizon - stage(k))``.  Node ids are stage-major, so the
    ascending order is breadth-first and each stage is a contiguous run:
    the nodes are those from k to the window's last stage whose
    ``tree.ancestors`` entry at k's stage is k.
    """
    if not 0 <= k < tree.node_count:
        raise TreeError(f"node {k} out of range")
    if W < 0:
        raise TreeError("window W must be >= 0")
    s = int(tree.stage[k])
    end = np.searchsorted(tree.stage, s + W, side="right")
    return _frozen((k + np.flatnonzero(tree.ancestors[k:end, s] == k),))[0]
