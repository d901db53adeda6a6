"""Shared fixture factories for the test suite."""

import ast
from types import SimpleNamespace

import numpy as np

from spc_lab import Blocks, GainCertificate, build_tree_explicit, build_tree_stagewise
from spc_lab.problem_io import SIDECAR

FIELDS = ("A", "B", "d", "Q", "R", "q", "r")


def sidecar_of(path):
    """The array sidecar that ``save_problem`` writes beside ``path``."""
    return path.with_name(path.name + SIDECAR)


def node_data(A, B, d, Q, R, q, r):
    """One node's seven fields as float arrays, read by attribute."""
    values = (A, B, d, Q, R, q, r)
    return SimpleNamespace(**{f: np.array(v, dtype=float) for f, v in zip(FIELDS, values)})


def stack(rows):
    """The fields of ``rows`` stacked over the rows, as the builders take them."""
    return {f: np.array([getattr(nd, f) for nd in rows], dtype=float) for f in FIELDS}


def node_stack(tree, rows):
    """The ``{node: matrix}`` mapping ``rows`` stacked over all nodes of
    ``tree``, zero matrices at the nodes it leaves out."""
    shape = np.shape(next(iter(rows.values())))
    out = np.zeros((tree.node_count,) + shape)
    for n, mat in rows.items():
        out[n] = mat
    return out


def blocks_of(literal):
    """The ``{(i, j): block}`` literal as one :class:`Blocks` stack in the
    literal's order; an empty literal holds no blocks, of shape (0, 0)."""
    rows, cols = (np.array([key[a] for key in literal], dtype=int) for a in (0, 1))
    values = np.array(list(literal.values()), dtype=float)
    return Blocks(rows, cols, values if literal else np.zeros((0, 0, 0)))


def gain_certificate(K, L=1.0, alpha=0.5, role="stabilizability"):
    """A certificate stacking the gains of the ``{node: gain}`` mapping ``K``
    in ascending node order."""
    nodes = sorted(K)
    return GainCertificate(nodes, np.array([K[n] for n in nodes], dtype=float), L, alpha, role)


def stagewise(per_stage):
    """Stagewise builder input from per-stage lists of (node data, prob)."""
    return [(stack([nd for nd, _ in outcomes]), [p for _, p in outcomes])
            for outcomes in per_stage]


def nd_scalar(A=1.0, B=1.0, d=0.0, Q=1.0, R=1.0, q=0.0, r=0.0):
    """Scalar-system node data from plain floats."""
    return node_data(A=[[A]], B=[[B]], d=[d], Q=[[Q]], R=[[R]], q=[q], r=[r])


def uniform_outcome(nd, prob_splits):
    """Stagewise builder input that reuses one node's data everywhere."""
    return stagewise([[(nd, p) for p in probs] for probs in prob_splits])


def random_node_data(rng, nx, nu, spread=0.4):
    """Well-posed random node data: Q PSD, R PD, moderate dynamics."""
    A = spread * rng.standard_normal((nx, nx))
    B = spread * rng.standard_normal((nx, nu))
    Mq = rng.standard_normal((nx, nx))
    Q = 0.5 * (Mq @ Mq.T) / nx
    Mr = rng.standard_normal((nu, nu))
    R = np.eye(nu) + 0.5 * (Mr @ Mr.T) / nu
    return node_data(
        A=A,
        B=B,
        d=rng.standard_normal(nx),
        Q=Q,
        R=R,
        q=rng.standard_normal(nx),
        r=rng.standard_normal(nu),
    )


def random_tree(seed, T=3, branching=2, nx=2, nu=1, spread=0.4):
    """Random stagewise tree with distinct data and probabilities per stage.

    Stage 0 has a single outcome; later stages split ``branching`` ways with
    random positive probabilities summing to one.
    """
    return build_tree_stagewise(stagewise(random_stages(seed, T, branching, nx, nu, spread)))


def random_stages(seed, T=3, branching=2, nx=2, nu=1, spread=0.4):
    """The per-stage lists of (node data, prob) that :func:`random_tree` builds."""
    rng = np.random.default_rng(seed)
    stages = []
    for t in range(T + 1):
        if t == 0:
            probs = np.array([1.0])
        else:
            raw = rng.uniform(0.2, 1.0, size=branching)
            probs = raw / raw.sum()
        stages.append(
            [(random_node_data(rng, nx, nu, spread), float(p)) for p in probs]
        )
    return stages


def chain_tree(T, nd=None):
    """One-outcome chain of T + 1 nodes sharing one node's data."""
    nd = nd or nd_scalar(A=1.0, B=1.0, d=0.0, Q=1.0, R=1.0)
    return build_tree_explicit(
        list(range(-1, T)), list(range(T + 1)), [1.0] * (T + 1), stack([nd] * (T + 1))
    )


def unstable_chain(T):
    """Scalar chain with open-loop dynamics A = 2: maps that simulate the
    states forward grow like 2^T."""
    return chain_tree(T, nd_scalar(A=2.0, B=1.0, d=0.3, Q=1.0, R=1.0, q=0.5, r=-0.2))


def crossed_tree(rng):
    """Breadth-first tree whose stage-2 children are listed crosswise:
    node 1's child is node 4 and node 2's child is node 3."""
    return build_tree_explicit(
        [-1, 0, 0, 2, 1, 4, 3],
        [0, 1, 1, 2, 2, 3, 3],
        [1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
        stack([random_node_data(rng, 3, 2) for _ in range(7)]),
    )


def uneven_tree(rng):
    """Depth-3 tree with one, two and three children per node."""
    parents = [-1, 0, 0, 0, 1, 2, 2, 3, 3, 3, 4, 5, 5, 6, 7, 8, 8, 9]
    probs = [1.0, 0.2, 0.5, 0.3, 0.2, 0.3, 0.2, 0.1, 0.15, 0.05]
    probs += [0.2, 0.1, 0.2, 0.2, 0.1, 0.05, 0.1, 0.05]
    stages = [0] + [1] * 3 + [2] * 6 + [3] * 8
    data = stack([random_node_data(rng, 3, 2) for _ in parents])
    return build_tree_explicit(parents, stages, probs, data)


def depth_one_nonconvex_tree():
    """Binary depth-3 scalar tree whose last leaf has Q = -5: its parent
    (node 6) has depth-1 step matrix 1 + 0.5 * (-5) < 0, while every
    depth-0 step matrix is R = 1, so window 0 runs and window 1 is refused."""
    good, bad = nd_scalar(A=0.9, B=1.0, d=0.1, q=0.2), nd_scalar(A=0.9, B=1.0, Q=-5.0)
    stages = [0, 1, 1, 2, 2, 2, 2] + [3] * 8
    return build_tree_explicit(
        [-1, 0, 0, 1, 1, 2, 2] + [3 + i // 2 for i in range(8)],
        stages,
        [0.5**t for t in stages],
        stack([good] * 14 + [bad]),
    )


def imported_modules(tree):
    """Every module an ``import`` statement or an ``import_module`` /
    ``__import__`` call with a literal name brings in; relative imports
    keep their leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            arg = node.args[0]
            if name in ("import_module", "__import__") and isinstance(arg, ast.Constant):
                yield str(arg.value)
