"""File formats: problem JSON, certificate JSON, CSV reports, manifests.

All emitters format floats with shortest round-trip ``repr`` and sort
JSON keys, so identical inputs produce byte-identical files.  No file
carries a timestamp.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .stability import GainCertificate
from .tree import (
    InitialCondition,
    NodeArrays,
    NodeData,
    TreeError,
    build_tree_explicit,
    build_tree_stagewise,
)

_FIELDS = NodeArrays._fields


def _matrix(obj, name):
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise TreeError(f"field {name} is not numeric: {exc}") from exc
    return arr


def json_object(obj, name):
    """``obj`` itself when it is a JSON object; a :class:`TreeError`
    naming the block otherwise, before any field is looked up in it."""
    if not isinstance(obj, dict):
        raise TreeError(f"{name} must be a JSON object")
    return obj


def json_array(obj, name):
    """``obj`` itself when it is a JSON array; a :class:`TreeError`
    naming the block otherwise, before it is iterated."""
    if not isinstance(obj, list):
        raise TreeError(f"{name} must be a JSON array")
    return obj


def _node_data(obj, where, extra=()):
    json_object(obj, where)
    missing = [k for k in (*_FIELDS, *extra) if k not in obj]
    if missing:
        raise TreeError(f"{where} missing fields {missing}")
    return NodeData(**{f: _matrix(obj[f], f) for f in _FIELDS})


def _explicit_nodes(nodes):
    """NodeData as read-only rows of the seven fields, each stacked by one
    ``np.array`` call.  Nodes that do not stack are read one by one, which
    raises the first fault's message (differing dims: tree validation)."""
    try:
        stack = {f: np.array([o[f] for o in nodes], dtype=float) for f in _FIELDS}
    except (KeyError, TypeError, ValueError):
        return [_node_data(o, f"node {i}") for i, o in enumerate(nodes)]
    for arr in stack.values():
        arr.setflags(write=False)
    return [
        NodeData(**{f: arr[i] for f, arr in stack.items()}) for i in range(len(nodes))
    ]


def load_problem(path):
    """Read a problem file.

    Returns (tree, initial, assumption) where ``assumption`` is the
    optional dict of claimed constants {L, alpha, gamma} or None.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TreeError(f"problem file is not valid JSON: {exc}") from exc
    json_object(doc, "problem file")
    for key in ("dims", "horizon", "initial"):
        if key not in doc:
            raise TreeError(f"problem file missing '{key}'")
    dims = json_object(doc["dims"], "dims block")
    if "nx" not in dims or "nu" not in dims:
        raise TreeError("dims must contain nx and nu")
    if "stagewise" in doc:
        stages = [
            [
                (
                    _node_data(o, f"stage {t} outcome {i}", ("prob",)),
                    float(o["prob"]),
                )
                for i, o in enumerate(json_array(outcomes, f"stage {t}"))
            ]
            for t, outcomes in enumerate(
                json_array(doc["stagewise"], "stagewise block")
            )
        ]
        tree = build_tree_stagewise(stages)
    elif "explicit" in doc:
        ex = json_object(doc["explicit"], "explicit block")
        for key in ("parents", "stages", "probs", "nodes"):
            if key not in ex:
                raise TreeError(f"explicit block missing '{key}'")
            json_array(ex[key], f"explicit '{key}'")
        tree = build_tree_explicit(
            ex["parents"],
            ex["stages"],
            [float(p) for p in ex["probs"]],
            _explicit_nodes(ex["nodes"]),
        )
    else:
        raise TreeError("problem file needs a 'stagewise' or 'explicit' block")
    if tree.nx != int(dims["nx"]) or tree.nu != int(dims["nu"]):
        raise TreeError(
            f"declared dims ({dims['nx']}, {dims['nu']}) do not match node "
            f"data ({tree.nx}, {tree.nu})"
        )
    if tree.horizon != int(doc["horizon"]):
        raise TreeError(
            f"declared horizon {doc['horizon']} does not match tree depth "
            f"{tree.horizon}"
        )
    init = json_object(doc["initial"], "initial block")
    if "x_prev" not in init or "u_prev" not in init:
        raise TreeError("initial block must contain x_prev and u_prev")
    initial = InitialCondition(
        _matrix(init["x_prev"], "x_prev"), _matrix(init["u_prev"], "u_prev")
    )
    initial.check(tree)
    assumption = None
    if "assumption" in doc:
        blk = json_object(doc["assumption"], "assumption block")
        for key in ("L", "alpha", "gamma"):
            if key not in blk:
                raise TreeError(f"assumption block missing '{key}'")
        assumption = {
            "L": float(blk["L"]),
            "alpha": float(blk["alpha"]),
            "gamma": float(blk["gamma"]),
        }
    return tree, initial, assumption


def _listify(arr):
    return np.asarray(arr, dtype=float).tolist()


def save_problem(path, tree, initial, assumption=None):
    """Write a problem file in explicit form (one record per node)."""
    doc = {
        "dims": {"nx": tree.nx, "nu": tree.nu},
        "horizon": tree.horizon,
        "explicit": {
            "parents": [int(p) for p in tree.parent],
            "stages": [int(t) for t in tree.stage],
            "probs": [float(p) for p in tree.pi],
            "nodes": [
                {
                    "A": _listify(nd.A),
                    "B": _listify(nd.B),
                    "d": _listify(nd.d),
                    "Q": _listify(nd.Q),
                    "R": _listify(nd.R),
                    "q": _listify(nd.q),
                    "r": _listify(nd.r),
                }
                for nd in tree.data
            ],
        },
        "initial": {
            "x_prev": _listify(initial.x_prev),
            "u_prev": _listify(initial.u_prev),
        },
    }
    if assumption is not None:
        doc["assumption"] = {k: float(assumption[k]) for k in ("L", "alpha", "gamma")}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_certificate(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TreeError(
                f"certificate file is not valid JSON: {exc}"
            ) from exc
    json_object(doc, "certificate file")
    for key in ("K", "L", "alpha"):
        if key not in doc:
            raise TreeError(f"certificate file missing '{key}'")
    gains = json_object(doc["K"], "certificate 'K' block")
    K = {int(node): _matrix(mat, f"K[{node}]") for node, mat in gains.items()}
    return GainCertificate(
        K=K,
        L=float(doc["L"]),
        alpha=float(doc["alpha"]),
        role=doc.get("role", "stabilizability"),
    )


def save_certificate(path, cert):
    doc = {
        "role": cert.role,
        "L": float(cert.L),
        "alpha": float(cert.alpha),
        "K": {str(n): _listify(mat) for n, mat in sorted(cert.K.items())},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x):
    return repr(float(x))


def write_trace_csv(path, tree, x, u, summary):
    """Per-node committed pairs plus a '#'-prefixed summary line.

    ``summary`` is an ordered mapping of labels to floats, appended as
    a single comment row ``# key=value,...``.
    """
    nx, nu = tree.nx, tree.nu
    header = (
        ["node", "stage", "parent", "pi"]
        + [f"x[{i}]" for i in range(nx)]
        + [f"u[{i}]" for i in range(nu)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for n in range(tree.node_count):
            writer.writerow(
                [n, int(tree.stage[n]), int(tree.parent[n]), _fmt(tree.pi[n])]
                + [_fmt(v) for v in x[n]]
                + [_fmt(v) for v in u[n]]
            )
        fh.write(
            "# " + ",".join(f"{k}={_fmt(v)}" for k, v in summary.items()) + "\n"
        )


def write_path_values_csv(path, tree, path_values, summary):
    """Per-scenario optimal values of the clairvoyant baseline."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["leaf", "pi", "J_path"])
        for leaf in sorted(path_values):
            writer.writerow([leaf, _fmt(tree.pi[leaf]), _fmt(path_values[leaf])])
        fh.write(
            "# " + ",".join(f"{k}={_fmt(v)}" for k, v in summary.items()) + "\n"
        )


def write_regret_csv(path, report):
    """Sweep rows (W, J_W, J_star, regret, bound, applies, Wbar, rho)."""
    c = report.constants
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["W", "J_W", "J_star", "regret", "bound", "applies", "Wbar", "rho"]
        )
        for row in report.details["rows"]:
            writer.writerow(
                [
                    row["W"],
                    _fmt(row["J_W"]),
                    _fmt(row["J_star"]),
                    _fmt(row["regret"]),
                    _fmt(row["bound"]),
                    "true" if row["applies"] else "false",
                    _fmt(c.W_bar),
                    _fmt(c.rho),
                ]
            )
        fh.write(
            f"# slope={_fmt(report.details['slope'])},"
            f"log_rho={_fmt(report.details['log_rho'])},"
            f"passed={'true' if report.passed else 'false'}\n"
        )


def write_decay_csv(path, rows, constants):
    """Stage-pair solution-map norms with the decay envelope column."""
    c1, rho = constants.c1, constants.rho
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "tprime", "psi_norm", "omega_norm", "bound"])
        for row in rows:
            bound = 0.0 if c1 == 0.0 else c1 * rho ** abs(row.t - row.tprime)
            writer.writerow(
                [
                    row.t,
                    row.tprime,
                    _fmt(row.psi_norm),
                    _fmt(row.omega_norm),
                    _fmt(bound),
                ]
            )


def write_moments_csv(path, kinds):
    """Stage moments against envelopes; ``kinds`` maps a label to a
    BoundReport whose point indices are stages (or (node, stage))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "measured", "envelope", "kind"])
        for kind in sorted(kinds):
            for p in kinds[kind].points:
                t = p.index[-1] if isinstance(p.index, tuple) else p.index
                writer.writerow([t, _fmt(p.measured), _fmt(p.bound), kind])


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer, int, str, bool)) or value is None:
        return int(value) if isinstance(value, np.integer) else value
    return repr(value)


def constants_dict(constants):
    """ConstantsBundle as a JSON-ready mapping (inf/nan as strings)."""
    out = {}
    for name in constants.__dataclass_fields__:
        out[name] = _json_safe(getattr(constants, name))
    return out


def write_manifest(path, payload):
    """Reproducible run manifest: sorted keys, no timestamps."""
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
