"""File formats: problem JSON, certificate JSON, CSV reports, manifests.

All emitters format floats with shortest round-trip ``repr`` and sort
JSON keys, so identical inputs produce byte-identical files.  No file
carries a timestamp.

Report contract: every CSV report is written by :func:`_write_csv`, a
header row, then one line per row, then at most one last line
``# key=value,...``.  Each cell and each value of such a line is the text
:func:`_cell` gives: ``true``/``false`` for a boolean, the digits of an
integer (numpy's too), ``repr(float(v))`` for any other number (so
``inf``, ``-inf`` and ``nan``) and a string as it is.  These are the bytes
``csv.writer(lineterminator="\n")`` writes for the same texts, since none
holds a comma, a quote or a line break.  The CLI's stdout summaries are
the same pairs, by :func:`key_values`, joined by spaces.

Writer contract: a problem or certificate file holds exactly the bytes
of ``json.dump(doc, fh, indent=2, sort_keys=True)`` and a newline.  Node
records (and gains) fill a text template made once per shape with
numbers from the C encoder, and are streamed ``_BATCH`` at a time.

Beside a problem file, and only after the file is complete,
:func:`save_problem` writes its sidecar ``<problem>.json.arrays``: a tag,
the SHA-256 of the problem file's bytes as its key, the SHA-256 of its
own payload, then the payload, consecutive ``np.save`` records of the
arrays the loader builds the tree and the committed pair from.  The
sidecar is derived: the JSON stays the canonical file, and deleting the
sidecar only makes the next load parse the JSON.  A load takes the arrays
only when the key matches the file's bytes and the payload reads back
whole, without unpickling anything; a file edited after it was written
therefore loads from its JSON.  Only :func:`save_problem` writes a
sidecar; no read-only command creates, rewrites or deletes one.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import json
import math
import os
import re
from itertools import chain

import numpy as np

from .stability import GainCertificate
from .tree import (
    NodeArrays,
    TreeError,
    _check_dims,
    build_tree_explicit,
    build_tree_stagewise,
    committed_pair,
)

_FIELDS = NodeArrays._fields


def _matrix(obj, name):
    """``obj`` as a float array; a TreeError naming field ``name`` when an
    entry is neither a 64-bit JSON number nor null (read as NaN) or the
    entries do not stack."""
    for v in _entries(obj):
        if v is not None and not _is_number(v):
            raise TreeError(f"field {name} is not numeric: {json.dumps(v)} is not a 64-bit number")
    try:
        return np.array(obj, dtype=float)
    except ValueError as exc:
        raise TreeError(f"field {name} is not numeric: {exc}") from exc


def _entries(obj):
    """The values nested in ``obj`` that are not arrays, in text order."""
    todo = [obj]
    while todo:
        v = todo.pop()
        if type(v) is list:
            todo.extend(reversed(v))
        else:
            yield v


def _stacked(values):
    """``values`` as one float array of shape ``(len(values), ...)``, made
    by one flat conversion: each value must have the first one's nesting
    and lengths and hold only 64-bit JSON numbers, or a ValueError says
    that it does not."""
    shape, level = [len(values)], values
    while (kinds := set(map(type, level))) == {list}:
        lengths = set(map(len, level))
        if len(lengths) != 1:
            raise ValueError("lengths differ")
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    if not kinds <= {int, float} or (int in kinds and not all(map(_is_number, level))):
        raise ValueError("not all entries are 64-bit numbers")
    return np.fromiter(level, float, len(level)).reshape(shape)


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


def _node_data(obj, where, prob=False):
    """One node record (with its ``prob`` when asked) as checked float
    arrays; a TreeError at the record's first fault, which names the
    record as ``where`` unless it is a field that is not numeric."""
    keys = (*_FIELDS, "prob") if prob else _FIELDS
    json_object(obj, where)
    missing = [k for k in keys if k not in obj]
    if missing:
        raise TreeError(f"{where} missing fields {missing}")
    row = {f: _matrix(obj[f], f) for f in _FIELDS}
    try:
        _check_dims(*(a.shape for a in row.values()))
    except TreeError as exc:
        raise TreeError(f"{where}: {exc}") from None
    if prob:
        row["prob"] = _number(obj["prob"], f"{where}: probability")
    return row


def _node_records(records, where, prob=False):
    """The seven node fields of ``records`` (and ``prob`` when asked), each
    stacked by :func:`_stacked`.  Records that do not stack into one node's
    shapes are read one by one by :func:`_node_data`, which raises the
    first fault naming the record as ``where(i)``; so does a record whose
    dims differ from the first record's."""
    keys = (*_FIELDS, "prob") if prob else _FIELDS
    try:
        stack = {k: _stacked([o[k] for o in records]) for k in keys}
        _check_dims(*(stack[f].shape[1:] for f in _FIELDS))
        if not prob or stack["prob"].ndim == 1:
            return stack
    except (KeyError, TypeError, ValueError):
        pass
    rows = []
    for i, o in enumerate(records):
        rows.append(_node_data(o, where(i), prob))
        dims = [(len(r["d"]), len(r["r"])) for r in (rows[-1], rows[0])]
        if dims[0] != dims[1]:
            raise TreeError(f"{where(i)}: data dims {dims[0]} != {dims[1]}")
    return {k: np.array([r[k] for r in rows], dtype=float) for k in keys}


def _is_number(v, kinds=(int, float)):
    """Whether ``v`` is a JSON value of ``kinds`` (a boolean is neither) and,
    when an integer, fits 64 bits."""
    return type(v) in kinds and (type(v) is not int or -2**63 <= v < 2**63)


def _number(v, where, finite=False, kind=float):
    """``v`` as a ``kind`` when it is a 64-bit JSON number of that kind
    (float: any number; int: an integer, not a boolean), and ``finite``
    when asked; a TreeError naming ``where`` otherwise."""
    kinds = (int,) if kind is int else (int, float)
    if not _is_number(v, kinds) or finite and not math.isfinite(v):
        what = "finite number" if finite else "64-bit integer" if kind is int else "64-bit number"
        raise TreeError(f"{where} {json.dumps(v)} is not a {what}")
    return kind(v)


def _column(values, name, kind):
    """A per-node list of the explicit block as an array; a TreeError names
    the first entry that is not a JSON ``kind`` (int: an integer, not a
    boolean; float: any number) or is an integer beyond 64 bits."""
    kinds = (int,) if kind is int else (int, float)
    try:
        if set(map(type, values)) <= set(kinds):
            return np.array(values, dtype=np.int64 if kind is int else float)
    except OverflowError:
        pass
    i, v = next((i, v) for i, v in enumerate(values) if not _is_number(v, kinds))
    what = "integer" if kind is int else "number"
    raise TreeError(f"node {i}: {name} {json.dumps(v)} is not a 64-bit {what}")


def _gc_paused(load):
    """``load`` with cyclic garbage collection held off while it runs.  A
    parsed JSON document and the arrays and tree built from it hold no
    reference cycles, so a collection during a load only walks them: a
    problem load at T=10 (2047 nodes) spent about 17 ms of its 55 ms in
    collections (2 vCPU host)."""

    @functools.wraps(load)
    def paused(path):
        if not gc.isenabled():
            return load(path)
        gc.disable()
        try:
            return load(path)
        finally:
            gc.enable()

    return paused


@_gc_paused
def load_problem(path):
    """Read a problem file.

    Returns (tree, initial, assumption) where ``initial`` is the committed
    pair ``(x, u)`` of read-only float64 arrays and ``assumption`` the
    optional dict of claimed constants {L, alpha, gamma} or None.

    When a sidecar lies beside the file (see :func:`save_problem`) and
    reads back whole with the SHA-256 of the file's bytes as its key, the
    tree and the pair are built from its arrays; the file is then only
    hashed, a chunk at a time.  Otherwise the file's bytes are read and
    the JSON is parsed.  Both end in the same checks of the tree against
    the declared dims and horizon, of the initial pair and of the
    assumption.
    """
    with open(path, "rb") as fh:
        saved = _read_sidecar(os.fspath(path) + SIDECAR, fh)
        if saved is None:
            fh.seek(0)
            text = fh.read().decode()
    if saved is None:
        doc, (nx, nu, horizon) = _problem_head(text)
        del text  # no text held while the tree is built
        tree = _problem_tree(doc, horizon)
    else:
        (nx, nu, horizon), parents, stages, probs, x, u, assumed, *fields = saved
        tree = build_tree_explicit(parents, stages, probs, dict(zip(_FIELDS, fields)))
        doc = {"assumption": dict(zip(_ASSUMED, assumed.tolist()))} if assumed.size else {}
    if (tree.nx, tree.nu) != (nx, nu):
        raise TreeError(
            f"declared dims ({nx}, {nu}) do not match node data ({tree.nx}, {tree.nu})"
        )
    _check_depth(tree.horizon, horizon)
    initial = _checked_pair(_initial_pair(doc["initial"]) if saved is None else (x, u), tree)
    assumption = None
    if "assumption" in doc:
        blk = json_object(doc["assumption"], "assumption block")
        for key in _ASSUMED:
            if key not in blk:
                raise TreeError(f"assumption block missing '{key}'")
        assumption = {k: _number(blk[k], f"assumption {k}", finite=True) for k in _ASSUMED}
    return tree, initial, assumption


def _checked_pair(pair, tree):
    """The committed pair as a problem file holds it: dims of ``tree``,
    finite entries; a :class:`TreeError` otherwise."""
    initial = committed_pair(pair, tree)
    if not all(np.isfinite(a).all() for a in initial):
        raise TreeError("initial block: x_prev and u_prev must be finite")
    return initial


def _initial_pair(block):
    """The parsed initial block's ``(x_prev, u_prev)`` as float arrays."""
    init = json_object(block, "initial block")
    if "x_prev" not in init or "u_prev" not in init:
        raise TreeError("initial block must contain x_prev and u_prev")
    return _matrix(init["x_prev"], "x_prev"), _matrix(init["u_prev"], "u_prev")


_ASSUMED = ("L", "alpha", "gamma")


def _check_depth(depth, horizon):
    if depth != horizon:
        raise TreeError(f"declared horizon {horizon} does not match tree depth {depth}")


def _problem_head(text):
    """The problem file's parsed document and its declared (nx, nu,
    horizon); a TreeError when the text is not a JSON object holding
    them."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeError(f"problem file is not valid JSON: {exc}") from exc
    json_object(doc, "problem file")
    for key in ("dims", "horizon", "initial"):
        if key not in doc:
            raise TreeError(f"problem file missing '{key}'")
    dims = json_object(doc["dims"], "dims block")
    if "nx" not in dims or "nu" not in dims:
        raise TreeError("dims must contain nx and nu")
    nx, nu = (_number(dims[k], f"dims {k}", kind=int) for k in ("nx", "nu"))
    return doc, (nx, nu, _number(doc["horizon"], "horizon", kind=int))


def _problem_tree(doc, horizon):
    """The tree of a parsed problem document's stagewise or explicit block."""
    if "stagewise" in doc:
        stages = [json_array(outcomes, f"stage {t}") for t, outcomes
                  in enumerate(json_array(doc["stagewise"], "stagewise block"))]
        sizes = [len(outcomes) for outcomes in stages]
        names = [f"stage {t} outcome {i}" for t, k in enumerate(sizes) for i in range(k)]
        stack = _node_records(list(chain(*stages)), names.__getitem__, prob=True)
        split = {k: np.split(arr, np.cumsum(sizes)[:-1]) for k, arr in stack.items()}
        if sizes:  # before the product tree is built
            _check_depth(len(sizes) - 1, horizon)
        return build_tree_stagewise([
            ({f: split[f][t] for f in _FIELDS}, split["prob"][t]) for t in range(len(sizes))
        ])
    if "explicit" in doc:
        ex = json_object(doc["explicit"], "explicit block")
        for key in ("parents", "stages", "probs", "nodes"):
            if key not in ex:
                raise TreeError(f"explicit block missing '{key}'")
            json_array(ex[key], f"explicit '{key}'")
        return build_tree_explicit(
            _column(ex["parents"], "parent", int),
            _column(ex["stages"], "stage", int),
            _column(ex["probs"], "probability", float),
            _node_records(ex["nodes"], "node {}".format),
        )
    raise TreeError("problem file needs a 'stagewise' or 'explicit' block")


SIDECAR = ".arrays"  # a problem file's sidecar is its path plus this suffix
_SIDECAR_TAG = b"spc-lab problem arrays 1\n"
_DIGEST = 32  # bytes of a SHA-256 digest
# the sidecar's records in order and their dtypes: the declared (nx, nu,
# horizon), the explicit block's parents, stages and probabilities, the
# initial pair, the assumption (L, alpha, gamma; empty when the file has
# none) and the seven node fields
_RECORDS = (np.int64,) * 3 + (np.float64,) * (4 + len(_FIELDS))


def _digest(fh):
    """SHA-256 of the rest of the binary file ``fh``, read 256 kB at a time
    into one reused buffer, which a load's peak memory holds."""
    key, buf = hashlib.sha256(), bytearray(1 << 18)
    view = memoryview(buf)
    while size := fh.readinto(buf):
        key.update(view[:size])
    return key.digest()


def _read_sidecar(path, problem):
    """The records of the sidecar at ``path`` when it carries the tag and
    the SHA-256 of the open problem file ``problem`` as its key, its
    payload matches its own digest and holds exactly the records of
    :data:`_RECORDS`, none of them pickled; None otherwise.  The problem
    file is hashed only once the sidecar's tag has matched."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    head = len(_SIDECAR_TAG)
    start = head + 2 * _DIGEST
    key, digest = blob[head : head + _DIGEST], blob[head + _DIGEST : start]
    if (blob[:head] != _SIDECAR_TAG or key != _digest(problem)
            or digest != hashlib.sha256(memoryview(blob)[start:]).digest()):
        return None
    payload = io.BytesIO(blob)
    payload.seek(start)
    try:
        records = [np.lib.format.read_array(payload, allow_pickle=False) for _ in _RECORDS]
    except ValueError:
        return None
    if payload.read(1) or any(a.dtype != kind for a, kind in zip(records, _RECORDS)):
        return None
    return records


def _write_sidecar(path, tree, initial, assumption):
    """Write the sidecar of the problem file at ``path``, keyed by the
    SHA-256 of the file's bytes on disk; ``initial`` is the committed pair
    ``(x, u)``."""
    with open(path, "rb") as fh:
        key = _digest(fh)
    assumed = [] if assumption is None else [float(assumption[k]) for k in _ASSUMED]
    values = [(tree.nx, tree.nu, tree.horizon), tree.parent, tree.stage, tree.pi,
              *initial, assumed, *tree.raw_arrays]
    records = io.BytesIO()
    for value, kind in zip(values, _RECORDS):
        np.save(records, np.ascontiguousarray(value, dtype=kind), allow_pickle=False)
    payload = records.getbuffer()
    with open(path + SIDECAR, "wb") as fh:
        fh.write(_SIDECAR_TAG + key + hashlib.sha256(payload).digest())
        fh.write(payload)


_BATCH = 256  # node records (or gains) rendered and written at a time


def _numbers(arr):
    """JSON text of each number of ``arr``, row-major, from the C encoder."""
    values = np.ravel(arr).tolist()
    return json.dumps(values)[1:-1].split(", ") if values else []


def _template(skeleton, depth):
    """The indenting encoder's text of ``skeleton`` at nesting ``depth``,
    as a %-format with ``%s`` for each null (a number to fill in)."""
    text = json.dumps(skeleton, indent=2, sort_keys=True).replace("%", "%%")
    return text.replace("\n", "\n" + "  " * depth).replace("null", "%s")


def _records(member, rows, depth):
    """Members of an array at nesting ``depth``, one per row of ``rows``
    filling the %-format ``member``, in runs of ``_BATCH``."""
    sep = ",\n" + "  " * (depth + 1)
    for lo in range(0, len(rows), _BATCH):
        batch = rows[lo : lo + _BATCH]
        yield sep.join([member] * len(batch)) % tuple(_numbers(batch))


def _write_doc(path, doc, holes):
    """Write ``doc`` as ``json.dump(indent=2, sort_keys=True)`` does, plus a
    newline, streaming its first null values in text order from ``holes``:
    ``(depth, brackets, runs)``, an array or object at nesting ``depth``
    whose members come in runs already joined as the encoder joins them."""
    parts = json.dumps(doc, indent=2, sort_keys=True).split("null", len(holes))
    with open(path, "w") as fh:
        fh.write(parts[0])
        for (depth, brackets, runs), part in zip(holes, parts[1:]):
            sep, k = ",\n" + "  " * (depth + 1), -1
            fh.write(brackets[0])
            for k, run in enumerate(runs):
                fh.write((sep if k else sep[1:]) + run)
            fh.write(("\n" + "  " * depth) * (k >= 0) + brackets[1] + part)
        fh.write("\n")


def save_problem(path, tree, initial, assumption=None):
    """Write a problem file in explicit form (one record per node), with
    the committed pair ``initial = (x, u)`` as its initial block, then its
    sidecar ``path + SIDECAR``: the arrays :func:`load_problem` builds the
    tree and the pair from, keyed by the SHA-256 of the file as written.
    A pair that :func:`load_problem` would refuse, misshaped or not finite,
    raises its :class:`TreeError` before any file is opened."""
    raw, n = tree.raw_arrays, tree.node_count
    initial = _checked_pair(initial, tree)
    doc = {
        "dims": {"nx": tree.nx, "nu": tree.nu},
        "horizon": tree.horizon,
        "explicit": dict.fromkeys(("nodes", "parents", "probs", "stages")),
        "initial": {"x_prev": initial[0].tolist(), "u_prev": initial[1].tolist()},
    }
    if assumption is not None:
        doc["assumption"] = {k: float(assumption[k]) for k in _ASSUMED}
    skeleton = {f: np.full(getattr(raw, f).shape[1:], None).tolist() for f in _FIELDS}
    record = _template(skeleton, 3)
    flat = np.concatenate([getattr(raw, f).reshape(n, -1) for f in sorted(_FIELDS)], 1)
    scalars = [("%s", a[:, None]) for a in (tree.parent, tree.pi, tree.stage)]
    holes = [(2, "[]", _records(m, rows, 2)) for m, rows in [(record, flat)] + scalars]
    _write_doc(path, doc, holes)
    _write_sidecar(os.fspath(path), tree, initial, assumption)


@_gc_paused
def load_certificate(path):
    """Read a certificate file.  ``L`` and ``alpha`` must be finite JSON
    numbers, every gain key a node id and every gain finite, of the first
    gain's shape; a fault is a :class:`TreeError` that names the field or
    the node."""
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
    L, alpha = (_number(doc[k], f"certificate {k}", finite=True) for k in ("L", "alpha"))
    block = json_object(doc["K"], "certificate 'K' block")
    rows = _gain_rows(block)
    if rows is None:  # walk the block in file order to name its first fault
        gains = []
        for node, mat in block.items():
            if not re.fullmatch("0|[1-9][0-9]*", node) or int(node) >= 2**63:
                raise TreeError(f"certificate gain key {json.dumps(node)} is not a node id")
            gains.append(_matrix(mat, f"K[{node}]"))
            if not np.isfinite(gains[-1]).all():
                raise TreeError(f"gain for node {node} has non-finite entries")
            if gains[-1].shape != gains[0].shape:
                raise TreeError(
                    f"gain for node {node} has shape {gains[-1].shape}, "
                    f"expected {gains[0].shape}"
                )
        rows = np.array(list(map(int, block))), np.array(gains)
    return GainCertificate(*rows, L, alpha, doc.get("role", "stabilizability"))


def _gain_rows(block):
    """The node ids and gains of a K block, the gains stacked by
    :func:`_stacked`; None when a key is not a 64-bit node id (digits
    without a leading zero) or the gains do not stack into finite numbers."""
    keys = list(block)
    try:
        ids = np.array(list(map(int, keys)), dtype=np.int64)
        gains = _stacked(list(block.values()))
    except (OverflowError, ValueError):
        return None
    if list(map(str, ids.tolist())) != keys or (ids < 0).any():
        return None
    if not np.isfinite(gains).all():
        return None
    return ids, gains


def _gains(cert):
    """``"node": gain`` members of a certificate's K object, keys sorted as
    strings, ``_BATCH`` at a time.  One template is filled once per
    distinct gain; gains are told apart by their bits, since
    ``0.0 == -0.0`` but the two render differently."""
    names = list(map(str, cert.nodes.tolist()))
    order = sorted(range(len(names)), key=names.__getitem__)
    rows = cert.K[order].reshape(len(order), math.prod(cert.K.shape[1:]))
    _, first, which = np.unique(
        rows.view(np.int64), axis=0, return_index=True, return_inverse=True
    )
    member = _template(np.full(cert.K.shape[1:], None).tolist(), 2)
    values, w = _numbers(rows[first]), rows.shape[1]
    text = [member % tuple(values[i * w : (i + 1) * w]) for i in range(first.size)]
    members = [f'"{names[k]}": {text[i]}' for k, i in zip(order, which.tolist())]
    for lo in range(0, len(members), _BATCH):
        yield ",\n    ".join(members[lo : lo + _BATCH])


def save_certificate(path, cert):
    doc = {"role": cert.role, "L": float(cert.L), "alpha": float(cert.alpha), "K": None}
    _write_doc(path, doc, [(1, "{}", _gains(cert))])


def _other_text(value):
    """Report text of a value whose type is not in :data:`_TEXT`: a numpy
    scalar as the Python value it holds, any other number by
    ``repr(float(value))``."""
    if isinstance(value, np.generic):
        return _cell(value.item())
    return repr(float(value))


# report text of a value by its exact type, else _other_text: one lookup a
# cell.  A chain of isinstance tests formatted 2047 trace rows in 12.3 ms,
# this table in 7.8 ms (2-vCPU x86-64 host)
_TEXT = {
    bool: {False: "false", True: "true"}.__getitem__,
    int: repr,
    float: repr,
    str: str,
}


def _cell(value):
    """A report value as text: ``true``/``false`` for a boolean, the digits
    of an integer, ``repr(float(value))`` for any other number and a string
    as it is; a numpy scalar as the Python value it holds."""
    return _TEXT.get(type(value), _other_text)(value)


def key_values(mapping, sep=" "):
    """The ``key=value`` pairs of ``mapping`` in its order, each value by
    :func:`_cell`, joined by ``sep``."""
    return sep.join(f"{k}={_cell(v)}" for k, v in mapping.items())


def _write_csv(path, header, rows, comment=None):
    """Write a CSV report: the ``header`` row, then each of ``rows`` with
    every cell by :func:`_cell`, then, when ``comment`` is a mapping, the
    last line ``# key=value,...``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
        if comment is not None:
            fh.write("# " + key_values(comment, ",") + "\n")


def write_trace_csv(path, tree, x, u, summary):
    """Per-node committed pairs plus a '#'-prefixed summary line.

    ``x`` (N, nx) and ``u`` (N, nu) hold one row per node.  ``summary`` is
    an ordered mapping of labels to floats, appended as a single comment
    row ``# key=value,...``.
    """
    header = (
        ["node", "stage", "parent", "pi"]
        + [f"x[{i}]" for i in range(tree.nx)]
        + [f"u[{i}]" for i in range(tree.nu)]
    )
    ids = zip(range(tree.node_count), tree.stage.tolist(), tree.parent.tolist())
    # floats a row at a time: no list of the whole array is held
    values = map(np.ndarray.tolist, np.column_stack([tree.pi, x, u]))
    _write_csv(path, header, map(chain, ids, values), summary)


def write_path_values_csv(path, tree, path_values, summary):
    """Per-scenario optimal values of the clairvoyant baseline, one row per
    leaf in ascending order; ``path_values`` follows the same order."""
    leaves = tree.leaves()
    _write_csv(path, ["leaf", "pi", "J_path"], zip(leaves, tree.pi[leaves], path_values), summary)


def write_regret_csv(path, report):
    """Sweep rows (W, J_W, J_star, regret, bound, applies, Wbar, rho)."""
    c, details = report.constants, report.details
    header = ["W", "J_W", "J_star", "regret", "bound", "applies", "Wbar", "rho"]
    rows = ([*map(row.get, header[:6]), c.W_bar, c.rho] for row in details["rows"])
    summary = {"slope": details["slope"], "log_rho": details["log_rho"], "passed": report.passed}
    _write_csv(path, header, rows, summary)


def write_decay_csv(path, rows, constants):
    """Stage-pair solution-map norms with the decay envelope column."""
    _write_csv(path, ["t", "tprime", "psi_norm", "omega_norm", "bound"], (
        (r.t, r.tprime, r.psi_norm, r.omega_norm, constants.map_decay(abs(r.t - r.tprime)))
        for r in rows
    ))


def write_moments_csv(path, kinds):
    """Stage moments against envelopes; ``kinds`` maps a label to a
    BoundReport whose point indices are stages (or (node, stage))."""
    _write_csv(path, ["t", "measured", "envelope", "kind"], (
        (p.index[-1] if isinstance(p.index, tuple) else p.index, p.measured, p.bound, kind)
        for kind in sorted(kinds) for p in kinds[kind].points
    ))


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


def write_manifest(path, payload):
    """Reproducible run manifest: sorted keys, no timestamps."""
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
