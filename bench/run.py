"""spc-lab benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 bench/run.py --workload {receding,verify,instance} \
        [--seed 5] [--seconds 25] [--trace 0|1]

Run from the root of a checkout.  Each workload is a fixed sequence of
``spc-lab`` commands, run one at a time in one process (a closed loop
with one client, no concurrency) through ``spc_lab.cli.main``, on the
files that ``spc-lab generate`` makes from ``--seed``.  A pass is one run
of the sequence in a fresh process started from ``src/`` of this
checkout; passes repeat until ``--seconds`` have gone by, and at least
three run.  Every pass runs single-threaded: BLAS threads are pinned to
one and ``SPC_LAB_THREADS`` is unset.

With ``--trace 0`` the last line of stdout is a JSON object whose
metrics are the end-to-end ones, medians over the passes:

- ``wall_s``: wall time of one pass over the command sequence;
- ``setup_s``: process start to the first timed command (interpreter
  start, ``import spc_lab``, and generating the input files);
- ``peak_rss_mb``: peak resident set (``ru_maxrss``) of the pass's process;
- ``ok_ratio``: commands that exit 0 and pass the output check, over the
  commands attempted (1.0 when nothing fails).

With ``--trace 1`` untraced and traced passes alternate and the metrics
are the per-layer ones of the median traced pass (see ``tracer.py``),
with ``trace.overhead_s`` = traced minus untraced median wall time.
Each traced pass writes its spans to
``.bench_work/spans-<workload>-s<seed>-pass<i>.json``.

Every pass's outputs are checked (see ``workloads.py``), and every pass
of a run must write byte-identical files, traced or not.  The line
before the result records the environment: Python, numpy and scipy
versions, nproc, the BLAS thread count, the seed and the node count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import PER_LAYER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MIN_PASSES = 3
# Start no pass that would likely end after this many seconds into the
# run; every run must end within 180 s.
PASS_DEADLINE_S = 150.0
RUN_LIMIT_S = 175.0
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def child_env():
    """The pass's environment: single-threaded BLAS, default sweep workers,
    and no bytecode cache, so every set-up compiles ``spc_lab`` alike."""
    env = dict(os.environ)
    env.pop("SPC_LAB_THREADS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(args, depth, pass_dir, traced, spans_path, timeout):
    """One pass in a fresh process; its measurements, or why it failed."""
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--src", os.path.join(ROOT, "src"),
        "--workload", args.workload, "--seed", str(args.seed), "--depth", str(depth),
        "--dir", pass_dir, "--trace", "1" if traced else "0",
    ]
    if traced:
        cmd += ["--spans", spans_path]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {timeout:.0f} s"}
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    res = json.loads(lines[-1])
    res["setup_s"] = res["setup_end"] - spawned
    res["traced"] = traced
    return res


def judge(passes, labels):
    """``(attempted, failed)`` commands over all passes, with reasons on stderr.

    A command fails when it exits non-zero, when its outputs fail the
    check, or when its files differ from those of the first pass.
    """
    attempted = failed = 0
    first = None
    for i, p in enumerate(passes):
        attempted += len(labels)
        if "crashed" in p or not p["setup_ok"]:
            failed += len(labels)
            print(f"pass {i}: every command failed: {p.get('crashed') or p.get('setup_error')}",
                  file=sys.stderr)
            continue
        problems = {label: list(msgs) for label, msgs in p["problems"].items()}
        if first is None:
            first = p["digests"]
        for label, digest in p["digests"].items():
            if digest != first[label]:
                problems[label].append("output files differ from the first pass")
        for label, msgs in problems.items():
            if msgs:
                failed += 1
                detail = p["errors"].get(label, "").strip().splitlines()[-1:]
                print(f"pass {i} {label}: " + "; ".join(msgs[:3] + detail), file=sys.stderr)
    return attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--depth", type=int, default=None,
                    help="tree depth T (default: the workload's; smaller for smoke tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spc_lab", "__init__.py")):
        print(f"error: no spc_lab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    depth = workload.T if args.depth is None else args.depth
    labels = workloads.labels(workload)
    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    passes = []
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            began = time.monotonic()
            timeout = max(5.0, RUN_LIMIT_S - (began - start))
            spans = os.path.join(work_root, f"spans-{args.workload}-s{args.seed}-pass{len(passes)}.json")
            p = run_pass(args, depth, os.path.join(work, f"pass-{len(passes)}"),
                         traced, spans, timeout)
            passes.append(p)
            now = time.monotonic()
            kind = "traced" if traced else "untraced"
            if "crashed" in p or not p["setup_ok"]:
                print(f"pass {len(passes) - 1} {kind}: failed", flush=True)
                break
            print(f"pass {len(passes) - 1} {kind}: wall_s={p['wall_s']:.4f} "
                  f"cpu_s={p['cpu_s']:.4f} setup_s={p['setup_s']:.4f} rss_mb={p['rss_mb']:.1f}", flush=True)
            if len(passes) >= MIN_PASSES and now - start >= args.seconds:
                break
            if now - start + (now - began) > PASS_DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = judge(passes, labels)
    done = [p for p in passes if "crashed" not in p and p["setup_ok"]]
    untraced = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps({"env": done[0]["env"], "passes": len(passes)}))

    if args.trace:
        # the median traced pass (the lower one of an even count), whose
        # layer times add up to its own wall time
        chosen = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        layers = dict(chosen["layers"])
        layers["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
            "ok_ratio": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
