"""One pass of one workload, in a fresh process started by ``run.py``.

The process imports ``spc_lab`` from the checkout's ``src`` directory,
makes the workload's input files from the seed (the set-up), runs the
command sequence once through ``spc_lab.cli.main`` (the timed pass),
then checks the outputs and prints one JSON line with what it measured.
With ``--trace 1`` the pass runs under the outside-in tracer and the
spans are written to ``--spans`` after the pass.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import workloads


def run_command(cli, argv):
    """``(exit_code, stdout, stderr)`` of one in-process CLI call.

    A command that raises instead of returning an exit code is a failed
    command with code -1; its traceback is kept as its stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else -1
    except Exception:  # a crash is counted against the command, not the benchmark
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def tree_digest(path):
    """SHA-256 over every file under ``path``, names and bytes."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def blas_threads():
    """Thread count OpenBLAS reports, or the environment's request when
    the loaded BLAS cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--depth", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import spc_lab
    from spc_lab import cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(spc_lab.__file__).startswith(src + os.sep):
        raise SystemExit(f"spc_lab imported from {spc_lab.__file__}, not from {src}")

    workload = workloads.WORKLOADS[args.workload]
    T = args.depth
    spec_path = os.path.join(args.dir, "spec.json")
    inp, out = os.path.join(args.dir, "inp"), os.path.join(args.dir, "out")
    os.makedirs(args.dir, exist_ok=True)
    with open(spec_path, "w") as fh:
        json.dump(workloads.spec_document(T), fh)
    result = {"setup_ok": True}
    if workload.setup_generate:
        code, _, err = run_command(cli, workloads.setup_argv(args.seed, spec_path, inp))
        if code != 0:
            result.update(setup_ok=False, setup_error=f"exit {code}: {err[-2000:]}")
    result["setup_end"] = time.monotonic()
    if not result["setup_ok"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results, errors = {}, {}
    t0, c0 = time.perf_counter(), time.process_time()
    for label, argv_, outdir in workloads.commands(workload, args.seed, spec_path, inp, out):
        code, stdout, err = run_command(cli, argv_)
        results[label] = (code, stdout, outdir)
        if err:
            errors[label] = err[-2000:]
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, obs = workloads.observe(workload, T, results)
    if args.seed == workloads.REFERENCE_SEED and T == workload.T:
        workloads.compare_reference(problems, workloads.load_reference(workload), obs)
    problem_file = workloads.input_paths(
        inp if workload.setup_generate else os.path.join(out, "generate")
    )["problem"]
    nodes = None
    if os.path.isfile(problem_file):
        with open(problem_file) as fh:
            nodes = len(json.load(fh)["explicit"]["parents"])
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        rss_mb=rss_mb,
        problems=problems,
        errors=errors,
        observables=obs,
        digests={label: tree_digest(od) if os.path.isdir(od) else None
                 for label, (_, _, od) in results.items()},
        env={
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "seed": args.seed,
            "T": T,
            "nodes": nodes,
        },
    )
    if tracer is not None:
        nonzero = sum(1 for code, _, _ in results.values() if code != 0)
        result["layers"] = tracer.metrics(wall, nonzero)
        result["wrapped_calls"] = tracer.fn_calls
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "command"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
