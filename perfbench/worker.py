"""One timed body of a workload, run in a fresh interpreter by run.py.

Usage: python3 perfbench/worker.py JOB.json RESULT.json SPAWNED

JOB.json names the checkout root, the operations (relbundles command
lines run in-process through ``relbundles.cli.main``) and whether to
trace.  SPAWNED is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports
and tracer installation up to the first call into the timed body.  A job
with no operations measures set-up only.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback


def run_op(main, op: dict) -> dict:
    """Run one command line; report exit code, latency and output digests."""
    for name in op["outputs"]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(op["out"], name))
    error = None
    start = time.perf_counter()
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stdout(sink):
            rc = main(op["argv"])
    except SystemExit as err:  # argparse usage errors exit
        rc = err.code
    except Exception:  # one failed operation must not lose the run
        rc, error = None, traceback.format_exc()
    ms = (time.perf_counter() - start) * 1000.0
    files, mismatches = {}, []
    for name in op["outputs"]:
        path = os.path.join(op["out"], name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            files[name] = None
            continue
        files[name] = hashlib.sha256(data).hexdigest()[:16]
        want = op["expect"].get(name)
        if want:
            doc = json.loads(data)
            mismatches += [f"{name}: {key}={doc.get(key)!r}, want {value!r}"
                           for key, value in want.items()
                           if doc.get(key) != value]
    return {"key": op["key"], "ms": ms, "rc": rc, "error": error,
            "files": files, "mismatches": mismatches}


def main(argv: list[str]) -> int:
    job_path, result_path, spawned = argv[1], argv[2], float(argv[3])
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    from relbundles import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"relbundles was imported from {cli.__file__}, "
                         f"not from {src}")
    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracing.load()
        tracer = tracing.Tracer()
        tracer.install()
        unwrapped = tracer.unwrapped()

    started = time.monotonic()
    result: dict = {"setup_s": started - spawned}
    if job["ops"]:
        result["ops"] = [run_op(cli.main, op) for op in job["ops"]]
        result["wall_s"] = time.monotonic() - started
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["unwrapped"] = sorted(set(unwrapped + tracer.unwrapped()))
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
