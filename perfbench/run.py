"""sketchsynth benchmark: time to verdict through ``cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 55 --trace 0

One closed-loop client runs in one fresh worker interpreter (``worker.py``)
that calls ``cli.main`` once per sketch, the way a user's ``sketchsynth``
invocation does, over whole passes of the workload's fixed sketch set for
about ``--seconds`` seconds.  After every call this process times a fixed
reference task (``reference.py``), and each call's time is scaled by the
reference times just before and after it, which cancels most of the host's
changes of speed (see README.md).
Every output is checked against an oracle that does not come from
sketchsynth (see ``workloads.py``), and every solved output is re-run: its
decoded sources must solve again with exit 0 and no unknowns left.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's public entry points (``tracing.py``) and prints the per-layer
metrics instead.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
gives the details (tail percentile, sample count, passes, problems).
Exits 2 without a result when the program is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7          # fresh interpreters timed per run, the worker too
RUN_LIMIT_S = 170          # everything, checks included, ends within this
CHECK_RESERVE_S = 25       # kept back from the worker for the checks


class BenchError(Exception):
    pass


def tail_percentile(times):
    """(value, percentile): the sample with exactly ten samples above it,
    or the maximum when there are ten samples or fewer."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def start_worker(root, env, stderr):
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], cwd=root, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
        text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not start")
    return proc, ready


def measure(root, job, deadline, workdir):
    """Set-up samples, then the worker's result and the reference task's
    times.  ``refs[i]`` is timed just before call ``i`` and ``refs[i + 1]``
    just after it.  Set-up probes run before and after the worker so that
    they sample the whole run; each is paired with a reference time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    err_path = workdir / "worker.err"
    setup = []          # [seconds to ready, reference seconds around it]

    def probe():
        before = reference.timed()
        with open(err_path, "w") as err:
            proc, ready = start_worker(root, env, err)
            try:
                proc.communicate(timeout=30)   # closed stdin: probe exits
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("a set-up probe did not exit")
        setup.append([ready, (before + reference.timed()) / 2])

    for _ in range(SETUP_SAMPLES // 2):
        probe()
    refs = [reference.timed()]
    timed_out = []

    def stop():
        timed_out.append(True)
        proc.kill()

    with open(err_path, "w") as err:
        proc, ready = start_worker(root, env, err)
        setup.append([ready, refs[0]])
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   stop)
        watchdog.start()
        try:
            proc.stdin.write(json.dumps(job) + "\n")
            proc.stdin.flush()
            for _ in proc.stdout:                  # one "tick" per call
                refs.append(reference.timed())
                proc.stdin.write("go\n")
                proc.stdin.flush()
            proc.stdin.close()
        except OSError:         # the worker is gone; its exit code tells
            pass
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.wait()
            watchdog.cancel()
    if timed_out:
        raise BenchError("worker ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{err_path.read_text().strip()[-2000:]}")
    while len(setup) < SETUP_SAMPLES:
        probe()
    return setup, refs, json.loads(Path(job["result"]).read_text())


def rerun_decoded(cli, sketch, out_dir, check_dir):
    """The decoded sources must solve with exit 0 and no unknowns."""
    sources = sorted(str(p) for p in (out_dir / "java").glob("*.java"))
    sink = open(os.devnull, "w")
    with sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        code = cli.main(sources + sketch.flags + ["--out", str(check_dir)])
    if code != 0:
        return [f"decoded sources re-run exits {code}"]
    left = [k for k in workloads.parse_solution(
        (check_dir / "solution.txt").read_text()) if k[0] != "stats"]
    return [f"decoded sources still have unknowns {left}"] if left else []


def check(root, sketches, result, workdir):
    """Per-sketch problems, then the number of failed calls."""
    sys.path.insert(0, str(root / "src"))
    from sketchsynth import cli
    problems = {}
    for sk in sketches:
        out_dir = workdir / "out" / sk.sid
        codes = {c[2] for c in result["calls"] if c[0] == sk.sid}
        found = [f"exit {c}, expected {sk.exit_code}"
                 for c in sorted(codes) if c != sk.exit_code]
        if not found:
            found = workloads.check_output(sk, out_dir)
        if not found and sk.exit_code == 0:
            found = rerun_decoded(cli, sk, out_dir,
                                  workdir / "rerun" / sk.sid)
        if found:
            problems[sk.sid] = found
    expected = {sk.sid: sk.exit_code for sk in sketches}
    drift = {(sid, p) for sid, p in result["drift"]}
    failed = sum(1 for sid, p, code, _ in result["calls"]
                 if code != expected[sid] or sid in problems
                 or (sid, p) in drift)
    for sid, p in sorted(drift):
        problems.setdefault(sid, []).append(
            f"pass {p} output differs from pass 1")
    return problems, failed


def scaled_times(calls, refs):
    """(sketch, seconds) per call, scaled to the reference host: the call's
    wall time times ``reference.NOMINAL_S`` over the mean of the reference
    times just before and just after it."""
    return [(sid, t * reference.NOMINAL_S * 2 / (refs[i] + refs[i + 1]))
            for i, (sid, _, _, t) in enumerate(calls)]


def timing(calls, refs):
    """End-to-end times of one run: each sketch's median scaled call, and
    the sketches per second, median and tail over all scaled calls."""
    scaled = scaled_times(calls, refs)
    per_sketch = {}
    for sid, t in scaled:
        per_sketch.setdefault(sid, []).append(t)
    typical = {sid: statistics.median(ts) for sid, ts in per_sketch.items()}
    times = [t for _, t in scaled]
    tail, pct = tail_percentile(times)
    return typical, {"sketches_per_s": len(typical) / sum(typical.values()),
                     "verdict_s.p50": statistics.median(times),
                     "verdict_s.tail": tail}, pct


def end_to_end(result, setup, refs, failed):
    calls = result["calls"]
    n = len(calls)
    _, times, pct = timing(calls, refs)
    setup_s = statistics.median(
        ready * reference.NOMINAL_S / ref for ready, ref in setup)
    wall = {}
    for sid, _, _, t in calls:
        wall.setdefault(sid, []).append(t)
    q = statistics.quantiles(refs, n=4)
    metrics = {
        "sketches_per_s": (times["sketches_per_s"], "1/s"),
        "verdict_s.p50": (times["verdict_s.p50"], "s"),
        "verdict_s.tail": (times["verdict_s.tail"], "s"),
        "verdict_ok_frac": ((n - failed) / n, "fraction"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {"tail_percentile": round(pct, 2), "samples": n,
              "passes": max(c[1] for c in calls),
              "measured_s": round(sum(c[3] for c in calls), 3),
              "wall_sketches_per_s": round(len(wall) / sum(
                  statistics.median(ts) for ts in wall.values()), 4),
              "wall_verdict_s.p50": round(
                  statistics.median(c[3] for c in calls), 4),
              "reference_ms.quartiles": [round(x * 1000, 2) for x in q],
              "setup_samples_s": [round(r, 4) for r, _ in setup]}
    return metrics, detail


def per_layer(result, refs, sketches):
    input_bytes = {sk.sid: sum(os.path.getsize(f) for f in sk.files)
                   for sk in sketches}
    values, problems = tracing.derive(
        result["spans"], result["events"], result["calls"], input_bytes,
        result["terms"])
    # the traced run's own end-to-end figures, by the untraced run's rule
    typical, times, _ = timing(result["calls"], refs)
    for f in tracing.PAPER_FIXTURES:
        values[f"cli.verdict_s.{f}"] = typical.get(f, 0.0)
    values["traced.sketches_per_s"] = times["sketches_per_s"]
    values["traced.verdict_s.p50"] = times["verdict_s.p50"]
    metrics = {k: (values[k], u) for k, u in tracing.LAYER_METRICS.items()}
    detail = {"spans": len(result["spans"]),
              "passes": max(c[1] for c in result["calls"]),
              "unhooked": result["missing"], "count_drift": problems}
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # the worker, the set-up probes and the reference task inherit one CPU,
    # so the reference is timed on the CPU the calls ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    if not (root / "src" / "sketchsynth" / "cli.py").is_file():
        print("error: run from the root of a sketchsynth checkout "
              "(src/sketchsynth/cli.py not found)", file=sys.stderr)
        return 2

    workdir = (root / ".perfbench" /
               f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        sketches = workloads.WORKLOADS[args.workload](workdir, args.seed)
        job = {"sketches": [{"sid": sk.sid, "argv": sk.files + sk.flags}
                            for sk in sketches],
               "seconds": args.seconds, "trace": bool(args.trace),
               "out": str(workdir / "out"),
               "result": str(workdir / "result.json")}
        setup, refs, result = measure(root, job, deadline - CHECK_RESERVE_S,
                                      workdir)
        if len(refs) != len(result["calls"]) + 1:
            raise BenchError(f"{len(refs)} reference times for "
                             f"{len(result['calls'])} calls")
        problems, failed = check(root, sketches, result, workdir)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        print(f"work files kept in {workdir}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, detail = per_layer(result, refs, sketches)
    else:
        metrics, detail = end_to_end(result, setup, refs, failed)
    detail["problems"] = problems
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(result["calls"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    if problems:
        print(f"work files kept in {workdir}", file=sys.stderr)
    else:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
