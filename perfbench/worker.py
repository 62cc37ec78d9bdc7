"""One benchmark client in a fresh interpreter.

Imports ``sketchsynth.cli`` and prints ``ready``; the time until then is the
set-up time measured by ``run.py``.  A closed end of stdin makes it exit
(a set-up probe).  Otherwise it reads one JSON job line and runs the
closed loop: whole passes over the job's sketches, one ``cli.main`` call at
a time, as long as another pass is expected to end within the job's time
budget (at least one pass).  Each call is timed around ``cli.main`` alone.
After each call the output tree is compared with the first pass's, so every
call's output is checked; then the worker prints ``tick`` and waits for a
line on stdin while ``run.py`` times its reference task.  The result, and
the spans of a traced run, go to the job's result file.
"""

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def snapshot(out_dir):
    """Bytes of every file the CLI writes except the timestamped log."""
    files = {}
    for sub in ("solution.txt", "java"):
        p = out_dir / sub
        if p.is_file():
            files[sub] = p.read_bytes()
        elif p.is_dir():
            for f in sorted(p.iterdir()):
                files[f"{sub}/{f.name}"] = f.read_bytes()
    return files


def probe_terms(bitvec):
    """Interned term count: a fresh variable's id is the table size; None
    when the probe no longer works."""
    try:
        return bitvec.var("perfbench.probe", 1).tid
    except Exception:  # noqa: BLE001 - a later program may differ
        return None


def run(cli, job, ctl_in, ctl_out):
    recorder = None
    if job["trace"]:
        import tracing
        from sketchsynth import bitvec
        recorder = tracing.install(tracing.Recorder())
    out_root = Path(job["out"])
    calls = []          # [sketch, pass, exit code, seconds]
    drift = []          # calls whose output differs from the first pass
    first = {}
    terms = 0
    perf = time.perf_counter
    start = perf()
    pass_no = 0
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        while pass_no == 0 or \
                (perf() - start) * (pass_no + 1) / pass_no <= job["seconds"]:
            pass_no += 1
            for sk in job["sketches"]:
                out_dir = out_root / sk["sid"]
                argv = sk["argv"] + ["--out", str(out_dir)]
                if recorder:
                    recorder.begin(sk["sid"], pass_no)
                t0 = perf()
                code = cli.main(argv)
                t = perf() - t0
                calls.append([sk["sid"], pass_no, code, t])
                if recorder:
                    recorder.end_sketch()
                snap = snapshot(out_dir)
                if pass_no == 1:
                    first[sk["sid"]] = snap
                elif snap != first[sk["sid"]]:
                    drift.append([sk["sid"], pass_no])
                ctl_out.write("tick\n")
                ctl_out.flush()
                ctl_in.readline()
            if recorder and pass_no == 1:
                terms = probe_terms(bitvec)
                if terms is None:
                    recorder.missing.append("bitvec.var(...).tid")
                    terms = 0
    result = {
        "calls": calls, "drift": drift, "terms": terms,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder:
        result["spans"] = recorder.spans
        result["events"] = recorder.events
        result["missing"] = recorder.missing
    Path(job["result"]).write_text(json.dumps(result))


def main():
    from sketchsynth import cli
    print("ready", flush=True)
    line = sys.stdin.readline()
    if line:
        run(cli, json.loads(line), sys.stdin, sys.stdout)


if __name__ == "__main__":
    main()
