"""Workload inputs and their oracles.

Every workload is a fixed list of sketches made from the seed before any
timing starts.  Each sketch carries its own oracle: the exit code and
solution records it must produce, computed here without sketchsynth: the
seed commit's answers to the paper's fixtures, or a Python model of a
generated program.  Nothing in this module imports sketchsynth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@dataclass
class Sketch:
    """One input of a workload and what its output must be."""
    sid: str                  # stable id, also the output directory name
    files: list               # source file paths
    flags: list               # extra CLI flags
    exit_code: int            # expected exit code
    records: dict = field(default_factory=dict)   # (kind, name) -> value
    exact_records: bool = False   # records must be all of solution.txt
    expected_solution: str = None  # byte-exact solution.txt, if pinned


SKETCH_TOKENS = ("??", "{|", "|}", "minrepeat")


def parse_solution(text):
    """solution.txt as {(kind, name): value}; the stats line gives
    ("stats", key) entries."""
    records = {}
    for line in text.splitlines():
        if line.startswith("stats "):
            for kv in line.split()[1:]:
                key, value = kv.split("=")
                records[("stats", key)] = int(value)
        else:
            kind, name, _, value = line.split()
            records[(kind, name)] = int(value)
    return records


def check_output(sketch, out_dir):
    """Problems with the output tree of a call that exited as expected:
    the pinned records and bytes, and decoded sources free of sketch
    constructs.  Re-running the decoded sources is the caller's part."""
    java = out_dir / "java"
    if sketch.exit_code != 0:
        return ["java/ written without a solution"] if java.exists() else []
    sol = out_dir / "solution.txt"
    if not sol.is_file():
        return ["no solution.txt"]
    text = sol.read_text()
    problems = []
    if sketch.expected_solution is not None and \
            text != sketch.expected_solution:
        problems.append("solution.txt differs from the seed commit's")
    got = parse_solution(text)
    for key, want in sketch.records.items():
        if got.get(key) != want:
            problems.append(f"{key[0]} {key[1]} = {got.get(key)}, "
                            f"expected {want}")
    if sketch.exact_records:
        extra = sorted(k for k in got
                       if k[0] != "stats" and k not in sketch.records)
        if extra:
            problems.append(f"unexpected records {extra}")
    sources = sorted(java.glob("*.java"))
    if not sources:
        problems.append("no decoded sources")
    for f in sources:
        text = f.read_text()
        problems += [f"{f.name} contains {tok!r}"
                     for tok in SKETCH_TOKENS if tok in text]
    return problems


# -- paper: the source paper's own sketches ---------------------------------

# (id, files, exit code, records that pin the answer); the byte-exact
# solution.txt of every solved fixture lives in fixtures/expected/.
PAPER = [
    ("mult2", ["Test.java", "SimpleMath.java"], 0,
     {("hole", "e_h1"): 2, ("choice", "e_c1"): 0}),
    ("db", ["DBConnection.java", "Automaton.java", "TestDBConnection.java"], 0,
     {("objective", "min_num_state_Automaton1"): 3, ("repeat", "e_r1"): 4,
      ("stats", "depth"): 4}),
    ("db-two-state", ["DBConnection.java", "AutomatonTwoState.java",
                      "TestDBConnection.java"], 1, {}),
    # the 2-state automaton satisfies every CADsR example; the harness
    # re-run is its oracle (acceptance criterion 3 stays a known failure)
    ("cadsr", ["CADsR.java", "Automaton.java", "TestCADsR.java"], 0, {}),
    ("cadsr-small", ["CADsR.java", "Automaton.java", "TestCADsRSmall.java"],
     0, {}),
]


def paper_sketches(workdir, seed):
    """The fixtures in a fixed order; the seed is not used."""
    out = []
    for sid, names, code, records in PAPER:
        expected = FIXTURES / "expected" / f"{sid}.solution.txt"
        out.append(Sketch(
            sid=sid, files=[str(FIXTURES / n) for n in names], flags=[],
            exit_code=code, records=records,
            expected_solution=expected.read_text() if code == 0 else None))
    return out


# -- wide: large concrete programs with one hole and one choice -------------

WIDE_CLASSES = 200
WIDE_PROGRAMS = 5
WIDE_MOD = 9973


def wide_program(seed):
    """(source files {name: text}, records) for the wide workload.

    WIDE_CLASSES subclasses of Stage override ``apply``.  A harness
    threads a value through all of them via a LinkedList iterator, logs
    each result's last digits into a StringBuilder and folds the string
    back with ``charAt``.  The last assertion pins one hole and one choice;
    the expected answer comes from the same computation done in Python.
    """
    rng = random.Random(seed)
    coeffs = [(rng.randrange(2, 50), rng.randrange(0, 500))
              for _ in range(WIDE_CLASSES)]
    anon_add = rng.randrange(1, 100)
    start = rng.randrange(1, 1000)

    # Python model of the program below
    v = start
    log = []
    stages = [lambda x, a=a, b=b: (x * a + b) % WIDE_MOD for a, b in coeffs]
    stages.append(lambda x: (x + anon_add) % WIDE_MOD)
    for f in stages:
        v = f(v)
        log.append(str(v % 100))
    text = "".join(log)
    chk = 0
    for ch in text:
        chk = (chk * 31 + ord(ch)) % WIDE_MOD
    alts = [chk % 97, chk % 89, v % 83, (chk + v) % 79]
    target = rng.randrange(len(alts))
    hole_value = rng.randrange(0, 32)
    goal = alts[target] + hole_value
    # canonical answer: smallest hole first, then smallest choice index
    best_hole = min(goal - a for a in alts if a <= goal)
    best_choice = min(i for i, a in enumerate(alts) if goal - a == best_hole)

    stage_src = ["class Stage {\n"
                 "    public int apply(int x) { return x; }\n}\n"]
    for i, (a, b) in enumerate(coeffs):
        stage_src.append(
            f"class Stage{i} extends Stage {{\n"
            f"    public int apply(int x) {{ return (x * {a} + {b}) % {WIDE_MOD}; }}\n"
            f"}}\n")
    adds = "\n".join(f"        stages.add(new Stage{i}());"
                     for i in range(WIDE_CLASSES))
    pipeline = f"""class Pipeline {{
    class Log {{
        StringBuilder sb;
        public Log() {{ sb = new StringBuilder(); }}
        public void record(int v) {{ sb.append(v % 100); }}
        public String text() {{ return sb.toString(); }}
    }}
    LinkedList stages;
    Log log;
    public Pipeline() {{
        stages = new LinkedList();
        log = new Log();
{adds}
        stages.add(new Stage() {{
            public int apply(int x) {{ return (x + {anon_add}) % {WIDE_MOD}; }}
        }});
    }}
    public int run(int v) {{
        Iterator it = stages.iterator();
        while (it.hasNext()) {{
            Stage s = it.next();
            v = s.apply(v);
            log.record(v);
        }}
        return v;
    }}
    public int checksum() {{
        String t = log.text();
        int chk = 0;
        int i = 0;
        while (i < t.length()) {{
            chk = (chk * 31 + t.charAt(i)) % {WIDE_MOD};
            i = i + 1;
        }}
        return chk;
    }}
}}
"""
    test = f"""class TestPipeline {{
    harness static void run() {{
        Pipeline p = new Pipeline();
        int v = p.run({start});
        int chk = p.checksum();
        assert ?? + {{| chk % 97, chk % 89, v % 83, (chk + v) % 79 |}} == {goal};
    }}
}}
"""
    files = {"Stages.java": "".join(stage_src), "Pipeline.java": pipeline,
             "TestPipeline.java": test}
    records = {("hole", "e_h1"): best_hole, ("choice", "e_c1"): best_choice,
               ("stats", "candidates"): 1, ("stats", "depth"): 0}
    return files, records, len(text)


def wide_sketches(workdir, seed):
    """WIDE_PROGRAMS programs of one shape, their constants drawn from
    ``seed``."""
    rng = random.Random(seed)
    out = []
    for i in range(WIDE_PROGRAMS):
        files, records, log_len = wide_program(rng.randrange(1 << 30))
        paths = []
        for name, text in files.items():
            path = workdir / "inputs" / f"wide{i}" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            paths.append(str(path))
        # the inner loop visits every stage, the checksum loop every logged
        # character; the step cap covers all of it
        bound = 4 * (WIDE_CLASSES + 2) + log_len
        flags = ["--loop-bound", str(bound), "--step-limit", str(50_000_000)]
        out.append(Sketch(sid=f"wide{i}", files=paths, flags=flags,
                          exit_code=0, records=records, exact_records=True))
    return out


WORKLOADS = {
    "paper": paper_sketches,
    "wide": wide_sketches,
}
