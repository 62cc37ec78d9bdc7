"""Small sketches whose answers must be the ones Java 17 gives: simple
names (locals, parameters, fields and classes) bound by scope, nested
classes that use an enclosing class's static members, and a select
between a constant and a variable bit.

Each probe has one ``??`` and a harness ``Outer.t()``.  Its answer is
compared with Java's, and, when ``javac`` and ``java`` are on PATH, also
checked by the JVM: the answer replaces the ``??`` in the probe's original
source, ``harness`` is dropped, a ``main`` calls ``Outer.t()``, and it runs
under ``java -ea``.  The original source is used, not the decoded
``java/`` tree: that tree is printed from the desugared program, so it
carries any desugaring error along with it.
"""

import shutil
import subprocess

import pytest

from sketchsynth import cli

# id -> (source, Java's answer)
PROBES = {
    # a member class whose Inner_Outer name is another member's name
    "member-pair": ("""class Outer {
    class A { int f() { return 1; } }
    class A_Outer { int f() { return 2; } }
    int g() { return new A().f(); }
    harness static void t() { assert new Outer().g() == ??; }
}""", 1),
    "local-named-like-a-member-class": ("""class Outer {
    class A { int f() { return 1; } }
    int g() { int A = 4; return A; }
    harness static void t() { assert new Outer().g() == ??; }
}""", 4),
    # a local leaves scope at the end of its block
    "member-class-named-like-a-local-of-a-closed-block": ("""class Outer {
    static class A { static int v() { return 1; } }
    harness static void t() { if (true) { int A = 3; } assert A.v() == ??; }
}""", 1),
    "static-member-class-reads-enclosing-static": ("""class Outer {
    static int X = 5;
    static class In { int g() { return X + 2; } }
    harness static void t() { assert new In().g() == ??; }
}""", 7),
    "anonymous-class-reads-enclosing-static": ("""class F { int g() { return 0; } }
class Outer {
    static int X = 5;
    harness static void t() {
        F f = new F() { int g() { return X + 1; } };
        assert f.g() == ??;
    }
}""", 6),
    "anonymous-class-calls-enclosing-static": ("""class F { int g() { return 0; } }
class Outer {
    static int helper() { return 9; }
    harness static void t() {
        F f = new F() { int g() { return helper() + 1; } };
        assert f.g() == ??;
    }
}""", 10),
    "select-on-a-constant-bit": ("""class Outer {
    harness static void t() {
        int h = ??; int x = h; if (h > 3) { x = 1; } assert x == 2;
    }
}""", 2),
    # the innermost class with a member of that name is the one meant
    "two-levels-of-enclosing-statics": ("""class Outer {
    static int X = 2;
    static class M {
        static int Y = 4;
        static class D { int g() { return X * 10 + Y; } }
        static int h() { return new D().g(); }
    }
    harness static void t() { assert M.h() == ??; }
}""", 24),
    "inherited-field-before-enclosing-static": ("""class F { int X = 1; int g() { return 0; } }
class Outer {
    static int X = 5;
    harness static void t() {
        F f = new F() { int g() { return X + 1; } };
        assert f.g() == ??;
    }
}""", 2),
    "enclosing-static-inherited-by-the-enclosing-class": ("""class Base { static int X = 7; }
class Outer extends Base {
    static class In { int g() { return X; } }
    harness static void t() { assert new In().g() == ??; }
}""", 7),
    # a variable obscures a class of the same name (JLS 6.4.2)
    "field-obscures-member-class": ("""class B { int v() { return 2; } }
class Outer {
    static class A { static int v() { return 1; } }
    static B A = new B();
    harness static void t() { assert A.v() == ??; }
}""", 2),
    "local-obscures-member-class": ("""class B { int v() { return 2; } }
class Outer {
    static class A { static int v() { return 1; } }
    harness static void t() { B A = new B(); assert A.v() == ??; }
}""", 2),
    "anonymous-name-beside-a-member-class-of-that-name": ("""class F { int g() { return 0; } }
class Outer {
    static class F_1 { int f() { return 5; } }
    harness static void t() {
        F f = new F() { int g() { return 2; } };
        assert f.g() + new F_1().f() == ??;
    }
}""", 7),
    # a local is in scope to the end of its block, and each declaration
    # is a variable of its own
    "block-local-shadows-a-static-field": ("""class Outer {
    static int f;
    static int g() { return f; }
    harness static void t() { if (true) { int f = 1; } f = 7; assert g() == ??; }
}""", 7),
    "class-named-like-a-local-of-a-closed-block": ("""class A { static int x = 5; }
class Outer {
    harness static void t() { if (true) { int A = 1; } assert A.x == ??; }
}""", 5),
    "sibling-blocks-declare-one-name-with-two-types": ("""class Outer {
    harness static void t() {
        int r = 0;
        if (?? == 1) { int y = 3; r = y; } else { boolean y = true; if (y) { r = 5; } }
        assert r == 5;
    }
}""", 0),
    "local-named-self-in-an-instance-method": ("""class Outer {
    int f = 4;
    int g() { int self = 3; return f + self; }
    harness static void t() { assert new Outer().g() == ??; }
}""", 7),
    "parameter-named-self-in-an-instance-method": ("""class Outer {
    int f = 4;
    int g(int self) { return f + self; }
    harness static void t() { assert new Outer().g(2) == ??; }
}""", 6),
    "inherited-field-before-enclosing-local": ("""class F { int v = 1; int g() { return 0; } }
class Outer {
    harness static void t() {
        int v = 5;
        F f = new F() { int g() { return v + 1; } };
        assert f.g() == ??;
    }
}""", 2),
    # a field initializer runs in each constructor, but sees the fields,
    # not the constructor's parameters
    "field-initializer-beside-a-parameter-of-its-name": ("""class P { int x = 3; int y; P(int x) { y = x; } }
class Outer {
    harness static void t() { P p = new P(9); assert p.x + p.y == ??; }
}""", 12),
}


def solve(tmp_path, source):
    """The value of the probe's one hole, or None without a solution, and
    the output directory."""
    src = tmp_path / "Probe.java"
    src.parent.mkdir(parents=True, exist_ok=True)
    src.write_text(source)
    out = tmp_path / "result"
    if cli.main([str(src), "--out", str(out)]) != cli.EXIT_SOLVED:
        return None, out
    kind, name, _, value = (out / "solution.txt").read_text().splitlines()[0].split()
    assert (kind, name) == ("hole", "e_h1")
    return int(value), out


def java_source(source, value, package):
    """``source`` with ``value`` in place of its ``??``, no ``harness``, and
    a ``main`` that calls the harness, in ``package``."""
    assert source.count("??") == 1
    text = source.replace("??", str(value)).replace("harness ", "")
    return (f"package {package};\n{text}\n"
            "class Main { public static void main(String[] a) { Outer.t(); } }\n")


@pytest.mark.parametrize("pid", PROBES)
def test_probe_answer_is_javas(tmp_path, pid):
    source, answer = PROBES[pid]
    assert solve(tmp_path, source)[0] == answer


@pytest.fixture(scope="module")
def jvm_exits(tmp_path_factory):
    """{run id: exit code of ``java -ea``} for each probe's solved answer
    (None for a probe without one), and for the member pair's former answer
    2 as a control; one ``javac`` call compiles them all, each in a package
    of its own."""
    if shutil.which("javac") is None or shutil.which("java") is None:
        pytest.skip("javac and java are not on PATH")
    root = tmp_path_factory.mktemp("jvm")
    runs = {pid: (source, solve(root / pid, source)[0])
            for pid, (source, _) in PROBES.items()}
    runs["member-pair-former-answer"] = (PROBES["member-pair"][0], 2)
    packages, paths = {}, []
    for rid, (source, value) in runs.items():
        if value is None:
            continue
        packages[rid] = "p_" + rid.replace("-", "_")
        path = root / "java" / packages[rid] / "Probe.java"
        path.parent.mkdir(parents=True)
        path.write_text(java_source(source, value, packages[rid]))
        paths.append(str(path))
    classes = root / "classes"
    done = subprocess.run(["javac", "-d", str(classes), *paths],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return {rid: subprocess.run(
        ["java", "-ea", "-cp", str(classes), f"{packages[rid]}.Main"],
        capture_output=True).returncode if rid in packages else None
        for rid in runs}


@pytest.mark.parametrize("pid", PROBES)
def test_probe_answer_passes_its_harness_under_the_jvm(jvm_exits, pid):
    assert jvm_exits[pid] == 0


def test_the_jvm_rejects_the_former_member_pair_answer(jvm_exits):
    # text renaming answered 2; the check tells that answer from Java's
    assert jvm_exits["member-pair-former-answer"] != 0


def test_hoisted_static_member_class_is_printed_without_static(tmp_path):
    _, out = solve(tmp_path, PROBES["static-member-class-reads-enclosing-static"][0])
    text = (out / "java" / "Probe.java").read_text()
    assert "class In_Outer {" in text and "static class" not in text
    assert "return Outer.X + 2;" in text
    if shutil.which("javac") is None:
        pytest.skip("javac is not on PATH")
    done = subprocess.run(["javac", "-d", str(tmp_path / "classes"),
                           str(out / "java" / "Probe.java")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("use", ["y + 1", "k() + 1"], ids=["field", "method"])
def test_use_of_an_enclosing_instance_member_gives_exit_2(tmp_path, capsys, use):
    src = tmp_path / "Probe.java"
    src.write_text("class Outer { int y = 1; int k() { return 2; } "
                   f"class In {{ int g() {{ return {use}; }} }} "
                   "int h() { return new In().g(); } "
                   "harness static void t() { assert new Outer().h() == ??; } }")
    assert cli.main([str(src), "--out", str(tmp_path / "out")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert f"Probe.java:1:{src.read_text().index(use) + 1}:" in err
    assert "an instance member of an enclosing class" in err


@pytest.mark.parametrize("body, message", [
    # javac reads the enclosing local A (a capture), not the class A
    ("B A = new B(); F f = new F() { int g() { return A.v(); } }; "
     "assert f.g() == ??;",
     "an anonymous class uses 'A', a local or parameter of an enclosing "
     "method; captures are not supported"),
    ("int x = x + 1; assert x == ??;",
     "variable 'x' might not have been initialized"),
], ids=["capture", "own-initializer"])
def test_unsupported_or_invalid_use_of_a_local_gives_exit_2(tmp_path, capsys,
                                                           body, message):
    src = tmp_path / "Probe.java"
    src.write_text("class B { int v() { return 2; } } "
                   "class F { int g() { return 0; } } "
                   "class Outer { static class A { static int v() { return 1; } } "
                   f"harness static void t() {{ {body} }} }}")
    assert cli.main([str(src), "--out", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err
