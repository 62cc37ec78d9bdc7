"""Small sketches whose answers must be the ones Java 17 gives: simple
names (locals, parameters, fields and classes) bound by scope, nested
classes that use an enclosing class's static members, a select between a
constant and a variable bit, Strings as objects (identity, null, library
arguments), a static member reached through an expression, and
constructs that no other test runs.

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
    # a method of a class declared in a local's scope may declare a local
    # of its name (JLS 6.4)
    "anonymous-class-local-named-like-an-enclosing-local": ("""class F { int g() { return 0; } }
class Outer {
    harness static void t() {
        int x = 1;
        F f = new F() { int g() { int x = 3; return x; } };
        assert f.g() + x == ??;
    }
}""", 4),
    # a field initializer runs in each constructor, but sees the fields,
    # not the constructor's parameters
    "field-initializer-beside-a-parameter-of-its-name": ("""class P { int x = 3; int y; P(int x) { y = x; } }
class Outer {
    harness static void t() { P p = new P(9); assert p.x + p.y == ??; }
}""", 12),
    # a String is an object: == compares references (JLS 15.21.3), and
    # equal literals are one object (JLS 3.10.5)
    "string-identity": ("""class Outer {
    harness static void t() {
        StringBuilder sb = new StringBuilder();
        sb.append("a");
        int x = 0;
        if (sb.toString() == "a") { x = 1; }
        assert x == ??;
    }
}""", 0),
    "literal-identity": ("""class Outer {
    static String k = "hi";
    harness static void t() {
        String s = "hi";
        int x = 0;
        if (s == k) { x = 1; }
        assert x == ??;
    }
}""", 1),
    "static-string-defaults-to-null": ("""class Outer {
    static String s;
    harness static void t() { int x = 0; if (s == null) { x = 1; } assert x == ??; }
}""", 1),
    "null-for-a-string-parameter": ("""class Outer {
    static int f(String s) { if (s == null) { return 2; } return s.length(); }
    harness static void t() { assert f(null) == ??; }
}""", 2),
    "string-chosen-under-a-hole": ("""class Outer {
    harness static void t() {
        String s = "ab";
        if (?? == 1) { s = "abc"; }
        assert s.length() == 3;
    }
}""", 1),
    "linked-list-of-strings": ("""class Outer {
    harness static void t() {
        LinkedList<String> l = new LinkedList<String>();
        l.add("x");
        l.add("yz");
        String s = l.get(1);
        assert s.length() == ??;
    }
}""", 2),
    "this": ("""class Outer {
    int f = 3;
    int g() { return this.f + h(this); }
    static int h(Outer o) { return o.f; }
    harness static void t() { assert new Outer().g() == ??; }
}""", 6),
    "boolean-equality": ("""class Outer {
    harness static void t() {
        int h = ??; boolean b = h > 2; boolean c = h < 5;
        assert b == c;
    }
}""", 3),
    # the second if merges a reference that both of its paths hold
    "one-reference-on-two-paths": ("""class C { int v; C(int x) { v = x; } }
class Outer {
    harness static void t() {
        C a = new C(1); C b = new C(2);
        int h = ??;
        C c = a;
        if (h == 1) { c = b; }
        if (h > 1) { c = a; }
        assert c.v == 2;
    }
}""", 1),
    # A.f(B) and A_B.f() have one mangled name, f_A_B
    "mangled-name-collision": ("""class B { }
class A { int f(B x) { return 1; } }
class A_B { int f() { return 2; } }
class Outer {
    harness static void t() { assert new A().f(new B()) * 10 + new A_B().f() == ??; }
}""", 12),
    "escapes": (r"""class Outer {
    harness static void t() {
        int s = '\n' + '\t' + '\'' + '\\' + '\r' + '\0';
        String q = "\"\\\n\t\r\0";
        assert s + q.length() == 100 + ??;
    }
}""", 69),
    # a program's own method hides the library function of its name
    "own-method-named-like-a-library-function": ("""class Outer {
    static int convertToIterator(int x) { return x + 1; }
    harness static void t() { assert convertToIterator(3) == ??; }
}""", 4),
    # the expression through which a static member is reached is
    # evaluated, and may be null (JLS 15.11.1, 15.12.4.1)
    "static-method-through-an-expression": ("""class St { static int sf() { return 5; } }
class Outer {
    static int c = 0;
    static St make() { c = c + 1; return null; }
    harness static void t() { int v = make().sf(); assert c == ??; }
}""", 1),
    "static-field-through-an-expression": ("""class St { static int k = 2; }
class Outer {
    static int c = 0;
    static St make() { c = c + 1; return null; }
    harness static void t() { int v = make().k; assert c == ??; }
}""", 1),
    # JLS 3.10.7: an octal escape takes up to three digits, to \377
    "octal-escapes": (r"""class Outer {
    harness static void t() {
        String a = "\01";
        String b = "\1234";
        String c = "\b\f\s\177";
        String d = "\0001";
        char x = '\101';
        int n = a.length() + b.length() * 10 + c.length() * 100 + d.length() * 1000
            + b.charAt(0) + c.charAt(3) + x;
        assert n == 2600 + ??;
    }
}""", 96),
    # JLS 3.3: Unicode escapes are translated before anything else, where
    # an even number of backslashes precede them, in names and literals
    "unicode-escapes": (r"""class Outer {
    harness static void t() {
        int \u0061b = "\u0041".charAt(0);
        char c = '\uu0042';
        String s = "\\u0041";
        String b = "\u005c\u005c";
        assert c == 66 && s.length() == 6 && s.charAt(0) == 92;
        assert b.length() == 1 && b.charAt(0) == 92;
        assert ab == ??;
    }
}""", 65),
    # the library root class: two instances are two references
    "new-object": ("""class Outer {
    harness static void t() {
        Object a = new Object();
        Object b = new Object();
        int r = 0;
        if (a == b) { r = 1; }
        assert r == ??;
    }
}""", 0),
    # a program's own Object is an ordinary class: a subclass runs its
    # constructor, and a class that names no superclass still has the
    # library root, whose convertToIterator it inherits
    "own-object-is-an-ordinary-class": ("""class Object { int k; Object() { k = 1; } }
class B extends Object { }
class Outer {
    harness static void t() { B b = new B(); assert b.k == ??; }
}""", 1),
    # a program's own String hides the library's only in the program's
    # references: StringBuilder.toString still makes a java.lang.String
    "library-string-beside-own-string": ("""class String { int length() { return 7; } }
class Outer {
    harness static void t() {
        StringBuilder sb = new StringBuilder();
        sb.append(12);
        assert sb.toString().length() == ??;
    }
}""", 2),
    # a library trap rejects only the path it is on
    "library-trap-under-a-symbolic-guard": ("""class Outer {
    harness static void t() {
        String s = "ab";
        int r = 0;
        if (?? == 0) { r = s.charAt(5); }
        assert r == 0;
    }
}""", 1),
    # an interface that extends two others has the methods of both
    "interface-extending-two-interfaces": ("""interface I1 { int f(); }
interface I2 { int g(); }
interface I3 extends I1, I2 { }
class C implements I3 {
    public int f() { return 1; }
    public int g() { return 2; }
}
class Outer {
    harness static void t() { I3 c = new C(); assert c.f() + c.g() == ??; }
}""", 3),
    # a call of a method that no class implements: no receiver reaches it,
    # as null returns before the call
    "call-of-a-method-no-class-implements": ("""interface I { int m(); }
class Outer {
    static int f(I x) { if (x == null) { return 3; } return x.m(); }
    harness static void t() { assert f(null) == ??; }
}""", 3),
    # a private interface method has a body, and is no abstract method
    # that a class must implement
    "private-interface-method": ("""interface I {
    private int f() { return 1; }
    int g();
}
class C implements I { public int g() { return 2; } }
class Outer {
    harness static void t() { assert new C().g() == ??; }
}""", 2),
    # final fields assigned where javac allows it: by their initializers,
    # which desugar moves into the constructors, and through this
    "final-fields": ("""class A {
    static final int Z = 2;
    final int x = 5;
    final int y;
    A() { this.y = x + Z; }
}
class Outer {
    harness static void t() { assert new A().y == ??; }
}""", 7),
    # JLS 14.6: the empty statement, also as a branch
    "empty-statements": ("""class Outer {
    harness static void t() {
        int x = 1;;
        ;
        if (x == 1) ; else x = 2;
        while (x == 0) ;
        assert x * 10 == ??;
    }
}""", 10),
    # an anonymous class body is a class body: empty members are skipped
    # there too (JLS 8.1.6)
    "empty-member-of-an-anonymous-class": ("""class F { int g() { return 0; } }
class Outer {
    harness static void t() {
        F f = new F() { ; int g() { return 2; } ; };
        assert f.g() == ??;
    }
}""", 2),
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
    a ``main`` that calls the harness, in ``package``; the library classes
    come from ``java.util``, and ``main`` names ``java.lang.String``, which
    a probe's own ``String`` does not hide."""
    assert source.count("??") == 1
    text = source.replace("??", str(value)).replace("harness ", "")
    return (f"package {package};\nimport java.util.*;\n{text}\n"
            "class Main { public static void main(java.lang.String[] a) "
            "{ Outer.t(); } }\n")


@pytest.mark.parametrize("pid", PROBES)
def test_probe_answer_is_javas(tmp_path, pid):
    source, answer = PROBES[pid]
    assert solve(tmp_path, source)[0] == answer


@pytest.fixture(scope="module")
def jvm_exits(tmp_path_factory):
    """{run id: exit code of ``java -ea``} for each probe's solved answer
    (None for a probe without one), and as controls for two former
    answers: 2 to the member pair, 1 to String identity, when Strings were
    compared by their text, and 7 to the library String beside a
    program's own, when the program's class replaced the library's; one
    ``javac`` call compiles them all, each in a package of its own."""
    if shutil.which("javac") is None or shutil.which("java") is None:
        pytest.skip("javac and java are not on PATH")
    root = tmp_path_factory.mktemp("jvm")
    runs = {pid: (source, solve(root / pid, source)[0])
            for pid, (source, _) in PROBES.items()}
    runs["member-pair-former-answer"] = (PROBES["member-pair"][0], 2)
    runs["string-identity-former-answer"] = (PROBES["string-identity"][0], 1)
    runs["own-string-former-answer"] = (
        PROBES["library-string-beside-own-string"][0], 7)
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


def test_the_jvm_rejects_the_former_string_identity_answer(jvm_exits):
    # comparing Strings by their text answered 1
    assert jvm_exits["string-identity-former-answer"] != 0


def test_the_jvm_rejects_the_former_own_string_answer(jvm_exits):
    # the program's String in place of the library's answered 7
    assert jvm_exits["own-string-former-answer"] != 0


def test_a_supplementary_character_is_two_chars_of_a_string(tmp_path):
    """A String literal holds UTF-16 code units, as in Java: U+1F600,
    written raw in the UTF-8 source, is a surrogate pair, which the
    decoded tree writes as two Unicode escapes that read back as the same
    pair."""
    source = ('class Outer { harness static void t() { String s = '
              '"a\U0001F600"; assert s.charAt(1) == 55357 && s.length() == ??; '
              '} }')
    src = tmp_path / "Probe.java"
    src.write_text(source, encoding="utf-8")
    out = tmp_path / "result"
    assert cli.main([str(src), "--out", str(out)]) == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 3"
    text = (out / "java" / "Probe.java").read_text()
    assert r'"a\ud83d\ude00"' in text
    again = tmp_path / "again" / "Probe.java"
    again.parent.mkdir()
    again.write_text(text.replace("== 3", "== ??"))
    code = cli.main([str(again), "--out", str(again.parent / "result")])
    assert code == cli.EXIT_SOLVED
    if shutil.which("javac") is None or shutil.which("java") is None:
        pytest.skip("javac and java are not on PATH")
    path = tmp_path / "jvm" / "p" / "Probe.java"
    path.parent.mkdir(parents=True)
    path.write_text(java_source(source, 3, "p"), encoding="utf-8")
    classes = tmp_path / "classes"
    # javac reads the source in the platform's charset unless told
    done = subprocess.run(["javac", "-encoding", "UTF-8", "-d", str(classes),
                           str(path)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert subprocess.run(["java", "-ea", "-cp", str(classes), "p.Main"],
                          capture_output=True).returncode == 0


def test_decoded_literals_keep_their_escapes(tmp_path):
    _, out = solve(tmp_path, PROBES["escapes"][0])
    text = (out / "java" / "Probe.java").read_text()
    assert r"""'\n' + '\t' + '\'' + '\\' + '\r' + '\000'""" in text
    assert r'''"\"\\\n\t\r\000"''' in text
    if shutil.which("javac") is None:
        pytest.skip("javac is not on PATH")
    done = subprocess.run(["javac", "-d", str(tmp_path / "classes"),
                           str(out / "java" / "Probe.java")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_decoded_octal_escapes_read_back_as_the_same_characters(tmp_path):
    # a control character goes out as three octal digits, so the digit
    # after NUL in "\0001" stays a character of its own
    _, out = solve(tmp_path, PROBES["octal-escapes"][0])
    text = (out / "java" / "Probe.java").read_text()
    for literal in ('"\\001"', '"S4"', '"\\b\\f \\177"', '"\\0001"', "'A'"):
        assert literal in text
    again = tmp_path / "again"
    again.mkdir()
    (again / "Probe.java").write_text(text.replace("== 2600 + 96", "== 2600 + ??"))
    code = cli.main([str(again / "Probe.java"), "--out", str(again / "result")])
    assert code == cli.EXIT_SOLVED
    if shutil.which("javac") is None:
        pytest.skip("javac is not on PATH")
    done = subprocess.run(["javac", "-d", str(tmp_path / "classes"),
                           str(out / "java" / "Probe.java")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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


@pytest.mark.parametrize("source, position", [
    ("class A { A(int x) { } }\nclass B extends A { B() { } }\n", "2:25"),
    ("class A { A(int x) { } }\nclass D { }\nclass C extends A { }\n", "3:1"),
], ids=["explicit-constructor", "implicit-constructor"])
def test_missing_zero_argument_super_constructor_is_reported_where_javac_does(
        tmp_path, capsys, monkeypatch, source, position):
    """At the subclass constructor's body, or at its class for an implicit
    one, as javac 17 reports it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "E.java").write_text(source)
    assert cli.main(["E.java", "--out", "out"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: E.java:{position}: class 'A' needs a zero-argument "
        "constructor (implicit super call)\n")
    if shutil.which("javac") is None:
        pytest.skip("javac is not on PATH")
    done = subprocess.run(["javac", "-d", "classes", "E.java"],
                          capture_output=True, text=True)
    head, _, caret = done.stderr.splitlines()[:3]
    line, col = position.split(":")
    assert head.startswith(f"E.java:{line}: error: constructor A in class A")
    assert caret.index("^") + 1 == int(col)


@pytest.mark.parametrize("source, position, message", [
    ("abstract class A {\n    abstract int f() { return 1; }\n}\n", "2:18",
     "abstract methods cannot have a body"),
    ("interface I { int f() { return 1; } }\n", "1:23",
     "interface abstract methods cannot have body"),
    ("class A {\n    int f();\n}\n", "2:9",
     "missing method body, or declare abstract"),
    ("interface I { int f(); }\nclass C implements I { }\n", "2:1",
     "'C' is not abstract and does not override abstract method 'f()' in 'I'"),
    ("abstract class A { abstract int f(int x); }\nclass C extends A { }\n",
     "2:1", "'C' is not abstract and does not override abstract method "
     "'f(int)' in 'A'"),
    # B's redeclaration hides A's body from C
    ("class A { int f() { return 1; } }\n"
     "abstract class B extends A { abstract int f(); }\n"
     "class C extends B { }\n", "3:1",
     "'C' is not abstract and does not override abstract method 'f()' in 'B'"),
    ("class A { static final int X = 1; A() { X = 2; } }\n", "1:41",
     "cannot assign a value to final variable X"),
    ("interface I { int K = 1; }\n"
     "class A implements I { void g() { K = 2; } }\n", "2:35",
     "cannot assign a value to final variable K"),
    ("class A { final int x; A() { x = 1; } void g() { x = 2; } }\n", "1:50",
     "cannot assign a value to final variable x"),
    ("class A { final int x; A(A o) { o.x = 1; x = 2; } }\n", "1:34",
     "cannot assign a value to final variable x"),
    ("class A { final int x; A() { this.x = 1; } }\n"
     "class B extends A { B() { x = 2; } }\n", "2:27",
     "cannot assign a value to final variable x"),
    # desugar moves the initializer into the constructor, before x = 3
    ("class A { final int x = 5; A() { x = 3; } }\n", "1:34",
     "cannot assign a value to final variable x"),
], ids=["abstract-method-with-body", "interface-method-with-body",
        "method-without-body", "interface-method-not-implemented",
        "abstract-method-not-implemented", "abstract-redeclaration",
        "static-final-field", "interface-field", "final-field-in-a-method",
        "final-field-of-another-object", "final-field-of-a-superclass",
        "final-field-with-an-initializer"])
def test_what_javac_rejects_for_its_modifiers_gives_exit_2_where_javac_says(
        tmp_path, capsys, monkeypatch, source, position, message):
    """An abstract method has no body and any other method one, a concrete
    class overrides every abstract method it inherits, and a final field
    is assigned only by its initializer or, without one, by its own
    class's constructors: each error is reported where javac 17 reports
    it, in its words."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "E.java").write_text(source)
    assert cli.main(["E.java", "--out", "out"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: E.java:{position}: {message}\n"
    if shutil.which("javac") is None:
        pytest.skip("javac is not on PATH")
    done = subprocess.run(["javac", "-d", "classes", "E.java"],
                          capture_output=True, text=True)
    head, _, caret = done.stderr.splitlines()[:3]
    line, col = position.split(":")
    unquoted = message.replace("'", "")
    assert head == f"E.java:{line}: error: {unquoted}"
    assert caret.index("^") + 1 == int(col)


@pytest.mark.parametrize("source, position, message, javacs", [
    ("class E {\n    harness static void t() { Object o = new Nope(); }\n}\n",
     "2:46", "unknown type 'Nope'", "cannot find symbol"),
    ("class A extends B { }\nclass B extends A { }\n", "1:1",
     "inheritance cycle through 'A'", "cyclic inheritance involving A"),
], ids=["new-of-an-unknown-class", "inheritance-cycle"])
def test_an_unknown_class_and_a_cycle_are_reported_where_javac_says(
        tmp_path, capsys, monkeypatch, source, position, message, javacs):
    """Each at the place javac 17 reports it: the class name after
    ``new``, and the declaration of the class that closes the cycle."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "E.java").write_text(source)
    assert cli.main(["E.java", "--out", "out"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: E.java:{position}: {message}\n"
    if shutil.which("javac") is None:
        pytest.skip("javac is not on PATH")
    # a run of spaces keeps the columns where ``harness`` was
    (tmp_path / "E.java").write_text(source.replace("harness", " " * 7))
    done = subprocess.run(["javac", "-d", "classes", "E.java"],
                          capture_output=True, text=True)
    head, _, caret = done.stderr.splitlines()[:3]
    line, col = position.split(":")
    assert head == f"E.java:{line}: error: {javacs}"
    assert caret.index("^") + 1 == int(col)


@pytest.mark.parametrize("source, position, message, javacs", [
    ("class Base { int v() { return 1; } } class E {\n"
     "    static int get() { return new Base() { Base() { } "
     "int v() { return 5; } }.v(); }\n}\n", "2:44",
     "invalid method declaration; return type required",
     "invalid method declaration; return type required"),
    ("class E {\n    static LinkedList<int> l;\n}\n", "2:23",
     "expected a class type, found 'int'", "unexpected type"),
    ("class E { }\nclass A extends int { }\n", "2:17",
     "expected a class type, found 'int'", "unexpected type"),
    ("class E {\n    static int k(int a) { a + 1; return a; }\n}\n", "2:29",
     "not a statement", "not a statement"),
    ("class E {\n    static int k(int a) { a; return a; }\n}\n", "2:27",
     "not a statement", "not a statement"),
], ids=["constructor-of-an-anonymous-class", "primitive-type-argument",
        "primitive-superclass", "binary-expression-statement",
        "name-statement"])
def test_what_javac_rejects_in_its_grammar_gives_exit_2_where_javac_says(
        tmp_path, capsys, monkeypatch, source, position, message, javacs):
    """A member of another class's name has no return type, an anonymous
    class has no constructor (JLS 15.9.5), a type argument and a supertype
    are class types (JLS 4.5.1, 8.1.4), and only an assignment, a call or
    a ``new`` stands as a statement (JLS 14.8): each at the place javac 17
    reports it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "E.java").write_text(source)
    assert cli.main(["E.java", "--out", "out"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: E.java:{position}: {message}\n"
    if shutil.which("javac") is None:
        pytest.skip("javac is not on PATH")
    # javac finds LinkedList by the import, which keeps the lines as they are
    (tmp_path / "E.java").write_text("import java.util.*; " + source)
    done = subprocess.run(["javac", "-d", "classes", "E.java"],
                          capture_output=True, text=True)
    head, _, caret = done.stderr.splitlines()[:3]
    line, col = position.split(":")
    assert head == f"E.java:{line}: error: {javacs}"
    assert caret.index("^") + 1 == int(col)


def test_a_programs_own_object_gives_no_field_to_a_class_naming_no_superclass(
        tmp_path, capsys, monkeypatch):
    """``A`` extends the library root, not the program's ``Object``, so
    ``a.k`` is no field of it; javac 17 rejects it too."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "E.java").write_text(
        "class Object { int k = 2; }\nclass A { }\nclass Outer {\n"
        "    harness static void t() { A a = new A(); assert a.k == ??; }\n}\n")
    assert cli.main(["E.java", "--out", "out"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == \
        "error: E.java:4:54: no field 'k' in class 'A'\n"
    if shutil.which("javac") is None:
        pytest.skip("javac is not on PATH")
    text = (tmp_path / "E.java").read_text().replace("harness ", "")
    (tmp_path / "E.java").write_text(text.replace("??", "2"))
    done = subprocess.run(["javac", "-d", "classes", "E.java"],
                          capture_output=True, text=True)
    assert done.returncode != 0
    assert done.stderr.startswith("E.java:4: error: cannot find symbol")
