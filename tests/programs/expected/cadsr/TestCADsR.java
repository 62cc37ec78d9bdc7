class TestCADsR {
    static void examples() {
        CADsR a = new CADsR();
        assert !a.accept("c");
        assert !a.accept("cr");
        assert a.accept("car");
        assert a.accept("cdr");
        assert a.accept("caar");
        assert a.accept("cadr");
        assert a.accept("cdar");
        assert a.accept("cddr");
    }
    TestCADsR() {
    }
}
