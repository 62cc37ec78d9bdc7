class TestCADsR {
    harness static void examples() {
        CADsR a = new CADsR();
        assert !a.accept("c");
        assert !a.accept("cr");
        assert a.accept("car");
        assert a.accept("cdr");
    }
    TestCADsR() {
    }
}
