class TestDBConnection {
    static void scenario_good() {
        DBConnection conn = new DBConnection();
        assert !conn.isErroneous();
        conn.open();
        assert !conn.isErroneous();
        conn.close();
        assert !conn.isErroneous();
    }
    static void scenario_bad1() {
        DBConnection conn = new DBConnection();
        conn.open();
        conn.open();
        assert conn.isErroneous();
    }
    static void scenario_bad2() {
        DBConnection conn = new DBConnection();
        conn.open();
        conn.close();
        conn.close();
        assert conn.isErroneous();
    }
    TestDBConnection() {
    }
}
