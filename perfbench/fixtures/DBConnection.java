class DBConnection {
    class Monitor extends Automaton {
        final static Token OPEN =
            new Token() { public int getId() { return 1; } };
        final static Token CLOSE =
            new Token() { public int getId() { return 2; } };
        public Monitor() { }
    }
    Monitor m;
    public DBConnection() { m = new Monitor(); }
    public boolean isErroneous() { return ! m.accept(); }
    public void open() { m.transition(Monitor.OPEN); }
    public void close() { m.transition(Monitor.CLOSE); }
}
