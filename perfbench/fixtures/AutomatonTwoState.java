interface Token { public int getId(); }

generator class Automaton {
    private int state = ??;
    static int num_state = 2;
    public void transition(Token t) {
        assert 0 <= state && state < num_state;
        int id = t.getId();
        minrepeat {
            if (state == ?? && id == ??) {
                state = ??;
                assert 0 <= state && state < num_state;
                return;
            }
        }
    }
    public void transitions(Iterator<Token> it) {
        while (it.hasNext()) { transition(it.next()); }
    }
    public boolean accept() { return state <= ??; }
}
