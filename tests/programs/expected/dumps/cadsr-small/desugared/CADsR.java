class CADsR extends Automaton1 {
    int init_state_backup;
    public CADsR() {
        init_state_backup = state;
    }
    public boolean accept(String str) {
        state = init_state_backup;
        transitions(convertToIterator(str));
        return accept();
    }
}
class Automaton1 {
    private int state;
    static int num_state = ??;
    harness static void min_num_state() {
        minimize(num_state);
    }
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
    public void transitions(Iterator it) {
        while (it.hasNext()) {
            transition(it.next());
        }
    }
    public boolean accept() {
        return state <= ??;
    }
    Automaton1() {
        state = ??;
    }
}
