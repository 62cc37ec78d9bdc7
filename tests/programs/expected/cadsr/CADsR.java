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
    static int num_state = 2;
    static void min_num_state() {
    }
    public void transition(Token t) {
        assert 0 <= state && state < num_state;
        int id = t.getId();
        {
            if (state == 1 && id == 97) {
                state = 0;
                assert 0 <= state && state < num_state;
                return;
            }
            if (state == 1 && id == 100) {
                state = 0;
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
        return state <= 0;
    }
    Automaton1() {
        state = 1;
    }
}
