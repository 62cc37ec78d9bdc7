class DBConnection {
    Monitor_DBConnection m;
    public DBConnection() {
        m = new Monitor_DBConnection();
    }
    public boolean isErroneous() {
        return !m.accept();
    }
    public void open() {
        m.transition(Monitor_DBConnection.OPEN);
    }
    public void close() {
        m.transition(Monitor_DBConnection.CLOSE);
    }
}
class Monitor_DBConnection extends Automaton1 {
    final static Token OPEN = new Token_1();
    final static Token CLOSE = new Token_2();
    public Monitor_DBConnection() {
    }
}
class Automaton1 {
    private int state;
    static int num_state = 3;
    static void min_num_state() {
    }
    public void transition(Token t) {
        assert 0 <= state && state < num_state;
        int id = t.getId();
        {
            if (state == 0 && id == 1) {
                state = 1;
                assert 0 <= state && state < num_state;
                return;
            }
            if (state == 0 && id == 2) {
                state = 2;
                assert 0 <= state && state < num_state;
                return;
            }
            if (state == 1 && id == 1) {
                state = 2;
                assert 0 <= state && state < num_state;
                return;
            }
            if (state == 1 && id == 2) {
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
        return state <= 1;
    }
    Automaton1() {
        state = 0;
    }
}
class Token_1 implements Token {
    public int getId() {
        return 1;
    }
    Token_1() {
    }
}
class Token_2 implements Token {
    public int getId() {
        return 2;
    }
    Token_2() {
    }
}
