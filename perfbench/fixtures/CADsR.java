class CADsR extends Automaton {
    int init_state_backup;
    public CADsR() { init_state_backup = state; }
    public boolean accept(String str) {
        state = init_state_backup;
        transitions(convertToIterator(str));
        return accept();
    }
}
