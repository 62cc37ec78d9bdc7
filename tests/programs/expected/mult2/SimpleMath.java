class SimpleMath {
    static int mult2(int x) {
        return 2 * x;
    }
    SimpleMath() {
    }
}
