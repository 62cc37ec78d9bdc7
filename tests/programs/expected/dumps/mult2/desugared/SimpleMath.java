class SimpleMath {
    static int mult2(int x) {
        return ?? * {| x, 0 |};
    }
    SimpleMath() {
    }
}
