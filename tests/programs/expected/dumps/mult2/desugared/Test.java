class Test {
    harness static void test() {
        assert SimpleMath.mult2(3) == 6;
    }
    Test() {
    }
}
