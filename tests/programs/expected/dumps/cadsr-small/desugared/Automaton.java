interface Token {
    public int getId();
}
