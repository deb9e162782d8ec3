// Fixture: the identical spawn is sanctioned inside src/exec/ (the
// pool's own implementation) by an [[allow]] entry.
void f() {
    std::jthread w(loop);
}
