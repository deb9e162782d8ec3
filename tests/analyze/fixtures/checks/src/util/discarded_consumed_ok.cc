// Fixture: a consumed result is not discarded.
void f(Solver &s) {
    auto r = s.trySolve(b);
    (void)r;
}
