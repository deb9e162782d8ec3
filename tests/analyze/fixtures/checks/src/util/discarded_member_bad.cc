// Fixture: discarded-result fires on a member try* call used as a
// bare statement.
void f(Solver &s) {
    s.trySolve(b);
}
