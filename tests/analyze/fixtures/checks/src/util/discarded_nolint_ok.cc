// Fixture: the per-line NOLINT escape silences discarded-result.
void f(Solver &s) {
    s.trySolve(b); // NOLINT(discarded-result)
}
