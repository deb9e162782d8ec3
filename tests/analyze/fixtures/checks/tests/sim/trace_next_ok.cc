// Fixture: tests may iterate a source record by record; the rule is
// scoped to src/sim/ and bench/.
void f(TraceSource &s, TraceRecord &r) {
    while (s.next(r)) {}
}
