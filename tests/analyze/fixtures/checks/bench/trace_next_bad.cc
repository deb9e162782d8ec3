// Fixture: raw-trace-next fires on a per-record replay loop in a
// bench program.
void f(TraceSource &s, TraceRecord &r) {
    while (s.next(r)) {}
}
