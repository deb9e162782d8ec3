// Fixture: raw-trace-next fires on a per-record replay loop in
// src/sim/.
void f(TraceSource &s, TraceRecord &r) {
    while (s.next(r)) {}
}
