// Fixture: the per-line NOLINT escape silences raw-trace-next.
void f(TraceSource &s, TraceRecord &r) {
    while (s.next(r)) { // NOLINT(raw-trace-next)
    }
}
