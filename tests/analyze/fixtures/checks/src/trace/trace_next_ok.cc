// Fixture: the batch readers in src/trace/ call next() by design;
// the rule is scoped to src/sim/ and bench/.
void f(TraceSource &s, TraceRecord &r) {
    while (s.next(r)) {}
}
