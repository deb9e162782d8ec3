// Fixture: a member merely containing "open" is not fopen.
void f(TraceReader &r) {
    auto s = r.reopen();
    (void)s;
}
