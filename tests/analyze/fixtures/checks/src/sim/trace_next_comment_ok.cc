// Fixture: a comment mentioning the call is not a replay loop.
void f() {
    // calls source.next(record)
}
