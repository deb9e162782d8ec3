// Fixture: a comment mentioning the type is not a raw thread.
void f() {
    // never use std::thread here
}
