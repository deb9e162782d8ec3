// Fixture: a comment mentioning the call is not a raw write.
void f() {
    // never call std::rename here
}
