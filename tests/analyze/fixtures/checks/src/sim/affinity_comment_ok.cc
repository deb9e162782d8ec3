// Fixture: a comment mentioning the call is not a raw affinity call.
void f() {
    // wraps pthread_setaffinity_np behind a shim
}
