// Fixture: std::remove (temp cleanup) stays allowed.
void f() {
    std::remove("stale.tmp");
}
