// Fixture: the per-line NOLINT escape silences raw-thread.
void f() {
    std::thread t(w); // NOLINT(raw-thread)
}
