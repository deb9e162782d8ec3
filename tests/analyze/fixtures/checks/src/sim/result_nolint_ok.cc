// Fixture: the per-line NOLINT escape silences raw-result-write.
void f() {
    std::rename("a", "b"); // NOLINT(raw-result-write)
}
