// Fixture: the per-line NOLINT escape silences raw-affinity.
void f(pthread_t t, cpu_set_t *s) {
    pthread_setaffinity_np(t, sizeof(*s), s); // NOLINT(raw-affinity)
}
