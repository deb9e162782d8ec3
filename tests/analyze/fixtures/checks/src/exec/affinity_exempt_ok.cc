// Fixture: the identical pinning call is sanctioned inside src/exec/
// (the topology shim) by an [[allow]] entry.
void f(pthread_t t, cpu_set_t *s) {
    pthread_setaffinity_np(t, sizeof(*s), s);
}
