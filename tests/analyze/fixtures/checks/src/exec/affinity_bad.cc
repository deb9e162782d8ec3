// Fixture: raw-affinity fires inside src/exec/ too; no tree has a
// sanctioned affinity call.
void f(pthread_t t, cpu_set_t *s) {
    pthread_setaffinity_np(t, sizeof(*s), s);
}
