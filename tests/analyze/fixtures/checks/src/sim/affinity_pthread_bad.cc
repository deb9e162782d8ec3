// Fixture: raw-affinity fires on pthread_setaffinity_np outside
// src/exec/.
void f(pthread_t t, cpu_set_t *s) {
    pthread_setaffinity_np(t, sizeof(*s), s);
}
