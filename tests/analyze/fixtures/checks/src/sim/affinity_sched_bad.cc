// Fixture: raw-affinity fires on sched_setaffinity outside src/exec/.
void f(cpu_set_t *s) {
    sched_setaffinity(0, sizeof(*s), s);
}
