// Fixture: an argumentless next() (Rng) is not TraceSource::next.
void f(Rng &rng) {
    uint64_t x = rng.next() & 0xff;
    (void)x;
}
