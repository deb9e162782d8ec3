// Fixture: nextBatch() is the sanctioned batch pull, not next().
void f(BatchSource &b) {
    auto r = b.nextBatch();
    (void)r;
}
