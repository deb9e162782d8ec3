// Fixture: raw-result-write fires on std::fopen in a bench program.
void f() {
    FILE *fp = std::fopen("out.json", "w");
    (void)fp;
}
