// Fixture: raw-result-write fires on std::fopen in src/.
void f() {
    FILE *fp = std::fopen("out.json", "w");
    (void)fp;
}
