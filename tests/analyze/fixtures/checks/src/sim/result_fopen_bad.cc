// Fixture: raw-result-write fires on unqualified fopen in src/.
void f() {
    FILE *fp = fopen("out.csv", "w");
    (void)fp;
}
