// Fixture: raw-result-write fires on std::rename in src/.
void f() {
    std::rename("a.tmp", "a.json");
}
