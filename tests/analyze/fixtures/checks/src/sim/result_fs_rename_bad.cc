// Fixture: raw-result-write fires on std::filesystem::rename in src/.
void f() {
    std::filesystem::rename("a.tmp", "a.json");
}
