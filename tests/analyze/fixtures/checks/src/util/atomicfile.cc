// Fixture: writeFileAtomic's own temp+rename is sanctioned by an
// [[allow]] entry on this exact path.
void f() {
    std::rename("a.tmp", "a.json");
}
