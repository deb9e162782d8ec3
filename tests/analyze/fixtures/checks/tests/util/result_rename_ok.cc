// Fixture: tests may poke at files directly; the rule is scoped to
// src/ and bench/.
void f() {
    std::rename("a.tmp", "a.json");
}
