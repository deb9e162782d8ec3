// Fixture: nbcheck's own families have no in-source escape; a
// NOLINT naming det-legacy-rand does not silence it.
int f() {
    return rand(); // NOLINT(det-legacy-rand)
}
