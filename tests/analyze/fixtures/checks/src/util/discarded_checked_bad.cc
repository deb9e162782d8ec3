// Fixture: discarded-result fires on a free *Checked call used as a
// bare statement.
void f() {
    integrateChecked(sys, y, dt);
}
