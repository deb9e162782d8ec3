// Fixture: raw-unit-double fires on a joule-suffixed double
// parameter in a header.
#ifndef NANOBUS_X_HH
void step(double energy_j, int n);
#endif // NANOBUS_X_HH
