// Fixture: raw-unit-double fires on a kelvin-suffixed double
// parameter of a const member.
#ifndef NANOBUS_X_HH
double mttf(double temp_k) const;
#endif // NANOBUS_X_HH
