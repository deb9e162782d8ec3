// Fixture: a Quantity-typed parameter is not a raw unit double.
#ifndef NANOBUS_X_HH
void step(Joules energy, int n);
#endif // NANOBUS_X_HH
