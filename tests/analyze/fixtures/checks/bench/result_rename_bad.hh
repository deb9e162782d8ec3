// Fixture: raw-result-write fires on std::rename in a bench header.
#ifndef NANOBUS_X_HH
inline void f() {
    std::rename("a.tmp", "a.json");
}
#endif // NANOBUS_X_HH
