// Fixture: raw-thread fires on std::async outside src/exec/.
void f() {
    auto fut = std::async(work);
}
