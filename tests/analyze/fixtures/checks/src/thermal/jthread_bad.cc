// Fixture: raw-thread fires on std::jthread outside src/exec/.
void f() {
    std::jthread w([](std::stop_token) {});
}
