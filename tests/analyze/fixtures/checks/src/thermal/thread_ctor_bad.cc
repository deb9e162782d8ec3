// Fixture: raw-thread fires on std::thread construction outside
// src/exec/.
void f() {
    std::thread t(work);
    t.join();
}
