// Fixture: names that spawn nothing are not raw threads.
void f() {
    std::this_thread::yield();
    std::thread::id tid;
    unsigned hw = std::thread::hardware_concurrency();
    (void)hw;
}
