// Fixture: using-namespace fires in a header.
#ifndef NANOBUS_X_HH
using namespace std;
#endif // NANOBUS_X_HH
