#pragma once
// Fixture: include-guard fires on a header without a NANOBUS_*_HH
// guard.
struct X {};
