// Fixture: a brute-force reference only tests include; it opts out on its
// `#pragma once` line.
#pragma once  // lint:allow unused-header -- test oracle
inline int brute_force_widget_size() { return 3; }
