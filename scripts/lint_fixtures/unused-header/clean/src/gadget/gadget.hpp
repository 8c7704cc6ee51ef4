#pragma once
// Fixture: only an example includes this header, which counts as a user.
inline int gadget_count() { return 1; }
