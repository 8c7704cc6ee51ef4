#pragma once
// Fixture: only its own .cpp and a test include this header, so the
// unused-header rule must flag it.
int widget_size();
