#pragma once
// Fixture: included by src/app/app.cpp besides its own .cpp, so the
// unused-header rule must be silent.
int widget_size();
