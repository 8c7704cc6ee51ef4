#pragma once
// Fixture: included directory-relative by src/app/app.cpp.
inline constexpr int kAppWidgets = 2;
