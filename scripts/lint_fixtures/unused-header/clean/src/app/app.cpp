// Fixture: an includer under src/ keeps widget.hpp alive; the quoted
// include next to it resolves against this file's own directory.
#include "app_config.hpp"
#include "widget/widget.hpp"

int app_main() { return widget_size() + kAppWidgets; }
