#include "widget/widget.hpp"

int widget_size() { return 3; }
