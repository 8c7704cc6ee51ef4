#include "widget/widget.hpp"

int main() { return widget_size() == 3 ? 0 : 1; }
