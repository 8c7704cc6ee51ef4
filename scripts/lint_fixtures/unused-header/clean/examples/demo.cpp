#include "gadget/gadget.hpp"

int main() { return gadget_count() - 1; }
