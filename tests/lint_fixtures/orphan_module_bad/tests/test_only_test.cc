#include "lib/test_only.h"

int main() { return TestOnly() == 2 ? 0 : 1; }
