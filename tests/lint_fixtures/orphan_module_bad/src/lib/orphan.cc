#include "lib/orphan.h"

int Orphan() { return 1; }
