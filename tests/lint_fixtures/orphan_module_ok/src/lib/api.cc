#include "lib/api.h"

#include "detail.h"

int Api() { return Detail(); }
