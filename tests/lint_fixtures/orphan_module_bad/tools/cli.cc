#include "lib/used.h"

int main() { return Used(); }
