#include "lib/bench_only.h"

int main() { return BenchOnly(); }
