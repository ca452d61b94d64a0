// Included only by bench/bench_lib.cc, which counts as a caller.
#ifndef LIB_BENCH_ONLY_H_
#define LIB_BENCH_ONLY_H_
inline int BenchOnly() { return 0; }
#endif
