// Positive: its only includer is a test, and tests are not callers.
#ifndef LIB_TEST_ONLY_H_
#define LIB_TEST_ONLY_H_
inline int TestOnly() { return 2; }
#endif
