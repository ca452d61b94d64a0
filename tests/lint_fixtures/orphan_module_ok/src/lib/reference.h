// A reference implementation only the tests use.
//
// qrank-lint: allow(orphan-module) the oracle the tests compare against
#ifndef LIB_REFERENCE_H_
#define LIB_REFERENCE_H_
inline int Reference() { return 0; }
#endif
