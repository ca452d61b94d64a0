// Positive: only its own implementation includes it.
#ifndef LIB_ORPHAN_H_
#define LIB_ORPHAN_H_
int Orphan();
#endif
