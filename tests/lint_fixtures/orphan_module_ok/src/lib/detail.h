// Included by another module's .cc (api.cc, a same-directory include).
#ifndef LIB_DETAIL_H_
#define LIB_DETAIL_H_
inline int Detail() { return 0; }
#endif
