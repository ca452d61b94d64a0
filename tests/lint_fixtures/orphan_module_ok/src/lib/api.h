// Included by tools/cli.cc.
#ifndef LIB_API_H_
#define LIB_API_H_
int Api();
#endif
