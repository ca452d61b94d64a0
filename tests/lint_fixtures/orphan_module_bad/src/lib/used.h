// Included by tools/cli.cc: a production caller, so never flagged.
#ifndef LIB_USED_H_
#define LIB_USED_H_
int Used();
#endif
