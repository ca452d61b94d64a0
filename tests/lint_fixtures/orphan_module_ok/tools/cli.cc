#include "lib/api.h"

int main() { return Api(); }
