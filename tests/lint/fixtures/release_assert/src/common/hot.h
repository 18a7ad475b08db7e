#include <cassert>

// Allowlisted in the fixture config: a hot accessor keeps its assert.
inline int at(const int* p, int i, int n) {
  assert(i < n);
  return p[i];
}
