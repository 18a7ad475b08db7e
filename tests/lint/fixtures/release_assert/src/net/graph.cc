#include <cassert>

static_assert(sizeof(int) >= 2, "a static_assert must not fire");
// assert( in a comment must not fire.
void add_edge(int src, int dst) {
  assert(src != dst);
  const char* msg = "assert(src != dst) inside a string";
  (void)msg;
}
