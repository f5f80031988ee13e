// One-off tool: prints a digest of the half-gates tables produced by a
// fixed, deterministic gate sequence. Used to pin bit-identical garbling
// across the crypto refactor (the digest is hardcoded in tests/gc_test.cpp).
// The digest computation itself lives in gc/golden_digest.h, shared with the
// test so tool and test cannot drift.
#include <cstdio>

#include "gc/golden_digest.h"

using namespace arm2gc;

int main() {
  std::printf("digest=%s\n", gc::golden_table_digest().c_str());
  return 0;
}
