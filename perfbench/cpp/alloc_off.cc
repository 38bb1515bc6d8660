// End-to-end binary: the default allocator, uncounted.
#include "common.h"

namespace opcbench {

std::uint64_t alloc_count() { return 0; }
bool alloc_counting() { return false; }

}  // namespace opcbench
