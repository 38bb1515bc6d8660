// Traced binary: allocation counts come from the counting operator new
// shims of bench/report/alloc_hook.cc, linked into this executable only.
#include "common.h"
#include "report/alloc_hook.h"

namespace opcbench {

std::uint64_t alloc_count() { return opc::benchreport::allocation_count(); }
bool alloc_counting() { return true; }

}  // namespace opcbench
