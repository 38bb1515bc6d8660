#include "report/alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace opc::benchreport {
namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace opc::benchreport

// --- Global replacement of the allocation functions (counting shims) ---

void* operator new(std::size_t size) {
  void* p = opc::benchreport::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return opc::benchreport::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return opc::benchreport::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = opc::benchreport::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return opc::benchreport::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return opc::benchreport::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
// Every aligned form must be replaced too: one left to the runtime (or to a
// sanitizer's interposer) frees posix_memalign memory through a different
// allocator.  The sized forms take (size, alignment), in that order.
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
