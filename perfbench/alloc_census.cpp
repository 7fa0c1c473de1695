// alloc_census.cpp — replacement global operator new/delete that count heap
// allocations per thread.  Linked into the benchmark binary only, so the
// library is measured as shipped; the counts feed sim.allocs_per_step and
// core.allocs_per_step.  A thread-local counter keeps the engine's workers
// from contending on one cache line in the timed runs.
//
// libstdc++'s nothrow forms forward to these, so the plain, array and
// aligned forms below cover every allocation the library makes.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;

void* allocate(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

std::uint64_t perfbench::thread_allocations() noexcept { return t_allocations; }

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
