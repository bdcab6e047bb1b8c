/// \file alloc_hook.cpp
/// Interposing global operator new/delete pair feeding the
/// prof::alloc_hook counters. NOT part of the dsouth_prof library: a
/// replacement operator new only takes effect when its object file is
/// linked into the final binary, and pulling a no-undefined-symbol object
/// out of a static archive is linker-dependent — so targets opt in by
/// compiling this TU directly via `dsouth_enable_alloc_tracking(target)`
/// (src/prof/CMakeLists.txt). bench/scaling and tests/test_prof do.
///
/// Every replaced operator new — throwing and nothrow, plain, array and
/// aligned — routes through one counting malloc/posix_memalign path, and
/// every operator delete through note_free + free. That is consistent, but
/// GCC cannot see it once it inlines the operators into callers and warns
/// about new/free mismatches (the same suppression tests/test_wire.cpp's
/// counting pair needs).

#include <algorithm>
#include <cstdlib>
#include <new>

#include "prof/prof.hpp"

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
// Flips alloc_hook::available() exactly once, before main.
const bool g_hook_registered = [] {
  dsouth::prof::alloc_hook::detail::set_available();
  return true;
}();
}  // namespace

namespace {
// The counting allocation path every operator new below routes through;
// null on exhaustion (the throwing forms turn that into std::bad_alloc).
void* counted_alloc(std::size_t n) noexcept {
  dsouth::prof::alloc_hook::detail::note_alloc(n);
  return std::malloc(n ? n : 1);
}
void* counted_alloc(std::size_t n, std::align_val_t al) noexcept {
  dsouth::prof::alloc_hook::detail::note_alloc(n);
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  return ::posix_memalign(&p, align, n ? n : 1) == 0 ? p : nullptr;
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// be replaced too: otherwise their memory comes from the toolchain's
// allocator and is released here by free().
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept {
  dsouth::prof::alloc_hook::detail::note_free();
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
