// Over-aligned allocator for the decoder row arenas.
//
// The SIMD GF kernels (gf/backend/) are correct on any buffer -- they use
// unaligned loads/stores -- but a 32-byte-aligned row never straddles a cache
// line at AVX2 width, so the decoders allocate their arenas through this
// allocator and pad the row stride to a 32-byte multiple (see
// linalg/rref_view.hpp): every row stripe then starts on a 32-byte
// boundary and the elimination axpys run on the aligned fast path.
//
// Value-less construction default-initialises: sizing a vector of trivial
// elements (`vector(n)`, `resize(n)`) allocates without writing a byte, so a
// decoder's full-rank arena costs no page faults until rows land in it.
// Pass an explicit value (`vector(n, T{})`) where zeros are wanted.
//
// An alignment no stricter than operator new's default (16 bytes on x86-64)
// takes the plain allocation path: UninitVector<T> is the unwritten,
// malloc-aligned vector the pooled rank stores (core/swarm_storage.hpp) size
// their whole-swarm row arenas with.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

namespace ag::util {

template <typename T, std::size_t Align = 32>
struct AlignedAllocator {
  static_assert(Align >= alignof(T), "Align must not weaken T's alignment");
  static_assert((Align & (Align - 1)) == 0, "Align must be a power of two");

  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using is_always_equal = std::true_type;

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if constexpr (Align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    } else {
      return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Align}));
    }
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if constexpr (Align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      ::operator delete(p, n * sizeof(T));
    } else {
      ::operator delete(p, n * sizeof(T), std::align_val_t{Align});
    }
  }
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) noexcept {
    return true;
  }
};

// A vector whose value-less sizing leaves the elements unwritten, at T's own
// alignment.
template <typename T>
using UninitVector = std::vector<T, AlignedAllocator<T, alignof(T)>>;

// Rounds a count of ElemSize-byte elements up so the total is a multiple of
// `Align` bytes (used to pad row strides).  ElemSize must divide Align, or
// no element-count multiple can land on an Align boundary at all -- enforced
// at compile time rather than silently producing a non-aligning stride.
template <std::size_t Align, std::size_t ElemSize>
constexpr std::size_t round_up_elems(std::size_t count) noexcept {
  static_assert(ElemSize > 0 && Align % ElemSize == 0,
                "element size must divide the alignment");
  constexpr std::size_t per = Align / ElemSize;  // elements per aligned block
  return (count + per - 1) / per * per;
}

}  // namespace ag::util
