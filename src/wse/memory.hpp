#pragma once
// Per-PE local memory: a 48 KiB arena with named, aligned, bump-pointer
// allocations. There is no free(): like the real CSL programs, device
// kernels statically lay out their buffers once; the allocator exists to
// *account* for every byte so that out-of-memory is a first-class,
// testable failure (the paper's Sec. III-E1 is entirely about fitting the
// largest possible Nz into 48 KiB). The capacity is an accounting limit
// only: the host storage holds exactly the allocated bytes and grows with
// each allocation, so a fabric of PEs that use 1 KiB each costs 1 KiB per
// PE, not 48.

#include <cstring>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace fvdf::wse {

/// A fabric's per-PE arena size.
struct PeMemoryParams {
  u64 capacity_bytes = 48 * 1024;
  u64 reserved_bytes = 2048; // models program text + stack
};

/// Handle to an fp32 array inside a PE's memory.
struct MemSpan {
  u32 offset_words = 0; // offset in 32-bit words
  u32 length = 0;       // number of fp32 elements
};

class PeMemory {
public:
  /// One named span of the allocation map.
  struct Allocation {
    std::string name;
    u32 offset_bytes;
    u32 size_bytes;
  };

  /// `capacity_bytes` models the PE's SRAM; `reserved_bytes` accounts for
  /// program text + stack (not individually simulated) and is subtracted
  /// from the allocatable budget.
  explicit PeMemory(u64 capacity_bytes = PeMemoryParams{}.capacity_bytes,
                    u64 reserved_bytes = PeMemoryParams{}.reserved_bytes);

  /// Allocates `count` fp32 words. Throws fvdf::Error with a full
  /// allocation map when the arena would overflow.
  MemSpan alloc_f32(const std::string& name, u32 count);

  /// Allocates raw bytes (e.g. the Dirichlet mask), 4-byte aligned.
  MemSpan alloc_bytes(const std::string& name, u32 count);

  u64 capacity_bytes() const { return capacity_; }
  u64 reserved_bytes() const { return reserved_; }
  u64 used_bytes() const { return storage_.size(); }
  u64 free_bytes() const { return capacity_ - reserved_ - used_bytes(); }

  // fp32 view of the arena. All accessors are bounds-checked and inline —
  // they sit under every simulated DSD element and every ramp word, so the
  // failure path (diagnostic string building) lives out of line.
  f32 load(u32 word_offset) const {
    check_words(word_offset, 1);
    f32 value;
    std::memcpy(&value, storage_.data() + word_offset * 4u, 4);
    return value;
  }
  void store(u32 word_offset, f32 value) {
    check_words(word_offset, 1);
    std::memcpy(storage_.data() + word_offset * 4u, &value, 4);
  }

  /// Bulk fp32 access for contiguous (stride-1) transfers: one bounds
  /// check and one memcpy instead of a load/store per word. The fabric's
  /// ramp delivery and send-gather paths live on these.
  void load_words(u32 word_offset, f32* dst, u32 count) const {
    check_words(word_offset, count);
    std::memcpy(dst, storage_.data() + static_cast<u64>(word_offset) * 4u,
                static_cast<std::size_t>(count) * 4u);
  }
  void store_words(u32 word_offset, const f32* src, u32 count) {
    check_words(word_offset, count);
    std::memcpy(storage_.data() + static_cast<u64>(word_offset) * 4u, src,
                static_cast<std::size_t>(count) * 4u);
  }
  f32* word_ptr(u32 word_offset) {
    check_words(word_offset, 1);
    return reinterpret_cast<f32*>(storage_.data() + word_offset * 4u);
  }
  const f32* word_ptr(u32 word_offset) const {
    check_words(word_offset, 1);
    return reinterpret_cast<const f32*>(storage_.data() + word_offset * 4u);
  }
  /// Pointer to a whole [offset, offset+count) word range, bounds-checked
  /// once — the entry point of the vectorized DSD fast path.
  f32* span_ptr(u32 word_offset, u32 count) {
    check_words(word_offset, count);
    return reinterpret_cast<f32*>(storage_.data() + word_offset * 4u);
  }
  const f32* span_ptr(u32 word_offset, u32 count) const {
    check_words(word_offset, count);
    return reinterpret_cast<const f32*>(storage_.data() + word_offset * 4u);
  }

  /// Byte view (for mask arrays).
  u8 load_byte(u32 byte_offset) const {
    if (byte_offset >= storage_.size()) bounds_fail(byte_offset / 4, 1);
    return storage_[byte_offset];
  }
  void store_byte(u32 byte_offset, u8 value) {
    if (byte_offset >= storage_.size()) bounds_fail(byte_offset / 4, 1);
    storage_[byte_offset] = value;
  }

  /// Human-readable allocation map (used in OOM diagnostics and tests).
  std::string allocation_map() const;

  /// The allocation map and the allocated bytes [0, used_bytes()): what a
  /// PE image (wse/program.hpp) records of the arena it was built in.
  const std::vector<Allocation>& allocations() const { return allocations_; }
  const std::vector<u8>& contents() const { return storage_; }

  /// Overwrites the allocated bytes with `bytes`, a copy of contents()
  /// taken since the last allocation (the fast-forward's period rollback).
  void overwrite(const u8* bytes) {
    std::memcpy(storage_.data(), bytes, storage_.size());
  }

  /// The allocation named `name`; throws naming it when there is none.
  const Allocation& allocation(const std::string& name) const;

  /// Replaces the allocation map and the allocated bytes with an image's.
  /// Throws the allocator's overflow error when they do not fit.
  void assign(const std::vector<Allocation>& allocations,
              const std::vector<u8>& contents);

private:
  u32 alloc_raw(const std::string& name, u32 bytes);

  void check_words(u32 word_offset, u32 count) const {
    if ((static_cast<u64>(word_offset) + count) * 4 > storage_.size())
      bounds_fail(word_offset, count);
  }
  [[noreturn]] void bounds_fail(u32 word_offset, u32 count) const;
  [[noreturn]] void overflow_fail(const std::string& name, u64 bytes) const;

  u64 capacity_;
  u64 reserved_;
  std::vector<u8> storage_; // the allocated bytes [0, used_bytes())
  std::vector<Allocation> allocations_;
};

} // namespace fvdf::wse
