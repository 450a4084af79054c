#pragma once
// Pooled, reference-counted flit payload buffers.
//
// Every ctx_send used to allocate a fresh shared_ptr<vector<f32>> (two
// heap allocations: control block plus words) that died as soon as the
// last copy of the message was delivered. The pool recycles the vectors —
// capacity and all — through an intrusive free list, and replaces
// shared_ptr with an intrusive refcount, so a steady-state send costs no
// allocation at all and a broadcast fan-out costs one increment instead of
// a control-block bump through a separate cache line.
//
// Ownership discipline: the pool is single-threaded. The parallel engine
// gives every shard its own pool, and a payload never leaves its shard's
// thread — a flit crossing a tile boundary travels as a copy of its words
// in the SPSC channel and is re-pooled by the destination shard
// (wse/fabric.hpp) — so acquire, copy and release all run on the owning
// worker and neither the refcount nor the free list needs synchronization.

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace fvdf::wse {

class PayloadPool;

namespace detail {
struct PayloadNode {
  std::vector<f32> words;
  u32 refs = 0;
  PayloadPool* pool = nullptr;
  PayloadNode* next = nullptr; // free-list link, valid only while pooled
};
} // namespace detail

/// Shared handle to a pooled payload buffer. Copying bumps an intrusive
/// refcount; destroying the last reference returns the buffer to its pool.
/// Only the pool's owning thread may copy or destroy a handle.
class PayloadRef {
public:
  PayloadRef() = default;
  PayloadRef(const PayloadRef& other) : node_(other.node_) {
    if (node_) ++node_->refs;
  }
  PayloadRef(PayloadRef&& other) noexcept : node_(other.node_) { other.node_ = nullptr; }
  PayloadRef& operator=(const PayloadRef& other) {
    PayloadRef copy(other);
    std::swap(node_, copy.node_);
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~PayloadRef() { reset(); }

  // Inline null test: most PayloadRef destructions are of empty handles
  // (moved-from flits, control wavelets), and this sits on the per-event
  // path. The recycle stays out of line.
  void reset() {
    if (node_) release();
  }

  explicit operator bool() const { return node_ != nullptr; }
  const std::vector<f32>& operator*() const { return node_->words; }
  const std::vector<f32>* operator->() const { return &node_->words; }

  /// Mutable access to the words; only legal while this is the sole
  /// reference (filling a fresh buffer, fault injection before the message
  /// enters the fabric).
  std::vector<f32>& mutate();

private:
  friend class PayloadPool;
  explicit PayloadRef(detail::PayloadNode* node) : node_(node) {}
  void release(); // non-null drop path
  detail::PayloadNode* node_ = nullptr;
};

class PayloadPool {
public:
  PayloadPool() = default;
  ~PayloadPool();
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// Returns an empty buffer with at least `reserve_words` capacity and a
  /// refcount of one. Reuses a recycled buffer when one is available.
  PayloadRef acquire(std::size_t reserve_words);

private:
  friend class PayloadRef;

  detail::PayloadNode* free_ = nullptr;
};

} // namespace fvdf::wse
