#pragma once
// The fabric's per-shard event queue: a calendar queue of half-cycle
// buckets, each a sorted run read through a cursor.
//
// Events pop in ascending (t, order) order, where `order` is the engine's
// u64 tie-break key (see Fabric::Event). The default TimingParams put every
// event time on a multiple of 0.5 cycle, and nearly every event is
// scheduled within a few hundred cycles of the one that emitted it. So the
// queue keeps a ring of kBuckets half-cycle buckets covering the next
// 2,048 cycles, plus a bitmap of the non-empty ones. Events at or beyond
// the end of the ring's window wait in an overflow min-heap and move into
// the ring as the window advances.
//
// A bucket is a vector of events ordered under the full (t, order) key,
// so times off the half-cycle grid still pop in exact order, and a read
// cursor: pop() takes the event under the cursor and steps past it. The
// fabric's PEs run in lock-step, so events reach a bucket as a few
// ascending runs. A push at or after a bucket's last event appends. A push
// into a bucket already being drained keeps it sorted: below its next
// event it takes the freed slot just before the cursor (the common case,
// an event for the current half-cycle), otherwise it is inserted in place.
// Any other push out of order appends and marks the bucket unsorted; the
// bucket is sorted once, when it becomes the head and top() or pop() first
// reads it. That is why top() may reorder the ring: the queue is for one
// thread at a time.
//
// The window starts at the cursor: the bucket of the last event popped.
// Only pop() moves it. A push may land anywhere at or after the cursor —
// the tiled engine's merge barrier loads events below the current top —
// but a push before it would be an event in the past, and throws.
//
// Events move by value through the buckets, which is why Fabric::Event is
// kept at 40 bytes. pop() hands the event out by move, so draining the
// queue never bumps a payload refcount. visit() shows every pending event,
// for the tiled engine's emission-bound scan; its order is unspecified.
// take_all() empties the queue for the steady-state fast-forward
// (wse/fast_forward.hpp), which rebuilds it later in the future.

#include <array>
#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace fvdf::wse {

/// `T` has an f64 `t` (non-negative) and a u64 `order`, and (t, order) is
/// unique per pending event.
template <typename T>
class EventQueue {
public:
  static constexpr u64 kBuckets = 4096; // 0.5 cycle each: 2,048 cycles

  EventQueue() : ring_(kBuckets) {}

  bool empty() const { return size() == 0; }
  std::size_t size() const { return ring_size_ + overflow_.size(); }

  /// The event pop() would remove next.
  const T& top() const {
    if (ring_size_ == 0) return overflow_.front();
    const Bucket& bucket = open_head();
    return bucket.items[bucket.read];
  }

  void push(T&& event) {
    FVDF_CHECK_MSG(event.t >= 0 && event.t < kMaxTime,
                   "event time out of range: t=" << event.t);
    const u64 bucket = bucket_of(event.t);
    FVDF_CHECK_MSG(bucket >= cursor_, "event in the past: t="
                                          << event.t << " before bucket "
                                          << cursor_);
    if (bucket - cursor_ >= kBuckets) {
      overflow_.push_back(std::move(event));
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
      return;
    }
    ring_push(bucket, std::move(event));
  }

  /// Removes and returns the next event by move.
  T pop() {
    // The window moves up to the earliest pending bucket, jumping ahead
    // when everything pending lies beyond it.
    cursor_ = ring_size_ > 0 ? head_ : bucket_of(overflow_.front().t);
    refill();
    Bucket& bucket = open_head();
    T out = std::move(bucket.items[bucket.read++]);
    --ring_size_;
    if (bucket.read == bucket.items.size()) {
      occupied_[(head_ & kMask) >> 6] &= ~(u64{1} << (head_ & 63));
      bucket.read = 0;
      // A burst leaves its storage behind; keep only small buffers so the
      // ring's footprint stays bounded across a long run.
      if (bucket.items.capacity() > kKeptCapacity)
        std::vector<T>().swap(bucket.items);
      else
        bucket.items.clear();
      if (ring_size_ > 0) head_ = next_occupied(head_);
    }
    return out;
  }

  /// Event slots the ring's buckets hold allocated (tests and diagnostics).
  std::size_t reserved() const {
    std::size_t slots = 0;
    for (const Bucket& bucket : ring_) slots += bucket.items.capacity();
    return slots;
  }

  /// Moves every pending event out, in unspecified order, and resets the
  /// queue to its empty initial state: the window starts at time 0 again,
  /// so a later push may precede the last event popped.
  std::vector<T> take_all() {
    std::vector<T> out;
    out.reserve(size());
    for (Bucket& bucket : ring_) {
      for (std::size_t i = bucket.read; i < bucket.items.size(); ++i)
        out.push_back(std::move(bucket.items[i]));
      bucket.items.clear();
      bucket.read = 0;
      bucket.sorted = true;
    }
    for (T& event : overflow_) out.push_back(std::move(event));
    overflow_.clear();
    occupied_.fill(0);
    cursor_ = 0;
    head_ = 0;
    ring_size_ = 0;
    return out;
  }

  /// Calls `fn(event)` on every pending event until it returns false.
  template <typename Fn>
  void visit(Fn&& fn) const {
    for (std::size_t w = 0; w < kWords; ++w)
      for (u64 bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const Bucket& bucket = ring_[(w << 6) | std::countr_zero(bits)];
        for (std::size_t i = bucket.read; i < bucket.items.size(); ++i)
          if (!fn(bucket.items[i])) return;
      }
    for (const T& event : overflow_)
      if (!fn(event)) return;
  }

private:
  static constexpr u64 kMask = kBuckets - 1;
  static constexpr std::size_t kWords = kBuckets / 64;
  static constexpr std::size_t kKeptCapacity = 16;
  static constexpr f64 kMaxTime = 0x1p61; // bucket numbers stay below 2^62
  static_assert(std::has_single_bit(kBuckets) && kBuckets % 64 == 0);

  /// Events [read, size) are pending; [0, read) were popped and are
  /// moved-from. A bucket with read > 0 is being drained and is sorted;
  /// an empty one has read == 0 and is sorted.
  struct Bucket {
    std::vector<T> items;
    u32 read = 0;
    bool sorted = true;
  };

  struct Earlier {
    bool operator()(const T& a, const T& b) const {
      if (a.t != b.t) return a.t < b.t;
      return a.order < b.order;
    }
  };
  struct Later {
    bool operator()(const T& a, const T& b) const { return Earlier{}(b, a); }
  };

  static u64 bucket_of(f64 t) { return static_cast<u64>(t * 2.0); }

  static T heap_pop(std::vector<T>& heap) {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    T out = std::move(heap.back());
    heap.pop_back();
    return out;
  }

  /// The head bucket, sorted if a push left it out of order. It holds a
  /// few ascending runs, so each run is merged into the sorted prefix
  /// before it (on the fabric's buckets about 3x faster than std::sort).
  Bucket& open_head() const {
    Bucket& bucket = ring_[head_ & kMask];
    if (!bucket.sorted) {
      const auto first = bucket.items.begin(), last = bucket.items.end();
      for (auto mid = std::is_sorted_until(first, last, Earlier{}); mid != last;) {
        const auto next = std::is_sorted_until(mid, last, Earlier{});
        std::inplace_merge(first, mid, next, Earlier{});
        mid = next;
      }
      bucket.sorted = true;
    }
    return bucket;
  }

  void ring_push(u64 bucket, T&& event) {
    Bucket& slot = ring_[bucket & kMask];
    std::vector<T>& items = slot.items;
    if (items.empty() || !Earlier{}(event, items.back())) {
      if (slot.read > 0 && items.size() == items.capacity()) {
        // A bucket pushed to while it drains would otherwise grow to
        // everything pushed since it was last empty: drop the popped
        // prefix before growing, so it stays near its pending peak.
        items.erase(items.begin(), items.begin() + slot.read);
        slot.read = 0;
      }
      items.push_back(std::move(event));
    } else if (slot.read > 0) {
      // Being drained: keep the run sorted. The event takes the slot the
      // last pop freed just before the cursor, in O(1) when it is the new
      // minimum; otherwise the pending events below it shift down.
      const auto next = items.begin() + slot.read;
      const auto at = Earlier{}(event, *next)
                          ? next
                          : std::upper_bound(next + 1, items.end(), event, Earlier{});
      std::move(next, at, next - 1);
      *(at - 1) = std::move(event);
      --slot.read;
    } else {
      items.push_back(std::move(event));
      slot.sorted = false;
    }
    occupied_[(bucket & kMask) >> 6] |= u64{1} << (bucket & 63);
    if (ring_size_ == 0 || bucket < head_) head_ = bucket;
    ++ring_size_;
  }

  /// Moves the overflow events the window now covers into the ring.
  void refill() {
    while (!overflow_.empty()) {
      const u64 bucket = bucket_of(overflow_.front().t);
      if (bucket - cursor_ >= kBuckets) break;
      ring_push(bucket, heap_pop(overflow_));
    }
  }

  /// The first non-empty bucket at or after `from` (the ring is not empty,
  /// and every ring bucket lies in [cursor_, cursor_ + kBuckets)).
  u64 next_occupied(u64 from) const {
    const u64 start = from & kMask;
    std::size_t w = start >> 6;
    u64 bits = occupied_[w] & (~u64{0} << (start & 63));
    while (bits == 0) {
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    const u64 slot = (u64{w} << 6) | static_cast<u64>(std::countr_zero(bits));
    return from + ((slot - start) & kMask);
  }

  // Bucket b lives in slot b & kMask. Mutable because top() sorts the head
  // bucket on first read.
  mutable std::vector<Bucket> ring_;
  std::array<u64, kWords> occupied_{};
  std::vector<T> overflow_; // min-heap of events at or beyond the window
  u64 cursor_ = 0;          // bucket of the last pop; the window's start
  u64 head_ = 0;            // earliest non-empty ring bucket
  std::size_t ring_size_ = 0;
};

} // namespace fvdf::wse
