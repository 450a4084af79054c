#pragma once
// Golden digests: an FNV-1a 64 stream (common/serialize.hpp) over the
// exact bits a run produced. A test that compares a digest against a
// frozen hex literal pins every covered bit — solution words, cycle
// totals, traffic counters, telemetry bytes — without storing them. Any
// change to the device programs, the interpreter or the fabric's
// accounting changes the hex; the literals were computed with the AVX2
// DSD kernels and hold unchanged under -DFVDF_NO_AVX2=ON.

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/serialize.hpp"
#include "wse/fabric.hpp"

namespace fvdf::golden {

class Digest {
public:
  template <typename T>
    requires std::is_arithmetic_v<T>
  Digest& add(const T& value) {
    hash_ = fnv1a64(&value, sizeof value, hash_);
    return *this;
  }

  template <typename T> Digest& add(const std::vector<T>& values) {
    static_assert(std::is_arithmetic_v<T>, "digest raw scalars only");
    add(static_cast<u64>(values.size()));
    hash_ = fnv1a64(values.data(), values.size() * sizeof(T), hash_);
    return *this;
  }

  Digest& add(std::string_view text) {
    add(static_cast<u64>(text.size()));
    hash_ = fnv1a64(text.data(), text.size(), hash_);
    return *this;
  }

  Digest& add(const wse::FabricStats& s) {
    static_assert(sizeof(wse::FabricStats) == 9 * sizeof(u64),
                  "a new FabricStats field must join the digest");
    return add(s.messages_sent)
        .add(s.wavelet_hops)
        .add(s.word_hops)
        .add(s.words_delivered)
        .add(s.words_dropped)
        .add(s.control_wavelets)
        .add(s.tasks_run)
        .add(s.events_processed)
        .add(s.flits_stalled);
  }

  std::string hex() const { return hash_hex(hash_); }

private:
  u64 hash_ = 14695981039346656037ull;
};

} // namespace fvdf::golden
