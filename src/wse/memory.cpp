#include "wse/memory.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace fvdf::wse {

PeMemory::PeMemory(u64 capacity_bytes, u64 reserved_bytes)
    : capacity_(capacity_bytes), reserved_(reserved_bytes) {
  FVDF_CHECK_MSG(reserved_ < capacity_, "reserve exceeds PE memory capacity");
  storage_.resize(capacity_ - reserved_, 0);
}

void PeMemory::overflow_fail(const std::string& name, u64 bytes) const {
  std::ostringstream os;
  os << "PE memory overflow allocating '" << name << "' (" << bytes
     << " B): used " << used_ << " of " << (capacity_ - reserved_)
     << " allocatable B (capacity " << capacity_ << ", reserved " << reserved_
     << ")\n"
     << allocation_map();
  throw Error(os.str());
}

u32 PeMemory::alloc_raw(const std::string& name, u32 bytes) {
  // 4-byte aligned bump allocation.
  const u32 aligned = (bytes + 3u) & ~3u;
  if (used_ + aligned > capacity_ - reserved_) overflow_fail(name, bytes);
  const u32 offset = static_cast<u32>(used_);
  used_ += aligned;
  allocations_.push_back({name, offset, aligned});
  return offset;
}

MemSpan PeMemory::alloc_f32(const std::string& name, u32 count) {
  const u32 offset_bytes = alloc_raw(name, count * 4u);
  return MemSpan{offset_bytes / 4u, count};
}

MemSpan PeMemory::alloc_bytes(const std::string& name, u32 count) {
  const u32 offset_bytes = alloc_raw(name, count);
  // For byte spans, offset_words carries the *byte* offset and length the
  // byte count; byte accessors interpret it that way.
  return MemSpan{offset_bytes, count};
}

void PeMemory::assign(const std::vector<Allocation>& allocations,
                      const std::vector<u8>& contents) {
  if (contents.size() > capacity_ - reserved_)
    overflow_fail("image", contents.size());
  std::copy(contents.begin(), contents.end(), storage_.begin());
  used_ = contents.size();
  allocations_ = allocations;
}

void PeMemory::bounds_fail(u32 word_offset, u32 count) const {
  std::ostringstream os;
  os << "access past allocated memory at words [" << word_offset << ", "
     << word_offset + count << "): " << used_ << " B allocated\n"
     << allocation_map();
  throw Error(os.str());
}

std::string PeMemory::allocation_map() const {
  std::ostringstream os;
  os << "allocation map (" << allocations_.size() << " entries):\n";
  for (const auto& alloc : allocations_)
    os << "  [" << alloc.offset_bytes << ", " << alloc.offset_bytes + alloc.size_bytes
       << ") " << alloc.size_bytes << " B  " << alloc.name << '\n';
  return os.str();
}

} // namespace fvdf::wse
