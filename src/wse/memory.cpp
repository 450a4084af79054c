#include "wse/memory.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace fvdf::wse {

PeMemory::PeMemory(u64 capacity_bytes, u64 reserved_bytes)
    : capacity_(capacity_bytes), reserved_(reserved_bytes) {
  FVDF_CHECK_MSG(reserved_ < capacity_, "reserve exceeds PE memory capacity");
}

void PeMemory::overflow_fail(const std::string& name, u64 bytes) const {
  std::ostringstream os;
  os << "PE memory overflow allocating '" << name << "' (" << bytes
     << " B): used " << used_bytes() << " of " << (capacity_ - reserved_)
     << " allocatable B (capacity " << capacity_ << ", reserved " << reserved_
     << ")\n"
     << allocation_map();
  throw Error(os.str());
}

u32 PeMemory::alloc_raw(const std::string& name, u32 bytes) {
  // 4-byte aligned bump allocation.
  const u32 aligned = (bytes + 3u) & ~3u;
  if (used_bytes() + aligned > capacity_ - reserved_) overflow_fail(name, bytes);
  const auto offset = static_cast<u32>(used_bytes());
  storage_.resize(storage_.size() + aligned, 0); // new words read 0
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
  storage_ = contents;
  allocations_ = allocations;
}

const PeMemory::Allocation& PeMemory::allocation(const std::string& name) const {
  const auto found =
      std::find_if(allocations_.begin(), allocations_.end(),
                   [&name](const Allocation& alloc) { return alloc.name == name; });
  FVDF_CHECK_MSG(found != allocations_.end(),
                 "no allocation named '" << name << "' in PE memory\n"
                                         << allocation_map());
  return *found;
}

void PeMemory::bounds_fail(u32 word_offset, u32 count) const {
  std::ostringstream os;
  os << "access past allocated memory at words [" << word_offset << ", "
     << word_offset + count << "): " << used_bytes() << " B allocated\n"
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
