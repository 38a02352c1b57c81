#include "mem/phys_mem.hpp"

#include <algorithm>

namespace mcs::mem {
namespace {

util::Status out_of_range(PhysAddr addr) noexcept {
  // Lazy status: the message renders only if someone reads it, so the
  // fault path itself never allocates.
  return {util::Code::EFault, "physical access outside DRAM at ", addr};
}

}  // namespace

std::uint8_t* PhysicalMemory::resident_page(std::uint64_t index) {
  std::uint8_t* page = table_[index];
  if (page == nullptr) {
    // make_unique<T[]> value-initialises: a new page reads as zeroes.
    page = resident_.emplace_back(std::make_unique<std::uint8_t[]>(kPageSize)).get();
    table_[index] = page;
  }
  return page;
}

std::uint8_t* PhysicalMemory::touch_page(PhysAddr addr) {
  const std::uint64_t index = (addr - base_) / kPageSize;
  std::uint8_t* page = resident_page(index);
  // Every caller is a write path, so touching *is* dirtying. Marking on
  // the transition only keeps the dirty list duplicate-free.
  if (dirty_flags_[index] == 0) {
    dirty_flags_[index] = 1;
    dirty_list_.push_back(index);
  }
  return page;
}

void PhysicalMemory::snapshot_to(Snapshot& out) const {
  out.pages.assign(dirty_list_.begin(), dirty_list_.end());
  std::sort(out.pages.begin(), out.pages.end());
  out.data.resize(out.pages.size() * kPageSize);
  std::uint8_t* dst = out.data.data();
  for (const std::uint64_t index : out.pages) {
    std::memcpy(dst, table_[index], kPageSize);
    dst += kPageSize;
  }
}

void PhysicalMemory::restore_from(const Snapshot& snapshot) {
  // Every page whose contents can differ from the capture is either dirty
  // now or one of the snapshot's own. Dirty pages the snapshot does not
  // hold go back to zero and clean.
  for (const std::uint64_t index : dirty_list_) {
    if (!std::binary_search(snapshot.pages.begin(), snapshot.pages.end(), index)) {
      std::memset(table_[index], 0, kPageSize);
      dirty_flags_[index] = 0;
    }
  }
  // The snapshot's pages get their captured bytes, and the dirty set
  // becomes exactly theirs. A page the memory no longer holds dirty (the
  // snapshot outlived a power-on restore) is re-materialised here.
  dirty_list_.clear();
  const std::uint8_t* src = snapshot.data.data();
  for (const std::uint64_t index : snapshot.pages) {
    std::memcpy(resident_page(index), src, kPageSize);
    src += kPageSize;
    dirty_flags_[index] = 1;
    dirty_list_.push_back(index);
  }
}

util::Status PhysicalMemory::write_u8(PhysAddr addr, std::uint8_t value) {
  if (!contains(addr)) return out_of_range(addr);
  ++slow_ops_;
  touch_page(addr)[(addr - base_) % kPageSize] = value;
  return util::ok_status();
}

util::Status PhysicalMemory::write_u32_slow(PhysAddr addr, std::uint32_t value) {
  std::uint8_t bytes[4];
  std::memcpy(bytes, &value, sizeof bytes);
  return write_block(addr, bytes);
}

util::Status PhysicalMemory::write_u64_slow(PhysAddr addr, std::uint64_t value) {
  std::uint8_t bytes[8];
  std::memcpy(bytes, &value, sizeof bytes);
  return write_block(addr, bytes);
}

util::Status PhysicalMemory::write_block(PhysAddr addr,
                                         std::span<const std::uint8_t> data) {
  if (!contains(addr, data.size())) return out_of_range(addr);
  ++slow_ops_;
  std::uint64_t offset = addr - base_;
  std::size_t written = 0;
  while (written < data.size()) {
    std::uint8_t* page = touch_page(base_ + offset);
    const std::uint64_t in_page = offset % kPageSize;
    const std::size_t chunk =
        std::min<std::size_t>(data.size() - written,
                              static_cast<std::size_t>(kPageSize - in_page));
    std::memcpy(page + in_page, data.data() + written, chunk);
    written += chunk;
    offset += chunk;
  }
  return util::ok_status();
}

util::Expected<std::uint8_t> PhysicalMemory::read_u8(PhysAddr addr) const {
  if (!contains(addr)) return out_of_range(addr);
  ++slow_ops_;
  const std::uint8_t* page = find_page(addr);
  if (page == nullptr) return std::uint8_t{0};
  return page[(addr - base_) % kPageSize];
}

util::Expected<std::uint32_t> PhysicalMemory::read_u32_slow(PhysAddr addr) const {
  std::uint8_t bytes[4]{};
  MCS_RETURN_IF_ERROR(read_block(addr, bytes));
  std::uint32_t value = 0;
  std::memcpy(&value, bytes, sizeof value);
  return value;
}

util::Expected<std::uint64_t> PhysicalMemory::read_u64_slow(PhysAddr addr) const {
  std::uint8_t bytes[8]{};
  MCS_RETURN_IF_ERROR(read_block(addr, bytes));
  std::uint64_t value = 0;
  std::memcpy(&value, bytes, sizeof value);
  return value;
}

util::Status PhysicalMemory::read_block(PhysAddr addr,
                                        std::span<std::uint8_t> out) const {
  if (!contains(addr, out.size())) return out_of_range(addr);
  ++slow_ops_;
  std::uint64_t offset = addr - base_;
  std::size_t read = 0;
  while (read < out.size()) {
    const std::uint64_t in_page = offset % kPageSize;
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - read,
                              static_cast<std::size_t>(kPageSize - in_page));
    const std::uint8_t* page = find_page(base_ + offset);
    if (page == nullptr) {
      std::memset(out.data() + read, 0, chunk);
    } else {
      std::memcpy(out.data() + read, page + in_page, chunk);
    }
    read += chunk;
    offset += chunk;
  }
  return util::ok_status();
}

util::Status PhysicalMemory::fill(PhysAddr addr, std::uint64_t len,
                                  std::uint8_t value) {
  if (!contains(addr, len)) return out_of_range(addr);
  ++slow_ops_;
  std::uint64_t offset = 0;
  while (offset < len) {
    const std::uint64_t in_page = (addr + offset - base_) % kPageSize;
    const std::uint64_t chunk = std::min(kPageSize - in_page, len - offset);
    std::uint8_t* page = touch_page(addr + offset);
    std::memset(page + in_page, value, chunk);
    offset += chunk;
  }
  return util::ok_status();
}

}  // namespace mcs::mem
