// Index-based slab allocator for packet descriptors.
//
// alloc() pops a free slot or grows the backing vector; free() pushes the
// slot back. After the pool warms up to the peak number of in-flight packets
// (bounded by flows x window), the steady state does zero allocation — the
// property the packet engine's slab-reuse test asserts.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mixnet::pkt {

template <typename T>
class Slab {
 public:
  /// At most `max_slots` slots are ever created: the owner packs indices
  /// into a fixed number of bits.
  explicit Slab(std::int32_t max_slots = INT32_MAX) : max_slots_(max_slots) {}

  /// Throws std::length_error when every one of the max_slots slots is
  /// handed out.
  std::int32_t alloc() {
    if (!free_.empty()) {
      const std::int32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    if (slots_.size() >= static_cast<std::size_t>(max_slots_)) full();
    slots_.emplace_back();
    return static_cast<std::int32_t>(slots_.size() - 1);
  }

  /// Throws std::out_of_range for an index this slab never handed out.
  void release(std::int32_t idx) {
    if (idx < 0 || static_cast<std::size_t>(idx) >= slots_.size()) {
      foreign(idx);
    }
    free_.push_back(idx);
  }

  T& operator[](std::int32_t idx) {
    return slots_[static_cast<std::size_t>(idx)];
  }
  const T& operator[](std::int32_t idx) const {
    return slots_[static_cast<std::size_t>(idx)];
  }

  /// Total slots ever created (high-water mark of in-flight descriptors).
  std::size_t capacity() const { return slots_.size(); }
  /// Slots currently handed out.
  std::size_t live() const { return slots_.size() - free_.size(); }

 private:
  // The throws live out of line so that alloc() and release() stay small
  // enough to inline into the engine's per-packet paths.
  [[noreturn]] [[gnu::noinline]] [[gnu::cold]] void full() const {
    throw std::length_error("pkt::Slab::alloc: all " +
                            std::to_string(max_slots_) + " slots are in use");
  }
  [[noreturn]] [[gnu::noinline]] [[gnu::cold]] void foreign(
      std::int32_t idx) const {
    throw std::out_of_range("pkt::Slab::release: index " +
                            std::to_string(idx) + " outside [0, " +
                            std::to_string(slots_.size()) + ")");
  }

  std::int32_t max_slots_;
  std::vector<T> slots_;
  std::vector<std::int32_t> free_;
};

}  // namespace mixnet::pkt
