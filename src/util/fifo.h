// fifo.h - a growable power-of-two ring: the NIC's work and completion queues.
//
// std::deque allocates a node per few elements, so a queue that every
// transfer pushes and pops would cost a heap round trip every few
// descriptors. This ring keeps its storage: it starts at capacity 2,
// doubles when full, and only clear() hands the storage back. pop_front()
// moves the element out and leaves the moved-from object in its slot; the
// next push_back that reaches the slot assigns over it. The header is 32
// bytes (the storage vector plus 32-bit head and size), so a Vi record
// keeps two rings to a cache line (vi.h).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vialock {

template <typename T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(Fifo&& other) noexcept { *this = std::move(other); }
  /// A moved-from ring is empty, not a size without storage.
  Fifo& operator=(Fifo&& other) noexcept {
    slots_ = std::move(other.slots_);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  void push_back(T&& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask()] = std::move(value);
    ++size_;
  }

  [[nodiscard]] T pop_front() {
    assert(size_ > 0);
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask();
    --size_;
    return out;
  }

  /// Drop every element and free the storage.
  void clear() {
    std::vector<T>().swap(slots_);
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::uint32_t mask() const {
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void grow() {
    std::vector<T> bigger(slots_.empty() ? 2 : 2 * slots_.size());
    for (std::uint32_t i = 0; i < size_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & mask()]);
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< capacity is 0 or a power of two
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace vialock
