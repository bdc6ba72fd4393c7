// FIFO ring of trivially copyable values (scheduler tags, class ids).
//
// One power-of-two buffer with free-running head/tail counters, the layout
// ClassQueue uses for packets. The buffer doubles when full and is never
// given back, so a ring that has reached its working size no longer
// allocates; reserve() sizes a ring whose bound is known up front.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "util/contracts.hpp"

namespace pds {

template <class T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>, "Ring holds plain values");

 public:
  // Makes room for `n` values without further growth.
  void reserve(std::size_t n) {
    while (buf_.size() < n) grow();
  }

  void push_back(T v) {
    if (tail_ - head_ == buf_.size()) grow();
    buf_[tail_ & mask_] = v;
    ++tail_;
  }

  // Removes and returns the front. Requires a non-empty ring.
  T pop_front() {
    PDS_REQUIRE(head_ != tail_);
    return buf_[head_++ & mask_];
  }

  const T& front() const {
    PDS_REQUIRE(head_ != tail_);
    return buf_[head_ & mask_];
  }

  bool empty() const noexcept { return head_ == tail_; }
  std::size_t size() const noexcept { return tail_ - head_; }
  void clear() noexcept { head_ = tail_ = 0; }

 private:
  void grow() {
    std::vector<T> fresh(buf_.empty() ? 8 : buf_.size() * 2);
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) fresh[i] = buf_[(head_ + i) & mask_];
    buf_.swap(fresh);
    mask_ = buf_.size() - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> buf_;    // power-of-two size (empty until the first push)
  std::size_t mask_ = 0;  // buf_.size() - 1
  std::size_t head_ = 0;  // free-running; buf_[head_ & mask_] is the front
  std::size_t tail_ = 0;  // free-running; one past the back
};

}  // namespace pds
