// Pending-event sets for the simulation kernel.
//
// The default is a monotone radix queue (Ahuja, Mehlhorn, Orlin and Tarjan's
// radix heap over 128-bit keys). A discrete-event clock never runs
// backwards: every event scheduled from inside the run is at or after the
// current time and gets a larger sequence number than anything scheduled
// before it. So every pushed key is larger than the last popped one, and
// the queue can bucket events by where their key first differs from that
// last popped key: push is O(1), and a pop redistributes only the lowest
// occupied bucket. The events themselves live in one pooled slab,
// sized to the peak population, and never move between push and pop.
//
// The alternative is a binary heap: O(log n) and no monotone contract. It
// stays as the reference oracle the differential tests run the radix queue
// against.
//
// Both give the same total order: ascending time, FIFO (sequence) within
// equal times — the determinism contract the rest of the library relies on.
//
// Neither implementation is virtual. `EventQueue` is a *sealed* two-way
// variant: the kernel's run loop is instantiated once per concrete queue
// (see Simulator::drain), so every push/pop/next_time on the hot path is a
// direct, inlined call.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "dsim/sim_event.hpp"
#include "dsim/time.hpp"
#include "util/contracts.hpp"

namespace pds {

// Names one scheduled event for cancellation. A default handle names none;
// a handle whose event already ran or was cancelled is harmless.
struct EventHandle {
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t seq = kNone;  // the event's scheduling sequence number
  std::uint32_t slot = 0;     // radix-queue slab slot (unused by the heap)
};

// A popped event. Move-only: the action is a SimEvent (small-buffer callable
// with the profiling label folded in — see dsim/sim_event.hpp).
struct EventItem {
  SimTime time;
  std::uint64_t seq;
  SimEvent action;

  const char* label() const noexcept { return action.label(); }
};

// Binary-heap implementation, the reference oracle. Hand-rolled over a
// vector rather than std::priority_queue: pop() must *move* the root out
// (the move-only EventItem forbids the copy std::priority_queue's
// top()/pop() split implies), and sifting a hole moves each item once per
// level.
class HeapEventQueue final {
 public:
  EventHandle push(SimTime t, std::uint64_t seq, SimEvent&& action) {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, EventItem{t, seq, std::move(action)});
    return EventHandle{seq, 0};
  }

  // Removes and returns the earliest item (time, then seq). Requires
  // !empty().
  EventItem pop() {
    PDS_REQUIRE(!heap_.empty());
    EventItem item = std::move(heap_.front());
    fill_hole(0);
    return item;
  }

  // Removes the pending event `h` names, if any. O(n): the oracle is kept
  // simple, not fast.
  bool cancel(EventHandle h) noexcept {
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (heap_[i].seq == h.seq) {
        fill_hole(i);
        return true;
      }
    }
    return false;
  }

  // Time of the earliest item. Requires !empty().
  SimTime next_time() const {
    PDS_REQUIRE(!heap_.empty());
    return heap_.front().time;
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

 private:
  static bool earlier(const EventItem& a, const EventItem& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i, EventItem item) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(item, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(item);
  }

  void sift_down(std::size_t i, EventItem item) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
      if (!earlier(heap_[child], item)) break;
      heap_[i] = std::move(heap_[child]);
      i = child;
    }
    heap_[i] = std::move(item);
  }

  // Overwrites slot `i` (already moved from, or being cancelled) with the
  // tail item and restores the heap order.
  void fill_hole(std::size_t i) noexcept {
    EventItem last = std::move(heap_.back());
    heap_.pop_back();
    if (i == heap_.size()) return;
    if (i > 0 && earlier(last, heap_[(i - 1) / 2])) {
      sift_up(i, std::move(last));
    } else {
      sift_down(i, std::move(last));
    }
  }

  std::vector<EventItem> heap_;  // min-heap on (time, seq)
};

// Monotone radix queue over a pooled slab.
//
// Key: (bit pattern of the non-negative double time, seq). For non-negative
// IEEE doubles the bit pattern orders exactly like the value (+inf sorts
// last), and seq is unique, so keys are unique and their unsigned order is
// the (time, seq) order. -0.0 passes the kernel's `t >= now` check, but its
// sign bit would sort it after every finite time, so it takes +0.0's key.
//
// The key is read as 32 hexadecimal digits. A key's bucket is named by the
// highest digit in which it differs from the last popped key (its level)
// and by its own value of that digit; bucket 0 holds a key equal to the
// last popped one. Numbering buckets by (level, digit) orders them: every
// key in a bucket is smaller than every key in a higher one, so the minimum
// sits in the lowest occupied bucket. Popping it makes it the new last key.
// Only that bucket's other keys change bucket, each to a strictly lower
// level; keys elsewhere keep theirs. So a key is relinked at most once per
// level, 32 times over its life, and about log16(population) in practice —
// a quarter of what one bucket per bit would cost.
//
// Each bucket is a doubly linked list threaded through the slab (so a
// cancel unlinks in O(1)) that also records its minimum as events are
// linked in. A two-level bitmap finds the lowest occupied bucket with two
// countr_zero, so the earliest event is found without a scan, and a pop
// walks its bucket once. The slab keeps the keys and links apart from the
// 64-byte events, so that walk touches 24 bytes per event. Freed slots go
// on an index free list; storage is the peak population, with no
// per-bucket reserve.
class RadixEventQueue final {
 public:
  RadixEventQueue() { heads_.fill(kNil); }

  // Requires a key no smaller than the last popped one: t >= 0, and at the
  // last popped time a seq no smaller than its. Throws
  // std::invalid_argument otherwise.
  EventHandle push(SimTime t, std::uint64_t seq, SimEvent&& action) {
    PDS_CHECK(t >= 0.0, "negative event time");
    const std::uint64_t time = time_key(t);
    PDS_CHECK(time > last_time_ || (time == last_time_ && seq >= last_seq_),
              "event precedes the last popped event");
    std::uint32_t i = free_;
    if (i != kNil) {
      free_ = nodes_[i].next;
    } else {
      i = static_cast<std::uint32_t>(nodes_.size());
      // Reserve both before growing either, so a failed allocation leaves
      // the two vectors the same length.
      if (i == nodes_.capacity() || i == events_.capacity()) {
        const std::size_t cap = 2 * static_cast<std::size_t>(i) + 64;
        nodes_.reserve(cap);
        events_.reserve(cap);
      }
      nodes_.emplace_back();
      events_.emplace_back();
    }
    nodes_[i].time = time;
    nodes_[i].seq = seq;
    events_[i] = std::move(action);
    link(i);
    ++size_;
    return EventHandle{seq, i};
  }

  // Removes and returns the earliest item (time, then seq). Requires
  // !empty().
  EventItem pop() {
    PDS_REQUIRE(size_ > 0);
    const unsigned b = lowest_bucket();
    const std::uint32_t m = mins_[b];
    last_time_ = nodes_[m].time;
    last_seq_ = nodes_[m].seq;
    // Every other event of bucket b now differs from the last key at a
    // lower level: move each to its new bucket.
    std::uint32_t i = heads_[b];
    heads_[b] = kNil;
    mark_empty(b);
    while (i != kNil) {
      const std::uint32_t next = nodes_[i].next;
      if (i != m) link(i);
      i = next;
    }
    EventItem item{std::bit_cast<SimTime>(last_time_), last_seq_,
                   std::move(events_[m])};
    release(m);
    return item;
  }

  // Removes the pending event `h` names, if any. Its action is destroyed
  // without running. O(1), plus a walk of its bucket when it was that
  // bucket's minimum.
  bool cancel(EventHandle h) noexcept {
    if (h.seq == EventHandle::kNone || h.slot >= nodes_.size() ||
        nodes_[h.slot].seq != h.seq) {
      return false;  // never scheduled here, already ran, or cancelled
    }
    const Node& node = nodes_[h.slot];
    const unsigned b = bucket_of(node.time, node.seq);
    if (node.prev != kNil) nodes_[node.prev].next = node.next;
    if (node.next != kNil) nodes_[node.next].prev = node.prev;
    if (heads_[b] == h.slot) heads_[b] = node.next;
    if (heads_[b] == kNil) {
      mark_empty(b);
    } else if (mins_[b] == h.slot) {
      std::uint32_t best = heads_[b];
      for (std::uint32_t j = nodes_[best].next; j != kNil;
           j = nodes_[j].next) {
        if (earlier(j, best)) best = j;
      }
      mins_[b] = best;
    }
    events_[h.slot] = SimEvent();
    release(h.slot);
    return true;
  }

  // Time of the earliest item. Requires !empty().
  SimTime next_time() const {
    PDS_REQUIRE(size_ > 0);
    return std::bit_cast<SimTime>(nodes_[mins_[lowest_bucket()]].time);
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  // Slab slots ever allocated: the peak population (for tests).
  std::size_t slab_slots() const noexcept { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  // Equal, then 16 digit values at each of 32 levels.
  static constexpr unsigned kBuckets = 1 + 32 * 16;
  static constexpr unsigned kWords = (kBuckets + 63) / 64;

  struct Node {
    std::uint64_t time = 0;  // time_key(t)
    std::uint64_t seq = EventHandle::kNone;  // kNone while the slot is free
    std::uint32_t next = kNil;  // bucket list, or the free list
    std::uint32_t prev = kNil;  // bucket list; kNil at the head
  };

  static std::uint64_t time_key(SimTime t) noexcept {
    return t == 0.0 ? 0 : std::bit_cast<std::uint64_t>(t);
  }

  // Bucket of (time, seq) against the last popped key: 1 + 16 * level +
  // digit, with the seq half's 16 levels below the time half's; 0 when
  // equal.
  unsigned bucket_of(std::uint64_t time, std::uint64_t seq) const noexcept {
    std::uint64_t half = time;
    std::uint64_t diff = time ^ last_time_;
    unsigned base = 257;
    if (diff == 0) {
      half = seq;
      diff = seq ^ last_seq_;
      if (diff == 0) return 0;
      base = 1;
    }
    const unsigned shift =
        static_cast<unsigned>(63 - std::countl_zero(diff)) & ~3u;
    return base + 4 * shift + static_cast<unsigned>((half >> shift) & 15);
  }

  bool earlier(std::uint32_t a, std::uint32_t b) const noexcept {
    const Node& x = nodes_[a];
    const Node& y = nodes_[b];
    return x.time < y.time || (x.time == y.time && x.seq < y.seq);
  }

  // Requires a non-empty queue.
  unsigned lowest_bucket() const noexcept {
    const unsigned w = static_cast<unsigned>(std::countr_zero(summary_));
    return 64 * w + static_cast<unsigned>(std::countr_zero(occupied_[w]));
  }

  void link(std::uint32_t i) noexcept {
    Node& node = nodes_[i];
    const unsigned b = bucket_of(node.time, node.seq);
    const std::uint32_t head = heads_[b];
    node.prev = kNil;
    node.next = head;
    heads_[b] = i;
    if (head == kNil) {
      mins_[b] = i;
      occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
      summary_ |= 1u << (b >> 6);
    } else {
      nodes_[head].prev = i;
      if (earlier(i, mins_[b])) mins_[b] = i;
    }
  }

  void mark_empty(unsigned b) noexcept {
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    if (occupied_[b >> 6] == 0) summary_ &= ~(1u << (b >> 6));
  }

  void release(std::uint32_t i) noexcept {
    nodes_[i].seq = EventHandle::kNone;
    nodes_[i].next = free_;
    free_ = i;
    --size_;
  }

  std::vector<Node> nodes_;       // keys and links, by slot
  std::vector<SimEvent> events_;  // actions, by slot
  std::array<std::uint32_t, kBuckets> heads_;
  std::array<std::uint32_t, kBuckets> mins_;  // valid while heads_[b] set
  std::array<std::uint64_t, kWords> occupied_{};  // bit b: heads_[b] set
  std::uint32_t summary_ = 0;  // bit w: occupied_[w] != 0
  std::uint32_t free_ = kNil;
  std::uint64_t last_time_ = 0;  // last popped key
  std::uint64_t last_seq_ = 0;
  std::size_t size_ = 0;
};

enum class EventQueueKind { kBinaryHeap, kRadix };

// The kind Simulator() and StudyAConfig use unless told otherwise.
inline constexpr EventQueueKind kDefaultEventQueue = EventQueueKind::kRadix;

// Sealed pending-event set: exactly the two implementations above behind a
// tag, no virtual dispatch. The forwarding methods are one predictable
// branch; the kernel's run loop dispatches once per *run* via visit() and
// then uses the concrete queue directly.
class EventQueue final {
 public:
  explicit EventQueue(EventQueueKind kind) : kind_(kind) {}

  EventQueueKind kind() const noexcept { return kind_; }

  EventHandle push(SimTime t, std::uint64_t seq, SimEvent&& action) {
    return kind_ == EventQueueKind::kRadix
               ? radix_.push(t, seq, std::move(action))
               : heap_.push(t, seq, std::move(action));
  }

  EventItem pop() {
    return kind_ == EventQueueKind::kRadix ? radix_.pop() : heap_.pop();
  }

  bool cancel(EventHandle h) noexcept {
    return kind_ == EventQueueKind::kRadix ? radix_.cancel(h)
                                           : heap_.cancel(h);
  }

  SimTime next_time() const {
    return kind_ == EventQueueKind::kRadix ? radix_.next_time()
                                           : heap_.next_time();
  }

  bool empty() const noexcept {
    return kind_ == EventQueueKind::kRadix ? radix_.empty() : heap_.empty();
  }

  std::size_t size() const noexcept {
    return kind_ == EventQueueKind::kRadix ? radix_.size() : heap_.size();
  }

  // Invokes `v` with the concrete queue (RadixEventQueue& or
  // HeapEventQueue&).
  template <typename Visitor>
  decltype(auto) visit(Visitor&& v) {
    return kind_ == EventQueueKind::kRadix ? v(radix_) : v(heap_);
  }

 private:
  EventQueueKind kind_;
  RadixEventQueue radix_;
  HeapEventQueue heap_;
};

}  // namespace pds
