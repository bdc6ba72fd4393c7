// Heap counters of the traced binary. alloc_hook.cpp replaces the global
// operator new/delete of the binary it is linked into (the program's own
// sources are not touched), counting every operator-new call and tracking
// live and peak live bytes via malloc_usable_size.
#pragma once

#include <cstdint>

namespace pdsbench::alloc {

// operator-new calls since process start.
std::uint64_t calls() noexcept;

// Bytes currently allocated through operator new (usable size).
std::int64_t live_bytes() noexcept;

// Highest live_bytes() since the last reset_peak().
std::int64_t peak_bytes() noexcept;
void reset_peak() noexcept;

}  // namespace pdsbench::alloc
