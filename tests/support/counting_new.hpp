// A counting replacement of the global operator new, for the tests that
// bar allocations on a hot path.
//
// Linking support/counting_new.cpp into a test binary replaces every
// global operator new/delete of the process, so each allocation
// contract lives in its own binary.  The operators are defined in that
// one translation unit, out of the tests' sight, so no call site can
// inline a replaced operator new into a mismatched free().
#pragma once

#include <cstdint>

namespace quartz::test {

/// Global operator new calls (every form) since the process started.
std::uint64_t alloc_count();

}  // namespace quartz::test
