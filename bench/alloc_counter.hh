/**
 * @file
 * Global heap-allocation counter for the micro-benchmarks.
 *
 * alloc_counter.cc replaces the global operator new/delete family.
 * The replacements live in their own translation unit so the compiler
 * never sees their malloc/free bodies at a call site: a new-expression
 * and its delete-expression then pair as operator new with operator
 * delete, as the language intends.
 */

#ifndef UNET_BENCH_ALLOC_COUNTER_HH
#define UNET_BENCH_ALLOC_COUNTER_HH

#include <cstdint>

namespace unet::bench {

/** Calls to operator new / new[] so far (single-threaded use). */
std::uint64_t heapAllocs();

} // namespace unet::bench

#endif // UNET_BENCH_ALLOC_COUNTER_HH
