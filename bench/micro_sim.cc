/**
 * @file
 * google-benchmark micro-benchmarks of the simulation substrate
 * itself (host wall-clock, not simulated time): event queue throughput
 * and fiber context-switch cost.
 *
 * The binary links a replaced global operator new/delete that counts
 * heap allocations (alloc_counter.hh), so every benchmark can report
 * allocs_per_op and the steady-state benchmarks can demonstrate the
 * zero-allocation event hot path (pooled records + small-buffer-
 * optimized callables). Pooled buffers (fiber stacks) come from
 * calloc and are not counted.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "alloc_counter.hh"
#include "sim/event.hh"
#include "sim/fiber.hh"
#include "sim/process.hh"

using namespace unet::sim;
using unet::bench::heapAllocs;

namespace {

/** Report events/sec and the per-iteration allocation count measured
 *  across the timed loop. */
void
finishEventBench(benchmark::State &state, std::uint64_t allocs_before)
{
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(heapAllocs() - allocs_before) /
        static_cast<double>(state.iterations()));
}

void
BM_EventScheduleFire(benchmark::State &state)
{
    EventQueue q;
    std::int64_t n = 0;
    // Steady state: warm the record pool and the heap vector so the
    // timed loop exercises the zero-allocation path.
    for (int i = 0; i < 1024; ++i) {
        q.scheduleIn(1, [&n] { ++n; });
        q.step();
    }
    std::uint64_t allocs = heapAllocs();
    for (auto _ : state) {
        q.scheduleIn(1, [&n] { ++n; });
        q.step();
    }
    benchmark::DoNotOptimize(n);
    finishEventBench(state, allocs);
}
BENCHMARK(BM_EventScheduleFire);

void
BM_EventScheduleFireLargeCapture(benchmark::State &state)
{
    // A capture beyond the SBO threshold: every schedule pays one heap
    // allocation for the callable (reported via allocs_per_op).
    EventQueue q;
    std::int64_t n = 0;
    struct Big
    {
        std::int64_t *target;
        char pad[96];
    };
    Big big{&n, {}};
    for (int i = 0; i < 1024; ++i) {
        q.scheduleIn(1, [big] { ++*big.target; });
        q.step();
    }
    std::uint64_t allocs = heapAllocs();
    for (auto _ : state) {
        q.scheduleIn(1, [big] { ++*big.target; });
        q.step();
    }
    benchmark::DoNotOptimize(n);
    finishEventBench(state, allocs);
}
BENCHMARK(BM_EventScheduleFireLargeCapture);

void
BM_EventCancelReuse(benchmark::State &state)
{
    // Schedule + cancel: the record returns to the free list without
    // ever reaching the heap top.
    EventQueue q;
    std::int64_t n = 0;
    for (int i = 0; i < 1024; ++i) {
        auto h = q.scheduleIn(1000, [&n] { ++n; });
        h.cancel();
    }
    std::uint64_t allocs = heapAllocs();
    for (auto _ : state) {
        auto h = q.scheduleIn(1000, [&n] { ++n; });
        h.cancel();
    }
    benchmark::DoNotOptimize(n);
    finishEventBench(state, allocs);
}
BENCHMARK(BM_EventCancelReuse);

void
BM_MemberEventRearm(benchmark::State &state)
{
    // The hoisted-closure pattern used by the NIC/link pumps: one
    // std::function fixed at construction, re-armed each firing.
    EventQueue q;
    std::int64_t n = 0;
    MemberEvent ev(q, [&n] { ++n; });
    for (int i = 0; i < 1024; ++i) {
        ev.scheduleIn(1);
        q.step();
    }
    std::uint64_t allocs = heapAllocs();
    for (auto _ : state) {
        ev.scheduleIn(1);
        q.step();
    }
    benchmark::DoNotOptimize(n);
    finishEventBench(state, allocs);
}
BENCHMARK(BM_MemberEventRearm);

void
BM_EventQueueDepth(benchmark::State &state)
{
    const auto depth = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        EventQueue q;
        std::int64_t n = 0;
        for (std::size_t i = 0; i < depth; ++i)
            q.schedule(static_cast<Tick>(i * 7 % 1000),
                       [&n] { ++n; });
        state.ResumeTiming();
        q.run();
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_EventQueueDepth)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_FiberSwitch(benchmark::State &state)
{
    Fiber f([] {
        while (true)
            Fiber::yield();
    });
    for (auto _ : state)
        f.run();
}
BENCHMARK(BM_FiberSwitch);

void
BM_ProcessDelay(benchmark::State &state)
{
    // Cost of one delay()/resume round trip through the event loop.
    Simulation s;
    std::int64_t rounds = 0;
    Process p(s, "bench", [&](Process &self) {
        while (true) {
            self.delay(1);
            ++rounds;
        }
    });
    p.start();
    for (int i = 0; i < 1024; ++i)
        s.events().step();
    std::uint64_t allocs = heapAllocs();
    for (auto _ : state)
        s.events().step();
    benchmark::DoNotOptimize(rounds);
    finishEventBench(state, allocs);
}
BENCHMARK(BM_ProcessDelay);

} // namespace

BENCHMARK_MAIN();
