#include "calibrate.hh"

#include <ucontext.h>

#include <cstdint>
#include <cstdlib>
#include <queue>
#include <vector>

#include "recorder.hh"

namespace perfbench {

namespace {

constexpr int kSwitchRounds = 50000;     // fiber round trips
constexpr int kHeapSteps = 500000;       // heap push/pop + realloc
constexpr std::size_t kHeapDepth = 2000; // pending times kept
constexpr std::size_t kLiveObjects = 4096;

struct Pingpong
{
    ucontext_t caller;
    ucontext_t fiber;
    std::vector<char> stack = std::vector<char>(64 * 1024);
};

Pingpong *active = nullptr;

void
fiberBody()
{
    for (;;)
        swapcontext(&active->fiber, &active->caller);
}

/** kSwitchRounds switches into a fiber and back. */
void
switchRounds()
{
    Pingpong p;
    getcontext(&p.fiber);
    p.fiber.uc_stack.ss_sp = p.stack.data();
    p.fiber.uc_stack.ss_size = p.stack.size();
    p.fiber.uc_link = nullptr;
    makecontext(&p.fiber, &fiberBody, 0);
    active = &p;
    for (int i = 0; i < kSwitchRounds; ++i)
        swapcontext(&p.caller, &p.fiber);
    active = nullptr;
}

/** A bounded max-heap of pseudo-random times, and a pool of live
 *  small objects of which one is freed and reallocated per step. */
std::uint64_t
heapChurn()
{
    std::priority_queue<std::uint64_t> pending;
    std::vector<void *> live(kLiveObjects);
    for (void *&p : live)
        p = std::malloc(64);
    std::uint64_t x = 7, sum = 0;
    for (int i = 0; i < kHeapSteps; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        pending.push(x >> 20);
        if (pending.size() > kHeapDepth) {
            sum += pending.top();
            pending.pop();
        }
        std::size_t k = (x >> 40) % kLiveObjects;
        std::free(live[k]);
        live[k] = std::malloc(32 + (x >> 58) * 16);
    }
    for (void *p : live)
        std::free(p);
    return sum;
}

} // namespace

double
referenceKernelS()
{
    std::int64_t t0 = hostNs();
    switchRounds();
    volatile std::uint64_t sink = heapChurn();
    (void)sink;
    return static_cast<double>(hostNs() - t0) * 1e-9;
}

} // namespace perfbench
