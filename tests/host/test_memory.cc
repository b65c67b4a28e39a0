#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "host/interrupts.hh"
#include "host/memory.hh"
#include "sim/pool.hh"
#include "sim/simulation.hh"

using namespace unet;
using namespace unet::sim::literals;

namespace {

/** True if every byte of @p m reads zero. */
bool
readsZero(const host::Memory &m)
{
    auto all = m.region(0, m.size());
    return std::all_of(all.begin(), all.end(),
                       [](std::uint8_t b) { return b == 0; });
}

/** The arena's first byte: equal origins mean a recycled block. */
const std::uint8_t *
origin(const host::Memory &m)
{
    return m.region(0, 0).data();
}

} // namespace

TEST(Memory, AllocAdvances)
{
    host::Memory m(1024);
    std::size_t a = m.alloc(100);
    std::size_t b = m.alloc(100);
    EXPECT_GE(b, a + 100);
    EXPECT_LE(m.remaining(), 1024 - 200);
}

TEST(Memory, AllocRespectsAlignment)
{
    host::Memory m(1024);
    m.alloc(3);
    std::size_t a = m.alloc(8, 64);
    EXPECT_EQ(a % 64, 0u);
}

TEST(Memory, WriteReadRoundTrip)
{
    host::Memory m(256);
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
    std::size_t off = m.alloc(5);
    m.write(off, data);
    EXPECT_EQ(m.read(off, 5), data);
}

TEST(Memory, RegionIsLive)
{
    host::Memory m(256);
    std::size_t off = m.alloc(4);
    auto span = m.region(off, 4);
    span[0] = 0xAB;
    EXPECT_EQ(m.read(off, 1)[0], 0xAB);
}

// The pool is keyed by size only, so each contract test below uses a
// size no other test in this binary allocates.

TEST(Memory, RecycledArenaReadsZeroPastPreviousBrk)
{
    constexpr std::size_t size = 3 * 4096 + 64;
    const std::uint8_t *first = nullptr;
    {
        host::Memory m(size);
        first = origin(m);
        std::size_t off = m.alloc(1000);
        m.write(off, std::vector<std::uint8_t>(1000, 0xA5));
    }
    host::Memory m(size);
    ASSERT_EQ(origin(m), first) << "the arena was not recycled";
    EXPECT_TRUE(readsZero(m));
}

TEST(Memory, RecycledArenaReadsZeroAfterWritesPastBrk)
{
    // region() bounds-checks against the arena, not the bump pointer,
    // so a user may dirty bytes it never allocated.
    constexpr std::size_t size = 3 * 4096 + 128;
    const std::uint8_t *first = nullptr;
    {
        host::Memory m(size);
        first = origin(m);
        m.alloc(64);
        auto tail = m.region(size - 512, 512);
        std::fill(tail.begin(), tail.end(), 0x5A);
    }
    host::Memory m(size);
    ASSERT_EQ(origin(m), first) << "the arena was not recycled";
    EXPECT_TRUE(readsZero(m));
}

TEST(Memory, ArenaReadsZeroAfterUndeclaredRawUse)
{
    // A fiber stack uses its block raw and declares nothing; an arena
    // of the same size may be handed that block next.
    constexpr std::size_t size = 3 * 4096 + 192;
    const unsigned char *first = nullptr;
    {
        sim::RecycledBuffer raw(size);
        first = raw.data();
        std::memset(raw.data(), 0xEE, raw.size());
    }
    host::Memory m(size);
    ASSERT_EQ(origin(m), first) << "the block was not recycled";
    EXPECT_TRUE(readsZero(m));
}

TEST(MemoryDeathTest, OutOfBoundsPanics)
{
    host::Memory m(16);
    EXPECT_DEATH(m.region(12, 8), "out of bounds");
}

TEST(InterruptLine, DeliversAfterDispatchLatency)
{
    sim::Simulation s;
    host::Cpu cpu(s, host::CpuSpec::pentium120(), "cpu");
    host::InterruptLine irq(s, cpu, "nic");
    sim::Tick fired = -1;
    irq.connect([&] { fired = s.now(); });
    s.schedule(10_us, [&] { irq.assertLine(); });
    s.run();
    EXPECT_EQ(fired, 10_us + cpu.spec().interruptDispatch);
}

TEST(InterruptLine, CoalescesWhilePending)
{
    sim::Simulation s;
    host::Cpu cpu(s, host::CpuSpec::pentium120(), "cpu");
    host::InterruptLine irq(s, cpu, "nic");
    int delivered = 0;
    irq.connect([&] { ++delivered; });
    s.schedule(0, [&] {
        irq.assertLine();
        irq.assertLine(); // while pending: coalesce
    });
    s.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(irq.asserted(), 2u);
    EXPECT_EQ(irq.delivered(), 1u);
}

TEST(InterruptLine, RearmsAfterDelivery)
{
    sim::Simulation s;
    host::Cpu cpu(s, host::CpuSpec::pentium120(), "cpu");
    host::InterruptLine irq(s, cpu, "nic");
    int delivered = 0;
    irq.connect([&] { ++delivered; });
    s.schedule(0, [&] { irq.assertLine(); });
    s.schedule(100_us, [&] { irq.assertLine(); });
    s.run();
    EXPECT_EQ(delivered, 2);
}
