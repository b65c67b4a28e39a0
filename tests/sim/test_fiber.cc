#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include "sim/fiber.hh"

using namespace unet::sim;

namespace {

#if defined(__x86_64__)
/** MXCSR control bits; the low six are sticky exception flags. */
constexpr std::uint32_t mxcsrControl = 0xFFC0;
/** MXCSR rounding control, and its round-toward-zero setting. */
constexpr std::uint32_t mxcsrRounding = 0x6000;
/** x87 control-word rounding control, and its truncate setting. */
constexpr std::uint16_t x87Rounding = 0x0C00;

std::uint16_t
x87ControlWord()
{
    std::uint16_t cw;
    asm volatile("fnstcw %0" : "=m"(cw));
    return cw;
}

void
setX87ControlWord(std::uint16_t cw)
{
    asm volatile("fldcw %0" : : "m"(cw));
}
#endif

/** True if a 16-byte-aligned local really is: a misaligned stack
 *  pointer at function entry shows up here. The address goes through a
 *  volatile so the compiler cannot fold the test to its own assumption
 *  of an aligned stack. */
[[gnu::noinline]] bool
stackAligned()
{
    alignas(16) unsigned char probe[16];
    volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(probe);
    return addr % 16 == 0;
}

/** Recurse @p depth frames deep, each with a buffer ASan surrounds
 *  with redzones, and yield at the bottom. */
[[gnu::noinline]] void
deepYield(int depth)
{
    volatile unsigned char buf[256];
    buf[0] = static_cast<unsigned char>(depth);
    if (depth > 0)
        deepYield(depth - 1);
    else
        Fiber::yield();
    buf[1] = buf[0];
}

/** Write every byte of a stack buffer @p depth frames deep. */
[[gnu::noinline]] void
deepTouch(int depth)
{
    volatile unsigned char buf[256];
    for (auto &b : buf)
        b = static_cast<unsigned char>(depth);
    if (depth > 0)
        deepTouch(depth - 1);
}

} // namespace

TEST(Fiber, RunsToCompletion)
{
    int x = 0;
    Fiber f([&] { x = 42; });
    EXPECT_FALSE(f.finished());
    f.run();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> trace;
    Fiber f([&] {
        trace.push_back(1);
        Fiber::yield();
        trace.push_back(3);
        Fiber::yield();
        trace.push_back(5);
    });
    f.run();
    trace.push_back(2);
    f.run();
    trace.push_back(4);
    f.run();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] {
        seen = Fiber::current();
        Fiber::yield();
        EXPECT_EQ(Fiber::current(), seen);
    });
    f.run();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
    f.run();
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, InterleavingTwoFibers)
{
    std::vector<int> trace;
    Fiber a([&] {
        trace.push_back(1);
        Fiber::yield();
        trace.push_back(3);
    });
    Fiber b([&] {
        trace.push_back(2);
        Fiber::yield();
        trace.push_back(4);
    });
    a.run();
    b.run();
    a.run();
    b.run();
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(a.finished());
    EXPECT_TRUE(b.finished());
}

TEST(Fiber, LocalStateSurvivesYield)
{
    long total = 0;
    Fiber f([&] {
        long acc = 0;
        for (int i = 1; i <= 100; ++i) {
            acc += i;
            if (i % 10 == 0)
                Fiber::yield();
        }
        total = acc;
    });
    while (!f.finished())
        f.run();
    EXPECT_EQ(total, 5050);
}

TEST(Fiber, DeepStackUsage)
{
    // Recursion that needs a healthy chunk of the 256 KiB stack.
    std::function<long(int)> fib = [&](int n) -> long {
        volatile char pad[512];
        pad[0] = static_cast<char>(n);
        (void)pad;
        return n < 2 ? n : fib(n - 1) + fib(n - 2);
    };
    long result = 0;
    Fiber f([&] { result = fib(18); });
    f.run();
    EXPECT_EQ(result, 2584);
}

TEST(FiberDeathTest, RunOnFinishedFiberPanics)
{
    Fiber f([] {});
    f.run();
    ASSERT_TRUE(f.finished());
    EXPECT_DEATH(f.run(), "finished fiber");
}

TEST(FiberDeathTest, NestedRunPanics)
{
    Fiber inner([] {});
    Fiber outer([&] { inner.run(); });
    EXPECT_DEATH(outer.run(), "nested Fiber::run");
}

TEST(FiberDeathTest, YieldOutsideAnyFiberPanics)
{
    EXPECT_DEATH(Fiber::yield(), "outside any fiber");
}

TEST(FiberDeathTest, TooSmallStackPanics)
{
    EXPECT_DEATH(Fiber([] {}, 256), "below the 4096-byte minimum");
}

TEST(Fiber, DestroyUnfinishedFiberIsSafe)
{
    auto *f = new Fiber([] {
        Fiber::yield();
        FAIL() << "body must not resume after destruction";
    });
    f->run();
    delete f; // must not crash or resume the body
    SUCCEED();
}

#if defined(__x86_64__)
TEST(Fiber, FloatingPointControlStaysWithItsFiber)
{
    const std::uint32_t mxcsr0 = _mm_getcsr() & mxcsrControl;
    const std::uint16_t cw0 = x87ControlWord();
    std::uint32_t mxcsrAfterYield = 0;
    std::uint16_t cwAfterYield = 0;
    std::uint32_t mxcsrInB = 0;
    std::uint16_t cwInB = 0;

    Fiber a([&] {
        _mm_setcsr(_mm_getcsr() | mxcsrRounding);
        setX87ControlWord(static_cast<std::uint16_t>(cw0 | x87Rounding));
        Fiber::yield();
        mxcsrAfterYield = _mm_getcsr() & mxcsrControl;
        cwAfterYield = x87ControlWord();
    });
    Fiber b([&] {
        mxcsrInB = _mm_getcsr() & mxcsrControl;
        cwInB = x87ControlWord();
    });

    a.run();
    // The caller keeps its own modes across a's yield...
    EXPECT_EQ(_mm_getcsr() & mxcsrControl, mxcsr0);
    EXPECT_EQ(x87ControlWord(), cw0);
    // ...a second fiber starts with the modes it was created under...
    b.run();
    EXPECT_EQ(mxcsrInB, mxcsr0);
    EXPECT_EQ(cwInB, cw0);
    // ...and a gets its own modes back on resume.
    a.run();
    EXPECT_TRUE(a.finished());
    EXPECT_EQ(mxcsrAfterYield & mxcsrRounding, mxcsrRounding);
    EXPECT_EQ(cwAfterYield & x87Rounding, x87Rounding);
    EXPECT_EQ(_mm_getcsr() & mxcsrControl, mxcsr0);
    EXPECT_EQ(x87ControlWord(), cw0);
}
#endif

TEST(Fiber, StackAlignedAtEntryAndAfterEachResume)
{
    std::vector<bool> aligned;
    Fiber f([&] {
        aligned.push_back(stackAligned());
        for (int i = 0; i < 3; ++i) {
            Fiber::yield();
            aligned.push_back(stackAligned());
        }
    });
    while (!f.finished())
        f.run();
    EXPECT_EQ(aligned, std::vector<bool>(4, true));
}

TEST(Fiber, ExceptionAfterYieldsIsRethrownByRun)
{
    int resumes = 0;
    Fiber f([&] {
        for (int i = 0; i < 3; ++i) {
            ++resumes;
            Fiber::yield();
        }
        throw std::runtime_error("late failure");
    });
    for (int i = 0; i < 3; ++i) {
        f.run();
        EXPECT_FALSE(f.finished());
    }
    try {
        f.run();
        FAIL() << "run() must rethrow the body's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "late failure");
    }
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(resumes, 3);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ReusesStackOfDestroyedUnfinishedFiber)
{
    // An unusual size, so the pool holds exactly one block of it.
    constexpr std::size_t size = 200 * 1024 + 64;
    std::uintptr_t firstFrame = 0;
    std::uintptr_t secondFrame = 0;
    auto *doomed = new Fiber(
        [&] {
            firstFrame = reinterpret_cast<std::uintptr_t>(
                __builtin_frame_address(0));
            deepYield(32);
        },
        size);
    doomed->run();
    delete doomed; // its frames, and their redzones, stay on the stack

    // The new fiber writes over every frame the dead one left behind.
    Fiber reuse(
        [&] {
            secondFrame = reinterpret_cast<std::uintptr_t>(
                __builtin_frame_address(0));
            deepTouch(32);
        },
        size);
    reuse.run();
    EXPECT_TRUE(reuse.finished());
    EXPECT_EQ(secondFrame, firstFrame);
}
