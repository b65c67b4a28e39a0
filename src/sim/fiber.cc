#include "sim/fiber.hh"

#include <cstdint>
#include <cstring>
#include <utility>

#include "sim/logging.hh"

/*
 * ASan cannot follow raw stack switches: it tracks a "fake stack" per
 * execution context, and an unannotated switch leaves it pointed at the
 * old stack — poisoning every subsequent fiber frame. The
 * __sanitizer_{start,finish}_switch_fiber pair, called around each
 * switch, keeps the shadow state consistent. The calls compile away
 * entirely in non-ASan builds.
 */
#if defined(__SANITIZE_ADDRESS__)
#define UNET_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define UNET_ASAN_FIBERS 1
#endif
#endif

#ifdef UNET_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

/*
 * TSan has the same blindness with its own cure: every fiber gets a
 * TSan context, and __tsan_switch_to_fiber is called immediately
 * before each switch. Without it TSan attributes one fiber's accesses
 * to another's vector clock and every cross-fiber hand-off looks like
 * a race.
 */
#if defined(__SANITIZE_THREAD__)
#define UNET_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define UNET_TSAN_FIBERS 1
#endif
#endif

#ifdef UNET_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

/*
 * The stack switch. firstFrame() lays out a new fiber's stack so that
 * switchStack() enters @p entry on it; switchStack() saves the running
 * context into *save and resumes the one @p to names.
 */
#if defined(__x86_64__)
/*
 * unet_fiber_switch(save, to): suspend the running context by pushing
 * its callee-saved state and storing the stack pointer in *save, then
 * resume the context whose stack pointer is @p to.
 *
 * The saved frame, from the stored stack pointer upward, is:
 *   +0  MXCSR (4 bytes), x87 control word (2 bytes), 2 bytes unused
 *   +8  r15, r14, r13, r12, rbx, rbp
 *   +56 return address
 * The SysV ABI makes exactly these callee-saved; every other register
 * is clobbered by the call as far as the compiler is concerned. No
 * signal mask is saved, so unlike swapcontext() there is no syscall.
 */
extern "C" void unet_fiber_switch(void **save, void *to);

asm(R"(
    .text
    .p2align 4
    .globl unet_fiber_switch
    .hidden unet_fiber_switch
    .type unet_fiber_switch, @function
unet_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size unet_fiber_switch, .-unet_fiber_switch
)");

namespace {

/**
 * Build a fiber's first frame at the top of [base, base + size) and
 * return the stack pointer unet_fiber_switch() resumes it from.
 *
 * The switch pops a zeroed register file and the caller's current MXCSR
 * and x87 control word, then returns into @p entry with rsp % 16 == 8,
 * as if @p entry had just been called. Above the return address sits a
 * null return address for @p entry itself (which never returns) so
 * frame-pointer and CFI unwinders stop there.
 */
void *
firstFrame(unsigned char *base, std::size_t size, void (*entry)())
{
    auto top = (reinterpret_cast<std::uintptr_t>(base) + size) &
               ~std::uintptr_t{15};
    auto *frame = reinterpret_cast<std::uint64_t *>(top) - 9;
    std::uint32_t mxcsr;
    std::uint16_t fpucw;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpucw));
    frame[0] = mxcsr | std::uint64_t{fpucw} << 32;
    for (int i = 1; i <= 6; ++i) // r15 r14 r13 r12 rbx rbp
        frame[i] = 0;
    frame[7] = reinterpret_cast<std::uintptr_t>(entry);
    frame[8] = 0; // entry's own return address
    return frame;
}

inline void
switchStack(void **save, void *to)
{
    unet_fiber_switch(save, to);
}

} // namespace

#else

#include <ucontext.h>

#include <new>

namespace {

/**
 * ucontext fallback with the same contract: a "stack pointer" is the
 * address of a ucontext_t living on the suspended stack itself.
 */
void *
firstFrame(unsigned char *base, std::size_t size, void (*entry)())
{
    auto top = (reinterpret_cast<std::uintptr_t>(base) + size -
                sizeof(ucontext_t)) &
               ~std::uintptr_t{alignof(ucontext_t) - 1};
    auto *ctx = new (reinterpret_cast<void *>(top)) ucontext_t;
    if (getcontext(ctx) != 0)
        UNET_PANIC("getcontext failed");
    ctx->uc_stack.ss_sp = base;
    ctx->uc_stack.ss_size = top - reinterpret_cast<std::uintptr_t>(base);
    ctx->uc_link = nullptr;
    makecontext(ctx, entry, 0);
    return ctx;
}

inline void
switchStack(void **save, void *to)
{
    ucontext_t here;
    *save = &here;
    swapcontext(&here, static_cast<ucontext_t *>(to));
}

} // namespace

#endif

namespace unet::sim {

namespace {

thread_local Fiber *currentFiber = nullptr;

#if defined(UNET_CHECK) && UNET_CHECK
/** Pattern seeded at the overflow end of every fiber stack: 8 aligned
 *  words, so the check on every run() is 8 loads, not 64. */
constexpr std::uint64_t canaryWord = 0xA5A5A5A5A5A5A5A5ULL;
constexpr std::size_t canaryWords = 8;
#endif

/** Smallest stack the first frame, the canary and a trampoline call fit
 *  in with room to spare. */
constexpr std::size_t minStackSize = 4096;

inline void
asanStartSwitch([[maybe_unused]] void **fake_stack_save,
                [[maybe_unused]] const void *bottom,
                [[maybe_unused]] std::size_t size)
{
#ifdef UNET_ASAN_FIBERS
    __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

inline void
asanFinishSwitch([[maybe_unused]] void *fake_stack_save,
                 [[maybe_unused]] const void **bottom_old,
                 [[maybe_unused]] std::size_t *size_old)
{
#ifdef UNET_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old,
                                    size_old);
#endif
}

inline void *
tsanCreateFiber()
{
#ifdef UNET_TSAN_FIBERS
    return __tsan_create_fiber(0);
#else
    return nullptr;
#endif
}

inline void
tsanDestroyFiber([[maybe_unused]] void *fiber)
{
#ifdef UNET_TSAN_FIBERS
    if (fiber)
        __tsan_destroy_fiber(fiber);
#endif
}

inline void *
tsanCurrentFiber()
{
#ifdef UNET_TSAN_FIBERS
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

inline void
tsanSwitchTo([[maybe_unused]] void *fiber)
{
#ifdef UNET_TSAN_FIBERS
    __tsan_switch_to_fiber(fiber, 0);
#endif
}

} // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_size)
    : body(std::move(body)), stack(stack_size)
{
    if (!this->body)
        UNET_PANIC("fiber constructed with empty body");
    if (stack_size < minStackSize)
        UNET_PANIC("fiber stack of ", stack_size, " bytes is below the ",
                   minStackSize, "-byte minimum");
#ifdef UNET_ASAN_FIBERS
    // A recycled stack still carries the redzone poison of the frames
    // its last fiber left behind when it was destroyed unfinished or
    // died inside the trampoline. swapcontext()'s ASan interceptor used
    // to clear it; the raw switch does not, so clear it here.
    __asan_unpoison_memory_region(stack.data(), stack.size());
#endif
    tsanFiber = tsanCreateFiber();
#if defined(UNET_CHECK) && UNET_CHECK
    // The stack grows down from stack.data() + size; an overflow tramples
    // the low end first. Seed it so checkCanary() can tell.
    for (std::size_t i = 0; i < canaryWords; ++i)
        std::memcpy(stack.data() + i * sizeof canaryWord, &canaryWord,
                    sizeof canaryWord);
#endif
    fiberSp = firstFrame(stack.data(), stack.size(), &trampoline);
}

Fiber::~Fiber() { tsanDestroyFiber(tsanFiber); }

Fiber *
Fiber::current()
{
    return currentFiber;
}

void
Fiber::checkCanary() const
{
#if defined(UNET_CHECK) && UNET_CHECK
    std::uint64_t words[canaryWords];
    std::memcpy(words, stack.data(), sizeof words);
    std::uint64_t diff = 0;
    for (std::uint64_t w : words)
        diff |= w ^ canaryWord;
    if (diff == 0)
        return;
    std::size_t i = 0;
    while (stack.data()[i] == static_cast<unsigned char>(canaryWord))
        ++i;
    UNET_PANIC("fiber stack overflow: canary byte ", i, " of ",
               sizeof words, " clobbered (stack size ", stack.size(),
               " bytes)");
#endif
}

void
Fiber::trampoline()
{
    Fiber *self = currentFiber;
    // Complete the switch that entered this fiber; remember the caller's
    // stack so yield()/death can annotate the switch back.
    asanFinishSwitch(nullptr, &self->asanCallerStack,
                     &self->asanCallerSize);
    // An exception must not unwind past the first frame: capture it here
    // on the fiber stack and let run() rethrow it in the caller's
    // context.
    try {
        self->body();
    } catch (...) {
        self->pendingException = std::current_exception();
    }
    self->done = true;
    // Return to whoever ran us, never to come back. A null fake-stack
    // pointer tells ASan this fiber is dying so its fake stack can be
    // freed.
    currentFiber = nullptr;
    asanStartSwitch(nullptr, self->asanCallerStack,
                    self->asanCallerSize);
    void *to = self->callerSp;
    tsanSwitchTo(self->tsanCaller);
    switchStack(&self->fiberSp, to);
    __builtin_unreachable();
}

void
Fiber::run()
{
    if (done)
        UNET_PANIC("run() on a finished fiber");
    if (currentFiber)
        UNET_PANIC("nested Fiber::run() is not supported");

    currentFiber = this;
    void *main_fake = nullptr;
    asanStartSwitch(&main_fake, stack.data(), stack.size());
    tsanCaller = tsanCurrentFiber();
    // Load the target before telling TSan we have switched: the load
    // belongs to this context, not the fiber's.
    void *to = fiberSp;
    tsanSwitchTo(tsanFiber);
    switchStack(&callerSp, to);
    asanFinishSwitch(main_fake, nullptr, nullptr);
    currentFiber = nullptr;
    checkCanary();
    if (pendingException)
        std::rethrow_exception(std::exchange(pendingException, nullptr));
}

void
Fiber::yield()
{
    Fiber *self = currentFiber;
    if (!self)
        UNET_PANIC("Fiber::yield() outside any fiber");
    currentFiber = nullptr;
    asanStartSwitch(&self->asanFakeStack, self->asanCallerStack,
                    self->asanCallerSize);
    void *to = self->callerSp;
    tsanSwitchTo(self->tsanCaller);
    switchStack(&self->fiberSp, to);
    asanFinishSwitch(self->asanFakeStack, &self->asanCallerStack,
                     &self->asanCallerSize);
    currentFiber = self;
}

} // namespace unet::sim
