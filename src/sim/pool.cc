#include "sim/pool.hh"

#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "sim/perturb.hh"

namespace unet::sim {

namespace {

/** Releases a calloc'd block. */
struct FreeBlock
{
    void operator()(unsigned char *p) const { std::free(p); }
};

/** A retired buffer awaiting reuse. */
struct PooledBlock
{
    std::unique_ptr<unsigned char, FreeBlock> base;
    std::size_t pad;
    std::size_t dirty; ///< leading usable bytes that may be non-zero
};

/**
 * Every retired buffer, keyed by exact (usable) size, oldest first.
 *
 * Nothing is ever handed back to malloc. A simulation's fiber stacks and
 * arenas come in a few sizes and the next simulation asks for the same
 * ones, so the pool settles at the high-water mark of one simulation. A
 * cap below that (a 65-host rig holds 65 arenas plus their stacks) sends
 * the overflow back to malloc after every run and lets the heap layout,
 * not the workload, decide the peak RSS and the setup time of the next.
 */
thread_local std::map<std::size_t, std::vector<PooledBlock>> blockPool;

/** Monotonic draw counter for the salted acquisition decisions. */
thread_local std::uint64_t acquireCount = 0;

/** Salted pad for a fresh allocation: 0..31 cache lines. Keeps the
 *  usable area max_align-compatible (64 is a multiple of 16). */
std::size_t
saltedPad(std::uint64_t salt)
{
    if (salt == 0)
        return 0;
    return 64 * (perturb::mix(salt, ++acquireCount) % 32);
}

} // namespace

RecycledBuffer::RecycledBuffer(std::size_t size)
    : bytes(size), dirtyIn(0), dirtyOut(size)
{
    const std::uint64_t salt = perturb::salt();

    auto it = blockPool.find(size);
    if (it != blockPool.end() && !it->second.empty()) {
        std::vector<PooledBlock> &blocks = it->second;
        // Unperturbed: newest block (LIFO keeps pages warm). Salted: a
        // deterministic pseudo-random pick, so block/address pairing
        // differs between salts.
        std::size_t wanted = salt == 0
            ? 0
            : perturb::mix(salt, ++acquireCount) % blocks.size();
        auto pick = blocks.end() - 1 - static_cast<std::ptrdiff_t>(wanted);
        base = pick->base.release();
        mem = base + pick->pad;
        dirtyIn = pick->dirty;
        blocks.erase(pick);
        return;
    }

    // calloc: the block reads zero, and at stack and arena sizes glibc
    // serves it from fresh mmap pages, so it costs only the pages its
    // user touches.
    std::size_t pad = saltedPad(salt);
    base = static_cast<unsigned char *>(std::calloc(size + pad, 1));
    if (!base)
        throw std::bad_alloc();
    mem = base + pad;
}

RecycledBuffer::~RecycledBuffer()
{
    blockPool[bytes].push_back(
        {std::unique_ptr<unsigned char, FreeBlock>(base),
         static_cast<std::size_t>(mem - base), dirtyOut});
}

} // namespace unet::sim
