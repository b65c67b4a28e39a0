/**
 * @file
 * Allocation-recycling containers for simulation hot paths.
 *
 * SlotRing is a FIFO ring whose slots stay alive across reuse: popping
 * the front only advances the head index, so the element object (and any
 * heap capacity it owns, e.g. a payload std::vector) is recycled by the
 * next assignment into that slot. In steady state — once the ring has
 * grown to the workload's high-water mark — pushing and popping perform
 * zero allocations.
 */

#ifndef UNET_SIM_POOL_HH
#define UNET_SIM_POOL_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace unet::sim {

/** FIFO ring with live, capacity-retaining slots. */
template <typename T>
class SlotRing
{
  public:
    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }
    std::size_t capacity() const { return slots.size(); }

    /**
     * Append a slot and return it for assignment. The returned object
     * is a recycled previous occupant (or default-constructed on first
     * use), so vector-backed members keep their capacity.
     */
    T &
    pushSlot()
    {
        if (_count == slots.size())
            grow();
        T &slot = slots[(head + _count) & (slots.size() - 1)];
        ++_count;
        return slot;
    }

    /** The oldest element. Undefined when empty. */
    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }

    /** The @p i-th oldest element (0 == front). Undefined past size. */
    T &at(std::size_t i) { return slots[(head + i) & (slots.size() - 1)]; }

    /** Retire the oldest element, leaving its slot alive for reuse. */
    void
    popFront()
    {
        head = (head + 1) & (slots.size() - 1);
        --_count;
    }

  private:
    void
    grow()
    {
        std::size_t cap = slots.empty() ? 8 : slots.size() * 2;
        std::vector<T> bigger(cap);
        for (std::size_t i = 0; i < _count; ++i)
            bigger[i] = std::move(slots[(head + i) & (slots.size() - 1)]);
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t _count = 0;
};

/**
 * A large byte buffer drawn from a per-thread recycling pool.
 *
 * Fiber stacks and host memory arenas are allocated in bursts (a fresh
 * simulation per benchmark sweep point) and sit at sizes where glibc
 * serves them straight from mmap: every churn cycle then pays an mmap,
 * a page fault per touched page, and an munmap. Recycling the buffers
 * keeps the pages mapped and warm across simulations.
 *
 * Contents follow a dirty-prefix contract. Only the first
 * dirtyPrefix() bytes of a new buffer may be non-zero; every byte past
 * them reads zero. A fresh block comes from calloc, so its dirty prefix
 * is empty and its pages stay lazy until touched. A recycled block
 * carries the prefix its previous user declared on release
 * (declareDirty()); a user that declares nothing, such as a fiber
 * stack, releases the whole block as dirty. Callers that need zeroed
 * contents (host::Memory) clear only the dirty prefix.
 *
 * Under the UNET_PERTURB run mode (sim/perturb.hh) acquisition is
 * address-salted: reuse picks pseudo-randomly among the pooled blocks
 * and fresh allocations carry a salted leading pad, so fiber stacks
 * and arenas land at different addresses under different salts. Code
 * whose simulated behaviour leaks host addresses (pointer-keyed
 * iteration, hashing a pointer into a decision) then diverges between
 * salts and is caught by the determinism suites.
 */
class RecycledBuffer
{
  public:
    explicit RecycledBuffer(std::size_t size);
    ~RecycledBuffer();

    RecycledBuffer(const RecycledBuffer &) = delete;
    RecycledBuffer &operator=(const RecycledBuffer &) = delete;

    unsigned char *data() { return mem; }
    const unsigned char *data() const { return mem; }
    std::size_t size() const { return bytes; }

    /** Leading bytes that may be non-zero on acquisition; the rest of
     *  the buffer reads zero. */
    std::size_t dirtyPrefix() const { return dirtyIn; }

    /** Promise that on release only the first @p len bytes (clamped to
     *  size()) may be non-zero. Without a call the whole buffer is
     *  recorded as dirty. */
    void declareDirty(std::size_t len) { dirtyOut = std::min(len, bytes); }

  private:
    unsigned char *mem;   ///< usable storage (= base + salted pad)
    unsigned char *base;  ///< calloc'd allocation origin, owned
    std::size_t bytes;    ///< usable size (excludes the pad)
    std::size_t dirtyIn;  ///< dirty prefix at acquisition
    std::size_t dirtyOut; ///< dirty prefix recorded on release
};

} // namespace unet::sim

#endif // UNET_SIM_POOL_HH
