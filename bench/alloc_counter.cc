#include "alloc_counter.hh"

#include <cstdlib>
#include <new>

namespace {

std::uint64_t allocCount = 0;

void *
countedAlloc(std::size_t size)
{
    ++allocCount;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

std::uint64_t
unet::bench::heapAllocs()
{
    return allocCount;
}

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
