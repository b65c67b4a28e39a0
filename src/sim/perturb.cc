#include "sim/perturb.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "sim/logging.hh"

namespace unet::sim::perturb {

namespace {

std::uint64_t
envSalt()
{
    // Read once per process; the simulator itself must never consult
    // the environment after startup.
    // nondet-ok(env-read): getenv is a fixed process input, not a
    // source of nondeterminism across runs with the same environment.
    const char *env = std::getenv("UNET_PERTURB"); // NOLINT(concurrency-mt-unsafe)
    return parseSalt(env);
}

std::atomic<std::uint64_t> &
slot()
{
    static std::atomic<std::uint64_t> s{envSalt()};
    return s;
}

} // namespace

std::uint64_t
parseSalt(const char *value)
{
    if (!value || !*value)
        return 0;
    // strtoull alone would take leading blanks and wrap a minus sign.
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(value, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(*value)) || *end != '\0' ||
        errno == ERANGE)
        UNET_FATAL("UNET_PERTURB=", value,
                   ": expected an unsigned integer salt");
    return static_cast<std::uint64_t>(parsed);
}

std::uint64_t
salt()
{
    return slot().load(std::memory_order_relaxed);
}

std::uint64_t
setSalt(std::uint64_t salt)
{
    return slot().exchange(salt, std::memory_order_relaxed);
}

std::uint64_t
nextRingSequence()
{
    // Thread-local so parallel test shards stay independent; the
    // counter only differentiates rings within one simulation anyway.
    thread_local std::uint64_t counter = 0;
    return counter++;
}

} // namespace unet::sim::perturb
