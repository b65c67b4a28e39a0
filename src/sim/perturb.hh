/**
 * @file
 * Schedule-perturbation run mode (the dynamic half of the determinism
 * auditor).
 *
 * A run of the simulator is supposed to be a pure function of its seed:
 * same-tick events fire in scheduling order, pools recycle
 * deterministically, and nothing observes host addresses or wall-clock
 * time. Nothing *enforces* that, though — a model that accidentally
 * depends on same-tick insertion order, or keys behaviour off a pointer
 * value, produces bit-identical runs every time and passes every golden
 * test while being one refactor away from irreproducibility.
 *
 * Perturbation mode makes such latent order dependencies fail loudly:
 * with a nonzero perturbation salt,
 *
 *  - the EventQueue permutes the firing order of same-tick events that
 *    are not annotated Order::dependent (a seeded, deterministic
 *    permutation — every salt yields one reproducible schedule);
 *  - the event-record pool threads its free lists in a salted order, so
 *    record slot numbers differ between salts;
 *  - the RecycledBuffer pool (fiber stacks, host memory arenas) picks
 *    among reusable blocks pseudo-randomly and pads fresh allocations,
 *    so data-structure addresses differ between salts.
 *
 * A model with no hidden order/address dependence produces *identical
 * simulated results* (ticks, metrics, traces) under every salt; the
 * determinism suites assert exactly that. Any digest divergence across
 * salts is a reproducibility bug — the cooperative-scheduling analogue
 * of a data race.
 *
 * The salt is process-wide (pools are per-thread, and benches need to
 * be perturbable without code changes): it is read once from the
 * UNET_PERTURB environment variable, and tests override it around
 * simulation construction with Perturb::ScopedSalt. An EventQueue
 * latches the salt at construction time.
 */

#ifndef UNET_SIM_PERTURB_HH
#define UNET_SIM_PERTURB_HH

#include <cstdint>

namespace unet::sim {

/** Whether a scheduled event tolerates same-tick reordering. */
enum class Order : std::uint8_t {
    /**
     * Default: the event does not care where in its tick it fires
     * relative to other same-tick events. Perturbation mode is free to
     * permute it — if results change, the annotation (or the model) is
     * wrong.
     */
    permutable,
    /**
     * The event is part of a documented intra-tick ordering contract
     * (e.g. WaitChannel's FIFO wakeup fairness). Order-dependent events
     * keep exact scheduling order among themselves under every salt.
     * Annotate sparingly: every dependent event is exempted from the
     * race detector.
     */
    dependent,
};

/** Process-wide perturbation-salt plumbing. */
namespace perturb {

/**
 * The active salt; 0 means perturbation is off. Initialised from the
 * UNET_PERTURB environment variable (unset/empty/"0" = off) on first
 * use.
 */
std::uint64_t salt();

/**
 * Parse a UNET_PERTURB value: null or empty means off (0); otherwise
 * it must be an unsigned integer (decimal, 0x hex or 0 octal) and
 * anything else is a fatal user error.
 */
std::uint64_t parseSalt(const char *value);

/** Override the process salt (tests). @return the previous salt. */
std::uint64_t setSalt(std::uint64_t salt);

/**
 * Mix a sequence number (or any counter) with a salt into a
 * well-scrambled 64-bit key (splitmix64 finalizer). mix(0, n) is NOT
 * the identity; callers gate on salt() themselves when the unperturbed
 * value must be the counter itself.
 */
constexpr std::uint64_t
mix(std::uint64_t salt, std::uint64_t n)
{
    std::uint64_t z = n + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Per-process counter distinguishing successive ring constructions
 * (the third perturbation axis: ring slot-reuse offsets). Each
 * unet::Ring built under a nonzero salt starts its head/tail cursor at
 * mix(salt, nextRingSequence()) % capacity instead of slot 0, so the
 * physical slot that serves a given logical push differs between salts.
 * Anything keying behaviour off a ring slot index (rather than ring
 * contents) then diverges across salts and trips the digest check.
 */
std::uint64_t nextRingSequence();

/** RAII salt override for tests: restores the previous salt. */
class ScopedSalt
{
  public:
    explicit ScopedSalt(std::uint64_t salt) : previous(setSalt(salt)) {}
    ~ScopedSalt() { setSalt(previous); }

    ScopedSalt(const ScopedSalt &) = delete;
    ScopedSalt &operator=(const ScopedSalt &) = delete;

  private:
    std::uint64_t previous;
};

} // namespace perturb

} // namespace unet::sim

#endif // UNET_SIM_PERTURB_HH
