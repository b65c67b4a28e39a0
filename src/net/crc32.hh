/**
 * @file
 * CRC-32 as used by IEEE 802.3 Ethernet and ATM AAL5.
 *
 * Both standards use the same reflected CRC-32 (polynomial 0x04C11DB7,
 * initial value 0xFFFFFFFF, final complement), so one implementation
 * serves the Ethernet FCS and the AAL5 trailer CRC. A table-driven fast
 * path is validated against a bitwise reference in the tests.
 *
 * On x86-64 hosts with carry-less multiply, long inputs take a PCLMUL
 * folding path (the SSE4.2 crc32 instruction computes CRC-32C, the
 * wrong polynomial, so folding is the only hardware option for this
 * CRC). Both backends are bit-identical by construction — the backend
 * choice can change speed, never results — and the pick is made once
 * per process at run time: the CPUID check picks PCLMUL when the host
 * has it, and UNET_CRC32=soft forces the software path.
 */

#ifndef UNET_NET_CRC32_HH
#define UNET_NET_CRC32_HH

#include <cstdint>
#include <span>

namespace unet::net {

/** Which implementation serves long crc32Update inputs. */
enum class Crc32Backend : std::uint8_t {
    software, ///< slicing-by-8 tables (always available)
    pclmul,   ///< x86 carry-less-multiply folding
};

/** The backend the process resolved on first use (see file header). */
Crc32Backend crc32Backend();

/**
 * Parse a UNET_CRC32 value: null or empty keeps the run-time dispatch,
 * "soft" forces the software backend, and anything else is a fatal
 * user error. @return true when the software backend is forced.
 */
bool crc32EnvForcesSoftware(const char *value);

/** Human-readable backend name ("software" / "pclmul"). */
const char *crc32BackendName();

/** Table-driven CRC-32 over @p data. */
std::uint32_t crc32(std::span<const std::uint8_t> data);

/** Incremental form: continue a CRC with more data.
 *
 * Start with state 0xFFFFFFFF; finish by complementing.
 */
std::uint32_t crc32Update(std::uint32_t state,
                          std::span<const std::uint8_t> data);

/**
 * Incremental update through a specific backend (tests and benchmarks
 * compare the two directly). Falls back to software when the requested
 * backend is unavailable on this host or platform.
 */
std::uint32_t crc32UpdateWith(Crc32Backend backend, std::uint32_t state,
                              std::span<const std::uint8_t> data);

/** Finalize an incremental CRC state. */
constexpr std::uint32_t
crc32Finish(std::uint32_t state)
{
    return state ^ 0xFFFFFFFFu;
}

/** Bit-at-a-time reference implementation (slow; for verification). */
std::uint32_t crc32Reference(std::span<const std::uint8_t> data);

} // namespace unet::net

#endif // UNET_NET_CRC32_HH
