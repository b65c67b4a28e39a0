/**
 * @file
 * Internal interface between the CRC-32 dispatcher and the PCLMUL
 * folding translation unit (which alone is built around a target
 * attribute). Not part of the public net/ API — include net/crc32.hh.
 */

#ifndef UNET_NET_CRC32_PCLMUL_HH
#define UNET_NET_CRC32_PCLMUL_HH

#include <cstddef>
#include <cstdint>

namespace unet::net::detail {

/** True when this platform + host can run the folding kernel. */
bool crc32PclmulAvailable();

/**
 * Advance @p state over @p n bytes at @p p with PCLMUL folding.
 * Preconditions: n >= 64 and n % 64 == 0 (the dispatcher rounds down
 * and finishes the tail with the table path).
 */
std::uint32_t crc32FoldPclmul(std::uint32_t state,
                              const std::uint8_t *p, std::size_t n);

} // namespace unet::net::detail

#endif // UNET_NET_CRC32_PCLMUL_HH
