#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/crc32.hh"
#include "sim/random.hh"

using namespace unet;

namespace {

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

} // namespace

TEST(Crc32, KnownVectors)
{
    // Standard CRC-32 check value.
    EXPECT_EQ(net::crc32(bytesOf("123456789")), 0xCBF43926u);
    EXPECT_EQ(net::crc32(bytesOf("")), 0x00000000u);
    EXPECT_EQ(net::crc32(bytesOf("a")), 0xE8B7BE43u);
    EXPECT_EQ(net::crc32(bytesOf("abc")), 0x352441C2u);
    EXPECT_EQ(net::crc32(bytesOf("The quick brown fox jumps over the "
                                 "lazy dog")),
              0x414FA339u);
}

TEST(Crc32, TableMatchesBitwiseReference)
{
    sim::Random rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::uint8_t> data(rng.uniform(0, 300));
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.u32());
        EXPECT_EQ(net::crc32(data), net::crc32Reference(data));
    }
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    auto data = bytesOf("hello, incremental crc world");
    for (std::size_t split = 0; split <= data.size(); ++split) {
        std::uint32_t state = 0xFFFFFFFFu;
        state = net::crc32Update(
            state, std::span(data.data(), split));
        state = net::crc32Update(
            state, std::span(data.data() + split, data.size() - split));
        EXPECT_EQ(net::crc32Finish(state), net::crc32(data));
    }
}

TEST(Crc32, DetectsSingleBitFlips)
{
    auto data = bytesOf("payload under test 0123456789");
    std::uint32_t good = net::crc32(data);
    for (std::size_t byte = 0; byte < data.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto corrupted = data;
            corrupted[byte] ^= static_cast<std::uint8_t>(1 << bit);
            EXPECT_NE(net::crc32(corrupted), good);
        }
    }
}

TEST(Crc32, DetectsSwappedBytes)
{
    auto data = bytesOf("ABCDEFGH");
    std::uint32_t good = net::crc32(data);
    auto swapped = data;
    std::swap(swapped[2], swapped[5]);
    EXPECT_NE(net::crc32(swapped), good);
}

TEST(Crc32, BackendNameMatchesEnum)
{
    if (net::crc32Backend() == net::Crc32Backend::pclmul)
        EXPECT_STREQ(net::crc32BackendName(), "pclmul");
    else
        EXPECT_STREQ(net::crc32BackendName(), "software");
}

TEST(Crc32, EnvForcesSoftwareOnlyForSoft)
{
    EXPECT_FALSE(net::crc32EnvForcesSoftware(nullptr));
    EXPECT_FALSE(net::crc32EnvForcesSoftware(""));
    EXPECT_TRUE(net::crc32EnvForcesSoftware("soft"));
}

TEST(Crc32, EnvRejectsMalformedValues)
{
    EXPECT_EXIT(net::crc32EnvForcesSoftware("software"),
                ::testing::ExitedWithCode(1), "UNET_CRC32=software");
    EXPECT_EXIT(net::crc32EnvForcesSoftware("SOFT"),
                ::testing::ExitedWithCode(1), "UNET_CRC32=SOFT");
    EXPECT_EXIT(net::crc32EnvForcesSoftware("hw"),
                ::testing::ExitedWithCode(1), "UNET_CRC32=hw");
}

/** The hardware folding path must be bit-identical to the tables for
 *  every length class: sub-threshold, fold-boundary (64, 128), every
 *  tail residue 0..63 around them, and long buffers that exercise the
 *  fold-by-4 main loop. Wrong folding constants fail every case. */
TEST(Crc32, PclmulMatchesSoftwareAcrossLengths)
{
    if (net::crc32Backend() != net::Crc32Backend::pclmul)
        GTEST_SKIP() << "no pclmul on this host/build";

    sim::Random rng(1234);
    std::vector<std::uint8_t> data(70000);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.u32());

    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 300; ++n)
        lengths.push_back(n);
    for (std::size_t n : {4096ul, 65536ul, 65543ul, 69999ul})
        lengths.push_back(n);

    for (std::size_t n : lengths) {
        std::span<const std::uint8_t> view(data.data(), n);
        std::uint32_t soft = net::crc32UpdateWith(
            net::Crc32Backend::software, 0xFFFFFFFFu, view);
        std::uint32_t hw = net::crc32UpdateWith(
            net::Crc32Backend::pclmul, 0xFFFFFFFFu, view);
        ASSERT_EQ(hw, soft) << "length " << n;
    }
}

/** Chunked hardware updates must compose exactly like the software
 *  incremental form (the AAL5 per-cell accumulation pattern). */
TEST(Crc32, PclmulIncrementalComposition)
{
    if (net::crc32Backend() != net::Crc32Backend::pclmul)
        GTEST_SKIP() << "no pclmul on this host/build";

    sim::Random rng(77);
    std::vector<std::uint8_t> data(9001);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.u32());

    std::uint32_t whole = net::crc32(data);
    for (std::size_t chunk : {48ul, 64ul, 100ul, 4096ul}) {
        std::uint32_t st = 0xFFFFFFFFu;
        for (std::size_t off = 0; off < data.size(); off += chunk) {
            std::size_t n =
                std::min(chunk, data.size() - off);
            st = net::crc32UpdateWith(
                net::Crc32Backend::pclmul, st,
                std::span(data.data() + off, n));
        }
        EXPECT_EQ(net::crc32Finish(st), whole) << "chunk " << chunk;
    }
}
