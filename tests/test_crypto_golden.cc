/**
 * @file
 * Golden-value tests for the crypto and hashing primitives: SHA-256
 * against NIST CAVS / FIPS 180-4 byte-oriented vectors beyond the
 * ones in test_crypto.cc, BigUint multiply/divide/mod round-trip
 * identities on random multi-limb operands, slice-hash uniformity and
 * pinned mappings for the default machine salts, an ECDSA
 * sign/verify + ladder-nonce-bit round trip, and a known-answer test
 * pinning key generation and two signings byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/slice_hash.hh"
#include "common/rng.hh"
#include "crypto/biguint.hh"
#include "crypto/ecdsa.hh"
#include "crypto/sha256.hh"

namespace llcf {
namespace {

// ------------------------------------------------------------- SHA-256

TEST(Sha256Golden, SingleBlockAsciiVectors)
{
    EXPECT_EQ(digestToHex(sha256(std::string("a"))),
              "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785"
              "afee48bb");
    EXPECT_EQ(digestToHex(sha256(std::string("message digest"))),
              "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d"
              "393cb650");
    EXPECT_EQ(digestToHex(sha256(
                  std::string("abcdefghijklmnopqrstuvwxyz"))),
              "71c480df93d6ae2f1efad1447c66c9525e316218cf51fc8d9ed832f2"
              "daf18b73");
    EXPECT_EQ(digestToHex(sha256(std::string(
                  "The quick brown fox jumps over the lazy dog"))),
              "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf"
              "37c9e592");
}

TEST(Sha256Golden, FipsTwoBlock896Bit)
{
    // FIPS 180-4 "long" vector: 112 bytes, forcing two blocks of
    // message before the padding block.
    EXPECT_EQ(digestToHex(sha256(std::string(
                  "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijkl"
                  "mnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopq"
                  "rstu"))),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac4503"
              "7afee9d1");
}

TEST(Sha256Golden, CavsByteOrientedShortMessages)
{
    // NIST CAVS SHA256ShortMsg.rsp entries (binary, non-ASCII).
    const std::vector<std::uint8_t> one_byte{0xd3};
    EXPECT_EQ(digestToHex(sha256(one_byte)),
              "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2"
              "ba9802c1");

    const std::vector<std::uint8_t> two_bytes{0x11, 0xaf};
    EXPECT_EQ(digestToHex(sha256(two_bytes)),
              "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f"
              "072d1f98");

    const std::vector<std::uint8_t> four_bytes{0x74, 0xba, 0x25, 0x21};
    EXPECT_EQ(digestToHex(sha256(four_bytes)),
              "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc15189"
              "23ae8b0e");
}

TEST(Sha256Golden, PointerOverloadMatchesContainers)
{
    const std::string msg = "message digest";
    const auto from_string = sha256(msg);
    const auto from_ptr = sha256(
        reinterpret_cast<const std::uint8_t *>(msg.data()), msg.size());
    EXPECT_EQ(from_string, from_ptr);
}

// ------------------------------------------------------------- BigUint

/** Random value of roughly @p limbs 64-bit limbs. */
BigUint
randomWide(Rng &rng, std::size_t limbs)
{
    std::vector<std::uint64_t> words(limbs);
    for (auto &w : words)
        w = rng.next();
    return BigUint::fromLimbs(std::move(words));
}

TEST(BigUintRoundTrip, MulDivModReconstructs)
{
    Rng rng(2024);
    for (int iter = 0; iter < 50; ++iter) {
        const BigUint a = randomWide(rng, 1 + iter % 9);
        BigUint b = randomWide(rng, 1 + (iter / 3) % 9);
        if (b.isZero())
            b = BigUint(1);
        const BigUint prod = a * b;
        // Exact product: division and remainder must round-trip.
        EXPECT_EQ(prod / b, a);
        EXPECT_TRUE((prod % b).isZero());
        auto [q, r] = BigUint::divmod(prod + b - BigUint(1), b);
        EXPECT_EQ(q * b + r, prod + b - BigUint(1));
        EXPECT_TRUE(r < b);
    }
}

TEST(BigUintRoundTrip, MulModMatchesWideningMultiply)
{
    Rng rng(77);
    for (int iter = 0; iter < 50; ++iter) {
        const BigUint a = randomWide(rng, 1 + iter % 9);
        const BigUint b = randomWide(rng, 1 + (iter / 5) % 9);
        BigUint m = randomWide(rng, 1 + iter % 5);
        if (m.isZero() || m.isOne())
            m = BigUint(97);
        EXPECT_EQ(BigUint::mulMod(a, b, m), (a * b) % m);
        EXPECT_EQ(BigUint::addMod(a % m, b % m, m), (a + b) % m);
        // subMod wraps into [0, m).
        const BigUint am = a % m, bm = b % m;
        const BigUint diff = BigUint::subMod(am, bm, m);
        EXPECT_TRUE(diff < m);
        EXPECT_EQ(BigUint::addMod(diff, bm, m), am);
    }
}

TEST(BigUintRoundTrip, MulModAgainstMersennePrimeInverse)
{
    // p = 2^127 - 1 (prime), so every non-zero residue is invertible.
    const BigUint p =
        BigUint::fromHex("7fffffffffffffffffffffffffffffff");
    Rng rng(5);
    for (int iter = 0; iter < 20; ++iter) {
        BigUint a = randomWide(rng, 4) % p;
        if (a.isZero())
            a = BigUint(3);
        const BigUint inv = a.invMod(p);
        EXPECT_TRUE(BigUint::mulMod(a, inv, p).isOne());
    }
}

TEST(BigUintRoundTrip, HexAndShiftRoundTrips)
{
    Rng rng(31337);
    for (int iter = 0; iter < 30; ++iter) {
        const BigUint a = randomWide(rng, 1 + iter % 10);
        EXPECT_EQ(BigUint::fromHex(a.toHex()), a);
        const unsigned k = static_cast<unsigned>(rng.nextBelow(200));
        EXPECT_EQ((a << k) >> k, a);
    }
}

// ----------------------------------------------------------- slice hash

TEST(SliceHashGolden, UniformAcrossSlicesForFixedSalts)
{
    // The pruning algorithms assume candidate addresses spread evenly
    // over slices for any salt; a skewed hash would silently inflate
    // per-set congruence and fake success rates.
    for (std::uint64_t salt : {0x5eed5a17ULL, 0xabcdef01ULL, 0x1ULL}) {
        for (unsigned slices : {8u, 26u, 28u}) {
            OpaqueSliceHash hash(slices, salt);
            std::vector<unsigned> counts(slices, 0);
            const unsigned n = 64 * 1024;
            for (unsigned i = 0; i < n; ++i) {
                // Page-stride addresses, like candidate-pool frames.
                const Addr pa = static_cast<Addr>(i) * kPageBytes;
                const unsigned s = hash.slice(pa);
                ASSERT_LT(s, slices);
                counts[s]++;
            }
            const double expect = static_cast<double>(n) / slices;
            for (unsigned s = 0; s < slices; ++s) {
                EXPECT_NEAR(counts[s], expect, expect * 0.2)
                    << "salt " << salt << " slices " << slices
                    << " slice " << s;
            }
        }
    }
}

TEST(SliceHashGolden, PinnedValuesForDefaultSalt)
{
    // Pin the mapping of the default machine salt: a drift here would
    // silently re-shuffle every scenario's ground truth.
    OpaqueSliceHash h28(28, 0x5eed5a17);
    OpaqueSliceHash h26(26, 0x5eed5a17);
    const struct
    {
        Addr pa;
        unsigned s28;
        unsigned s26;
    } golden[] = {
        {0x0ULL, 2u, 12u},
        {0x40ULL, 8u, 14u},
        {0x1000ULL, 10u, 10u},
        {0xdeadbee000ULL, 4u, 18u},
        {0x48d159e000ULL, 13u, 5u},
    };
    for (const auto &g : golden) {
        EXPECT_EQ(h28.slice(g.pa), g.s28) << std::hex << g.pa;
        EXPECT_EQ(h26.slice(g.pa), g.s26) << std::hex << g.pa;
    }
}

TEST(SliceHashGolden, XorMatrixParity)
{
    // Two mask bits -> 4 slices; slice bit i = parity(pa & mask[i]).
    XorMatrixSliceHash hash({0x40ULL, 0x80ULL});
    EXPECT_EQ(hash.slices(), 4u);
    EXPECT_EQ(hash.slice(0x000), 0u);
    EXPECT_EQ(hash.slice(0x040), 1u);
    EXPECT_EQ(hash.slice(0x080), 2u);
    EXPECT_EQ(hash.slice(0x0c0), 3u);
    EXPECT_EQ(hash.slice(0x1c0), 3u); // bit 8 not in any mask
}

// ---------------------------------------------------------------- ECDSA

TEST(EcdsaGolden, SignVerifyAndLadderBitRoundTrip)
{
    Ecdsa ecdsa(Rng{1234});
    const EcdsaKeyPair kp = ecdsa.generateKey();
    const Sha256Digest digest = sha256(std::string(
        "scenario-matrix golden message"));

    SigningRecord rec = ecdsa.signWithTrace(digest, kp.d);
    EXPECT_TRUE(ecdsa.verify(digest, rec.signature, kp.q));

    // Tampering must break verification.
    EXPECT_FALSE(ecdsa.verify(sha256(std::string("tampered")),
                              rec.signature, kp.q));
    EcdsaSignature bad = rec.signature;
    bad.s = BigUint::addMod(bad.s, BigUint(1),
                            Sect571r1::instance().order());
    EXPECT_FALSE(ecdsa.verify(digest, bad, kp.q));

    // Nonce-bit round trip: the ladder records the bits below the
    // implicit leading 1, in loop (MSB-first) order — exactly the
    // ground truth the extraction pipeline is scored against.
    ASSERT_FALSE(rec.ladderBits.empty());
    ASSERT_EQ(rec.ladderBits.size(), rec.nonce.bitLength() - 1);
    BigUint k(1);
    for (std::uint8_t bit : rec.ladderBits) {
        ASSERT_LE(bit, 1);
        k = (k << 1) + BigUint(bit);
    }
    EXPECT_EQ(k, rec.nonce);
}

/** FNV-1a (64-bit) over a bit vector, one byte per bit. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(EcdsaGolden, KnownAnswerKeyAndSignatures)
{
    // Known answers for a fixed engine seed: key generation (d*G via
    // scalarMul), then two ladder signings (nonce, ladder bits, and
    // r, s via the mod-n arithmetic). Any change to the field, curve
    // or integer kernels that is not bit-exact moves these bytes.
    Ecdsa ecdsa(Rng{0x6b617400ULL});
    const EcdsaKeyPair kp = ecdsa.generateKey();
    EXPECT_EQ(kp.d.toHex(),
              "3ececb646273c5f5fb23b3d65d8b8e2dbd14a2a06a2390c401f564e14a7d"
              "148b9466355837e7aa1a4a8623ed1a331e643db49e8654f871a5788ae697"
              "9246f1eb744c626ab7416ed");
    EXPECT_EQ(kp.q.x.toHex(),
              "43e840c9060c878c8bae331207f98b02b7381c2f86f8e6b89ecc041e33c0"
              "708a412da0d65a1ada63fb8eaa7273d22dc27145cb3429035bd2306d4b33"
              "e9e88c41088b2a9f4827e1a");
    EXPECT_EQ(kp.q.y.toHex(),
              "243acaf7a8e6beefa088166424953ff4a4a8226fcdf2ef006e0e8645f092"
              "91d9241401818bf1f244c69478c52e243f7e550e477fd4a3cd6c7c4658d3"
              "0dc19e3b35e5629cc312515");

    struct Expected
    {
        const char *r, *s, *nonce;
        std::uint64_t bitsFnv;
    };
    const Expected expected[2] = {
        {"30ed6e708dfe4d9e9819ef261bbda2c57ae085fe92419c45b10867fbc033"
         "c38a471a165bcf752d225e616a0559dfcbde2b337b6b2649e7c7a585911d"
         "7f0c968e839563879b4ba84",
         "118b8d414b50cd4222246895abf70b8aef3d418092b86db0ab53485a2d41"
         "450513520108f27c88e3a3a30fa7e6b6d4b0d8d78979afb97feef99ec5d2"
         "3aaba882d63c8cea0a63a4",
         "380ada9cd5fd6abb52445beeb5bd9edacb191f5951329f92071055fdf8ab"
         "a0aa46a0f4c20cd3900b3a68efd06774ca09e40ded50800dafda3b0321c9"
         "4bb5ebd9b39d2ad5ef9ca3d",
         0xc3080d58e5235956ULL},
        {"29e8f07b540252e6a452ff80dc05f631a11ad35a0e8e9867b7fdb20229d1"
         "3d9076c2a499fa4b83edebe412000b5ed30e12ca3edb6a7dce25d8d5f3c8"
         "0d469263763bcfd388af543",
         "3a6123ac38799eb5143548dce13c6dc056b46023dc41a9464097e2ce93de"
         "1dbfc2bf4b8d30f85837efad4f12d060bc1735c9b9c42bc1d03dbf70f046"
         "01978046a8e32a87fca3c9a",
         "107a759aab094647ef3a5f40a7aaf14acfc27664ce22c5c7140d24b887c7"
         "f76756b03e2fea6a5fb060dc236bf8ef32efeea9d7dced68461aa7724f3c"
         "0e633d521012c630dde7ba1",
         0xd8e242d3483c7eabULL},
    };
    const Sha256Digest digest =
        sha256(std::string("sect571r1 known-answer message"));
    for (const Expected &e : expected) {
        const SigningRecord rec = ecdsa.signWithTrace(digest, kp.d);
        EXPECT_EQ(rec.signature.r.toHex(), e.r);
        EXPECT_EQ(rec.signature.s.toHex(), e.s);
        EXPECT_EQ(rec.nonce.toHex(), e.nonce);
        EXPECT_EQ(fnv1a(rec.ladderBits), e.bitsFnv);
    }
}

TEST(EcdsaGolden, DistinctNoncesAcrossSignings)
{
    // Nonce reuse would invalidate the attack premise (and the
    // crypto); consecutive signings must draw fresh nonces.
    Ecdsa ecdsa(Rng{777});
    const EcdsaKeyPair kp = ecdsa.generateKey();
    const Sha256Digest digest = sha256(std::string("same message"));
    SigningRecord a = ecdsa.signWithTrace(digest, kp.d);
    SigningRecord b = ecdsa.signWithTrace(digest, kp.d);
    EXPECT_NE(a.nonce, b.nonce);
    EXPECT_TRUE(ecdsa.verify(digest, a.signature, kp.q));
    EXPECT_TRUE(ecdsa.verify(digest, b.signature, kp.q));
}

} // namespace
} // namespace llcf
