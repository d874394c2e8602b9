/**
 * @file
 * Tests for the cryptographic substrate: BigUint arithmetic against
 * known values and algebraic properties, SHA-256 FIPS vectors,
 * GF(2^571) field axioms and the comb multiply against a bit-serial
 * reference, sect571r1 curve-group properties, the ladder-based
 * scalar multiplications against an affine double-and-add oracle
 * (random and edge scalars and points), and ECDSA sign/verify round
 * trips including nonce-bit ground truth.
 */

#include <gtest/gtest.h>

#include "crypto/aes.hh"
#include "crypto/biguint.hh"
#include "crypto/ec2m.hh"
#include "crypto/ecdsa.hh"
#include "crypto/gf2m.hh"
#include "crypto/sha256.hh"

namespace llcf {
namespace {

// -------------------------------------------------------------- BigUint

TEST(BigUint, HexRoundTrip)
{
    const std::string hex = "deadbeefcafebabe0123456789abcdef55";
    EXPECT_EQ(BigUint::fromHex(hex).toHex(), hex);
    EXPECT_EQ(BigUint().toHex(), "0");
    EXPECT_EQ(BigUint::fromHex("000ff").toHex(), "ff");
}

TEST(BigUint, AddSubKnownValues)
{
    auto a = BigUint::fromHex("ffffffffffffffff");
    auto one = BigUint(1);
    EXPECT_EQ((a + one).toHex(), "10000000000000000");
    EXPECT_EQ((a + one - one).toHex(), "ffffffffffffffff");
    EXPECT_EQ((a - a).toHex(), "0");
}

TEST(BigUint, MulKnownValues)
{
    auto a = BigUint::fromHex("123456789abcdef0");
    auto b = BigUint::fromHex("fedcba9876543210");
    EXPECT_EQ((a * b).toHex(), "121fa00ad77d7422236d88fe5618cf00");
    EXPECT_EQ((a * BigUint()).isZero(), true);
    EXPECT_EQ((a * BigUint(1)), a);
}

TEST(BigUint, ShiftsInverse)
{
    auto a = BigUint::fromHex("123456789abcdef0123456789abcdef");
    for (unsigned s : {1u, 7u, 64u, 65u, 130u})
        EXPECT_EQ((a << s) >> s, a) << "shift " << s;
    EXPECT_EQ((BigUint(1) << 571).bitLength(), 572u);
}

TEST(BigUint, DivmodIdentity)
{
    Rng rng(41);
    for (int i = 0; i < 50; ++i) {
        auto n = BigUint::fromLimbs({rng.next(), rng.next(), rng.next()});
        auto d = BigUint::fromLimbs({rng.next() | 1, rng.next() &
                                     0xffff});
        auto [q, r] = BigUint::divmod(n, d);
        EXPECT_TRUE(r < d);
        EXPECT_EQ(q * d + r, n);
    }
}

TEST(BigUint, DivmodEdgeCases)
{
    auto check = [](const BigUint &n, const BigUint &d) {
        auto [q, r] = BigUint::divmod(n, d);
        EXPECT_TRUE(r < d) << n.toHex() << " / " << d.toHex();
        EXPECT_EQ(q * d + r, n) << n.toHex() << " / " << d.toHex();
        return std::make_pair(q, r);
    };
    Rng rng(42);
    for (int i = 0; i < 20; ++i) {
        const BigUint n = BigUint::fromLimbs(
            {rng.next(), rng.next(), rng.next(), rng.next() >> (i % 64)});
        // den = 1: quotient is the numerator.
        auto [q1, r1] = check(n, BigUint(1));
        EXPECT_EQ(q1, n);
        EXPECT_TRUE(r1.isZero());
        // den a power of two: a shift and a mask.
        const unsigned s = 1 + static_cast<unsigned>(rng.nextBelow(200));
        auto [q2, r2] = check(n, BigUint(1) << s);
        EXPECT_EQ(q2, n >> s);
        EXPECT_EQ(r2, n - ((n >> s) << s));
        // Equal bit lengths: quotient 1 (or 0 when num < den).
        const BigUint d = (n >> 1) + (BigUint(1) << (n.bitLength() - 1));
        ASSERT_EQ(d.bitLength(), n.bitLength());
        auto [q3, r3] = check(n, d);
        EXPECT_EQ(q3, n < d ? BigUint() : BigUint(1));
        // num < den and num == den.
        auto [q4, r4] = check(n, n + BigUint(1));
        EXPECT_TRUE(q4.isZero());
        EXPECT_EQ(r4, n);
        auto [q5, r5] = check(n, n);
        EXPECT_EQ(q5, BigUint(1));
        EXPECT_TRUE(r5.isZero());
        // One bit longer than den, and a 1-limb den under a 4-limb num.
        check(n, (n >> 1) + BigUint(1));
        check(n, BigUint(rng.next() | 1));
    }
    // Zero numerator.
    auto [q0, r0] = check(BigUint(), BigUint(7));
    EXPECT_TRUE(q0.isZero());
    EXPECT_TRUE(r0.isZero());
}

TEST(BigUint, ModularOps)
{
    auto m = BigUint::fromHex("fffffffb"); // prime
    auto a = BigUint::fromHex("123456789");
    auto b = BigUint::fromHex("abcdef123");
    EXPECT_EQ(BigUint::addMod(a, b, m), (a + b) % m);
    EXPECT_EQ(BigUint::mulMod(a, b, m), (a * b) % m);
    // subMod handles a < b via wraparound.
    auto d = BigUint::subMod(a % m, b % m, m);
    EXPECT_EQ(BigUint::addMod(d, b % m, m), a % m);
}

TEST(BigUint, InvModProperty)
{
    auto m = BigUint::fromHex(
        "ffffffffffffffffffffffffffffffff000000000000000000000001");
    Rng rng(43);
    for (int i = 0; i < 20; ++i) {
        auto a = BigUint::randomBelow(m, rng);
        if (a.isZero())
            continue;
        auto inv = a.invMod(m);
        EXPECT_TRUE(BigUint::mulMod(a, inv, m).isOne());
    }
}

TEST(BigUint, RandomBelowIsUniformishAndBounded)
{
    auto bound = BigUint::fromHex("1000");
    Rng rng(47);
    std::uint64_t max_seen = 0;
    for (int i = 0; i < 2000; ++i) {
        auto v = BigUint::randomBelow(bound, rng);
        EXPECT_TRUE(v < bound);
        max_seen = std::max(max_seen, v.low64());
    }
    EXPECT_GT(max_seen, 0xf00u); // top of the range reachable
}

TEST(BigUint, CompareAndBits)
{
    auto a = BigUint::fromHex("8000000000000000");
    EXPECT_EQ(a.bitLength(), 64u);
    EXPECT_TRUE(a.bit(63));
    EXPECT_FALSE(a.bit(62));
    EXPECT_FALSE(a.bit(640));
    EXPECT_TRUE(BigUint(2) > BigUint(1));
    EXPECT_TRUE(BigUint() < BigUint(1));
    EXPECT_TRUE(BigUint(5).isEven() == false);
    EXPECT_TRUE(BigUint(4).isEven());
    EXPECT_TRUE(BigUint().isEven());
}

// -------------------------------------------------------------- SHA-256

TEST(Sha256, FipsVectors)
{
    EXPECT_EQ(digestToHex(sha256(std::string(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
    EXPECT_EQ(digestToHex(sha256(std::string("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
    EXPECT_EQ(digestToHex(sha256(std::string(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopno"
                  "pq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
              "19db06c1");
}

TEST(Sha256, MillionA)
{
    std::string s(1000000, 'a');
    EXPECT_EQ(digestToHex(sha256(s)),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39cc"
              "c7112cd0");
}

TEST(Sha256, PaddingBoundaries)
{
    // 55/56/64-byte messages exercise the one- vs two-block padding.
    for (std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
        std::string s(len, 'x');
        auto d1 = sha256(s);
        auto d2 = sha256(s);
        EXPECT_EQ(d1, d2);
        std::string t = s;
        t[0] = 'y';
        EXPECT_NE(sha256(t), d1) << "len " << len;
    }
}

// ------------------------------------------------------------ GF(2^571)

class Gf571Test : public ::testing::Test
{
  protected:
    Gf571
    randomElement(Rng &rng)
    {
        std::vector<std::uint64_t> limbs(9);
        for (auto &w : limbs)
            w = rng.next();
        limbs[8] &= (1ULL << 59) - 1;
        return Gf571::fromBigUint(BigUint::fromLimbs(std::move(limbs)));
    }
};

TEST_F(Gf571Test, AdditionIsXorAndSelfInverse)
{
    Rng rng(51);
    for (int i = 0; i < 30; ++i) {
        Gf571 a = randomElement(rng), b = randomElement(rng);
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ(a + a, Gf571());
        EXPECT_EQ(a + Gf571(), a);
    }
}

TEST_F(Gf571Test, MultiplicationRingAxioms)
{
    Rng rng(53);
    const Gf571 one(1);
    for (int i = 0; i < 20; ++i) {
        Gf571 a = randomElement(rng), b = randomElement(rng),
              c = randomElement(rng);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a * one, a);
        EXPECT_EQ(a * Gf571(), Gf571());
    }
}

TEST_F(Gf571Test, SquareMatchesSelfMultiply)
{
    Rng rng(57);
    for (int i = 0; i < 30; ++i) {
        Gf571 a = randomElement(rng);
        EXPECT_EQ(a.square(), a * a);
    }
}

TEST_F(Gf571Test, FrobeniusLinearity)
{
    // (a + b)^2 = a^2 + b^2 in characteristic 2.
    Rng rng(59);
    for (int i = 0; i < 30; ++i) {
        Gf571 a = randomElement(rng), b = randomElement(rng);
        EXPECT_EQ((a + b).square(), a.square() + b.square());
    }
}

TEST_F(Gf571Test, InverseProperty)
{
    Rng rng(61);
    const Gf571 one(1);
    for (int i = 0; i < 20; ++i) {
        Gf571 a = randomElement(rng);
        if (a.isZero())
            continue;
        EXPECT_EQ(a * a.inverse(), one);
    }
    EXPECT_EQ(one.inverse(), one);
}

TEST_F(Gf571Test, ReductionKeepsDegreeBelow571)
{
    Rng rng(67);
    for (int i = 0; i < 50; ++i) {
        Gf571 a = randomElement(rng), b = randomElement(rng);
        EXPECT_LT((a * b).degree(), 571);
        EXPECT_LT(a.square().degree(), 571);
    }
}

TEST_F(Gf571Test, SmallKnownProduct)
{
    // (x + 1)(x) = x^2 + x, far below the modulus.
    EXPECT_EQ((Gf571(3) * Gf571(2)).toHex(), "6");
    // x^570 * x = x^571 = x^10 + x^5 + x^2 + 1 (mod f).
    Gf571 x570 = Gf571::fromBigUint(BigUint(1) << 570);
    EXPECT_EQ((x570 * Gf571(2)).toHex(),
              BigUint::fromHex("425").toHex());
}

/**
 * Bit-serial reference product: sum of a * x^i over the set bits i of
 * b, multiplying by x one step at a time and folding x^571 back as
 * x^10 + x^5 + x^2 + 1.
 */
Gf571
shiftAndAddProduct(const Gf571 &a, const Gf571 &b)
{
    std::vector<std::uint64_t> acc(9, 0);
    std::vector<std::uint64_t> ax(a.words().begin(), a.words().end());
    for (unsigned i = 0; i < Gf571::kBits; ++i) {
        if ((b.words()[i / 64] >> (i % 64)) & 1) {
            for (unsigned w = 0; w < 9; ++w)
                acc[w] ^= ax[w];
        }
        for (unsigned w = 9; w-- > 1;)
            ax[w] = (ax[w] << 1) | (ax[w - 1] >> 63);
        ax[0] <<= 1;
        if ((ax[8] >> 59) & 1) { // bit 571
            ax[8] &= ~(1ULL << 59);
            ax[0] ^= 0x425;
        }
    }
    return Gf571::fromBigUint(BigUint::fromLimbs(std::move(acc)));
}

TEST_F(Gf571Test, CombMultiplyMatchesShiftAndAdd)
{
    Rng rng(69);
    std::vector<Gf571> operands = {
        Gf571(), Gf571(1), Gf571(2), Gf571(0xf),
        Gf571::fromBigUint(BigUint(1) << 570),
        Gf571::fromBigUint((BigUint(1) << 571) - BigUint(1)),
        Gf571::fromBigUint(BigUint(0xf) << 567),
    };
    for (int i = 0; i < 25; ++i)
        operands.push_back(randomElement(rng));
    for (const Gf571 &a : operands) {
        for (const Gf571 &b : operands) {
            ASSERT_EQ(a * b, shiftAndAddProduct(a, b))
                << a.toHex() << " * " << b.toHex();
        }
        EXPECT_EQ(a.square(), shiftAndAddProduct(a, a)) << a.toHex();
    }
}

TEST_F(Gf571Test, BigUintConversionRoundTrip)
{
    Rng rng(71);
    for (int i = 0; i < 20; ++i) {
        Gf571 a = randomElement(rng);
        EXPECT_EQ(Gf571::fromBigUint(a.toBigUint()), a);
    }
}

// ------------------------------------------------------------ sect571r1

/**
 * Affine double-and-add k * P, an inversion per step: the test oracle
 * for the ladder-based scalarMul.
 */
Ec2mPoint
affineScalarMul(const Sect571r1 &curve, const BigUint &k,
                const Ec2mPoint &p)
{
    Ec2mPoint acc; // infinity
    for (unsigned i = k.bitLength(); i-- > 0;) {
        acc = curve.dbl(acc);
        if (k.bit(i))
            acc = curve.add(acc, p);
    }
    return acc;
}

/** Same point (both infinity, or equal coordinates). */
::testing::AssertionResult
samePoint(const Ec2mPoint &got, const Ec2mPoint &want)
{
    if (got.infinity != want.infinity)
        return ::testing::AssertionFailure()
               << "infinity " << got.infinity << " != " << want.infinity;
    if (!got.infinity && (got.x != want.x || got.y != want.y))
        return ::testing::AssertionFailure()
               << "(" << got.x.toHex() << ", " << got.y.toHex()
               << ") != (" << want.x.toHex() << ", " << want.y.toHex()
               << ")";
    return ::testing::AssertionSuccess();
}

/** The 2-torsion point (0, sqrt(b)); sqrt(b) = b^(2^570). */
Ec2mPoint
twoTorsionPoint(const Sect571r1 &curve)
{
    Gf571 y = curve.b();
    for (unsigned i = 0; i < Gf571::kBits - 1; ++i)
        y = y.square();
    return Ec2mPoint::make(Gf571(), y);
}

TEST(Sect571r1, GeneratorOnCurveAndOrderAnnihilates)
{
    const auto &curve = Sect571r1::instance();
    EXPECT_TRUE(curve.onCurve(curve.generator()));
    EXPECT_TRUE(curve.scalarMul(curve.order(),
                                curve.generator()).infinity);
    EXPECT_EQ(curve.order().bitLength(), 570u);
}

TEST(Sect571r1, GroupLaws)
{
    const auto &curve = Sect571r1::instance();
    const Ec2mPoint g = curve.generator();
    const Ec2mPoint g2 = curve.dbl(g);
    const Ec2mPoint g3 = curve.add(g2, g);
    EXPECT_TRUE(curve.onCurve(g2));
    EXPECT_TRUE(curve.onCurve(g3));
    // 2G + G == G + 2G
    const Ec2mPoint g3b = curve.add(g, g2);
    EXPECT_FALSE(g3.infinity);
    EXPECT_EQ(g3.x, g3b.x);
    EXPECT_EQ(g3.y, g3b.y);
    // G + (-G) = infinity
    EXPECT_TRUE(curve.add(g, curve.negate(g)).infinity);
    // G + infinity = G
    const Ec2mPoint sum = curve.add(g, Ec2mPoint{});
    EXPECT_EQ(sum.x, g.x);
    EXPECT_EQ(sum.y, g.y);
}

TEST(Sect571r1, ScalarMulDistributes)
{
    const auto &curve = Sect571r1::instance();
    const Ec2mPoint g = curve.generator();
    // (a + b) G == aG + bG
    const BigUint a(123456789), b(987654321);
    const Ec2mPoint lhs = curve.scalarMul(a + b, g);
    const Ec2mPoint rhs = curve.add(curve.scalarMul(a, g),
                                    curve.scalarMul(b, g));
    EXPECT_EQ(lhs.x, rhs.x);
    EXPECT_EQ(lhs.y, rhs.y);
}

TEST(Sect571r1, ScalarMulMatchesAffineOracle)
{
    // Random scalars of every length up to 2n, so both short ladders
    // and ones that wrap past the order are covered.
    const auto &curve = Sect571r1::instance();
    const Ec2mPoint g = curve.generator();
    Rng rng(79);
    for (int i = 0; i < 64; ++i) {
        const unsigned len =
            1 + static_cast<unsigned>(rng.nextBelow(curve.order()
                                                        .bitLength() + 1));
        const BigUint k = BigUint::randomBelow(BigUint(1) << len, rng);
        const Ec2mPoint got = curve.scalarMul(k, g);
        EXPECT_TRUE(samePoint(got, affineScalarMul(curve, k, g)))
            << "k=" << k.toHex();
        EXPECT_TRUE(curve.onCurve(got)) << "k=" << k.toHex();
    }
}

TEST(Sect571r1, ScalarMulEdgeScalarsAndPoints)
{
    const auto &curve = Sect571r1::instance();
    const BigUint &n = curve.order();
    const Ec2mPoint g = curve.generator();
    const Ec2mPoint t = twoTorsionPoint(curve);
    ASSERT_TRUE(curve.onCurve(t));
    const std::vector<BigUint> scalars = {
        BigUint(), BigUint(1), BigUint(2), BigUint(3),
        n - BigUint(1), n, n + BigUint(1), n + n,
    };
    const std::vector<Ec2mPoint> points = {g, curve.negate(g), t,
                                           Ec2mPoint{}};
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
        for (const BigUint &k : scalars) {
            EXPECT_TRUE(samePoint(curve.scalarMul(k, points[pi]),
                                  affineScalarMul(curve, k, points[pi])))
                << "point " << pi << " k=" << k.toHex();
        }
    }
    // The special cases by their known answers.
    EXPECT_TRUE(curve.scalarMul(BigUint(), g).infinity);
    EXPECT_TRUE(curve.scalarMul(n, g).infinity);
    EXPECT_TRUE(samePoint(curve.scalarMul(n - BigUint(1), g),
                          curve.negate(g)));
    EXPECT_TRUE(samePoint(curve.scalarMul(n + BigUint(1), g), g));
    EXPECT_TRUE(curve.scalarMul(BigUint(2), t).infinity);
    EXPECT_TRUE(samePoint(curve.scalarMul(BigUint(3), t), t));
    EXPECT_TRUE(curve.scalarMul(BigUint(5), Ec2mPoint{}).infinity);
}

TEST(Sect571r1, LadderMatchesDoubleAndAdd)
{
    const auto &curve = Sect571r1::instance();
    Rng rng(73);
    for (int i = 0; i < 6; ++i) {
        BigUint k = BigUint::randomBelow(curve.order(), rng);
        if (k.isZero())
            continue;
        auto ladder = curve.ladderMulX(k, curve.generator().x);
        auto ref = affineScalarMul(curve, k, curve.generator());
        ASSERT_FALSE(ref.infinity);
        ASSERT_FALSE(ladder.infinity);
        EXPECT_EQ(ladder.x, ref.x) << "k=" << k.toHex();
    }
}

TEST(Sect571r1, LadderBitsMatchScalar)
{
    const auto &curve = Sect571r1::instance();
    const BigUint k = BigUint::fromHex("5a5a5a5a5a5a5a5a5");
    auto ladder = curve.ladderMulX(k, curve.generator().x);
    ASSERT_EQ(ladder.bits.size(), k.bitLength() - 1);
    for (std::size_t i = 0; i < ladder.bits.size(); ++i) {
        const unsigned bit_index = k.bitLength() - 2 -
                                   static_cast<unsigned>(i);
        EXPECT_EQ(ladder.bits[i], k.bit(bit_index) ? 1 : 0);
    }
}

TEST(Sect571r1, LadderSmallScalars)
{
    const auto &curve = Sect571r1::instance();
    for (std::uint64_t k : {1ull, 2ull, 3ull, 7ull, 100ull}) {
        auto ladder = curve.ladderMulX(BigUint(k), curve.generator().x);
        auto ref = affineScalarMul(curve, BigUint(k), curve.generator());
        ASSERT_FALSE(ladder.infinity) << k;
        EXPECT_EQ(ladder.x, ref.x) << k;
    }
}

// ---------------------------------------------------------------- ECDSA

TEST(Ecdsa, SignVerifyRoundTrip)
{
    Ecdsa ecdsa(Rng(79));
    auto kp = ecdsa.generateKey();
    auto digest = sha256(std::string("hello signature"));
    auto sig = ecdsa.sign(digest, kp.d);
    EXPECT_TRUE(ecdsa.verify(digest, sig, kp.q));
}

TEST(Ecdsa, VerifyRejectsWrongMessage)
{
    Ecdsa ecdsa(Rng(83));
    auto kp = ecdsa.generateKey();
    auto sig = ecdsa.sign(sha256(std::string("msg-a")), kp.d);
    EXPECT_FALSE(ecdsa.verify(sha256(std::string("msg-b")), sig, kp.q));
}

TEST(Ecdsa, VerifyRejectsWrongKey)
{
    Ecdsa ecdsa(Rng(89));
    auto kp1 = ecdsa.generateKey();
    auto kp2 = ecdsa.generateKey();
    auto digest = sha256(std::string("msg"));
    auto sig = ecdsa.sign(digest, kp1.d);
    EXPECT_FALSE(ecdsa.verify(digest, sig, kp2.q));
}

TEST(Ecdsa, VerifyRejectsMalformedSignature)
{
    Ecdsa ecdsa(Rng(97));
    auto kp = ecdsa.generateKey();
    auto digest = sha256(std::string("msg"));
    auto sig = ecdsa.sign(digest, kp.d);
    EXPECT_FALSE(ecdsa.verify(digest, {BigUint(), sig.s}, kp.q));
    EXPECT_FALSE(ecdsa.verify(digest, {sig.r, BigUint()}, kp.q));
    const auto &n = Sect571r1::instance().order();
    EXPECT_FALSE(ecdsa.verify(digest, {n, sig.s}, kp.q));
}

TEST(Ecdsa, SigningRecordGroundTruthConsistent)
{
    Ecdsa ecdsa(Rng(101));
    auto kp = ecdsa.generateKey();
    auto digest = sha256(std::string("trace me"));
    auto rec = ecdsa.signWithTrace(digest, kp.d);
    EXPECT_TRUE(ecdsa.verify(digest, rec.signature, kp.q));
    // The recorded bits are the nonce's bits below the leading one.
    ASSERT_EQ(rec.ladderBits.size(), rec.nonce.bitLength() - 1);
    for (std::size_t i = 0; i < rec.ladderBits.size(); ++i) {
        const unsigned bit_index = rec.nonce.bitLength() - 2 -
                                   static_cast<unsigned>(i);
        EXPECT_EQ(rec.ladderBits[i], rec.nonce.bit(bit_index) ? 1 : 0);
    }
    // r must equal x(kG) mod n, recomputable from the nonce.
    const auto &curve = Sect571r1::instance();
    auto ref = curve.scalarMul(rec.nonce, curve.generator());
    EXPECT_EQ(rec.signature.r,
              ref.x.toBigUint() % curve.order());
}

TEST(Ecdsa, NoncesDifferAcrossSignings)
{
    Ecdsa ecdsa(Rng(103));
    auto kp = ecdsa.generateKey();
    auto digest = sha256(std::string("same message"));
    auto r1 = ecdsa.signWithTrace(digest, kp.d);
    auto r2 = ecdsa.signWithTrace(digest, kp.d);
    EXPECT_NE(r1.nonce, r2.nonce);
    EXPECT_NE(r1.signature.r, r2.signature.r);
}

TEST(Ecdsa, HashToIntBigEndian)
{
    Ecdsa ecdsa(Rng(107));
    Sha256Digest d{};
    d[0] = 0x01; // most significant byte
    d[31] = 0xff;
    auto z = ecdsa.hashToInt(d);
    EXPECT_EQ(z.bitLength(), 249u);
    EXPECT_EQ(z.low64() & 0xff, 0xffu);
}

// ------------------------------------------------------------- AES-128

TEST(Aes128, Fips197AppendixCVector)
{
    Aes128::Block key{};
    Aes128::Block pt{};
    for (unsigned i = 0; i < 16; ++i) {
        key[i] = static_cast<std::uint8_t>(i);
        pt[i] = static_cast<std::uint8_t>((i << 4) | i);
    }
    const Aes128 aes(key);
    const Aes128::Block ct = aes.encrypt(pt);
    const std::array<std::uint8_t, 16> expected{
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
        0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
    EXPECT_EQ(ct, expected);
}

TEST(Aes128, TraceMatchesEncryptAndTablePattern)
{
    Aes128::Block key{};
    Aes128::Block pt{};
    for (unsigned i = 0; i < 16; ++i) {
        key[i] = static_cast<std::uint8_t>(31 * i + 7);
        pt[i] = static_cast<std::uint8_t>(17 * i + 3);
    }
    const Aes128 aes(key);
    std::vector<Aes128::TableLookup> lookups;
    const Aes128::Block ct = aes.encryptTrace(pt, lookups);
    EXPECT_EQ(ct, aes.encrypt(pt));
    // Rounds 1-9, 16 lookups each; byte position j indexes T[j % 4].
    ASSERT_EQ(lookups.size(), 144u);
    for (std::size_t n = 0; n < lookups.size(); ++n)
        EXPECT_EQ(lookups[n].table, n % 16 % 4) << "lookup " << n;
}

TEST(Aes128, Round1IndicesArePlaintextXorKey)
{
    Aes128::Block key{};
    Aes128::Block pt{};
    for (unsigned i = 0; i < 16; ++i) {
        key[i] = static_cast<std::uint8_t>(201 - 5 * i);
        pt[i] = static_cast<std::uint8_t>(11 * i);
    }
    const Aes128 aes(key);
    std::vector<Aes128::TableLookup> lookups;
    aes.encryptTrace(pt, lookups);
    // The round-1 indices are the whitened state p XOR k — the
    // relation the nibble-recovery attack inverts.
    for (unsigned j = 0; j < 16; ++j)
        EXPECT_EQ(lookups[j].index, pt[j] ^ key[j]) << "byte " << j;
}

} // namespace
} // namespace llcf
