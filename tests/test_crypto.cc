/**
 * @file
 * Tests for the cryptographic substrate: BigUint arithmetic against
 * known values and algebraic properties, SHA-256 FIPS vectors,
 * GF(2^571) field axioms and the comb multiply against a bit-serial
 * reference, sect571r1 curve-group properties, the López–Dahab
 * doubling and mixed addition on their exceptional inputs, the
 * ladder-based scalarMul and the fixed-base comb mulBase against an
 * affine double-and-add oracle and an x-only ladder oracle (random
 * and edge scalars and points), and ECDSA sign/verify round trips
 * including nonce-bit ground truth and public-key validation.
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

/** Result of the x-only Montgomery ladder oracle. */
struct LadderResult
{
    bool infinity = true;
    Gf571 x;
    /** The scalar bits the ladder loop processed, in loop order
     *  (MSB-1 downwards): the paper's per-iteration secret. */
    std::vector<std::uint8_t> bits;
};

/**
 * x-only López–Dahab Montgomery ladder computing x(k P) from x(P),
 * as OpenSSL 1.0.1e's ec_GF2m_montgomery_point_multiply does: one
 * mAdd and one mDouble per bit below k's leading one. The test oracle
 * for the signing path's r and ladder bits.
 * @pre !k.isZero(), !px.isZero()
 */
LadderResult
ladderMulX(const Sect571r1 &curve, const BigUint &k, const Gf571 &px)
{
    // (x1, z1) = P, (x2, z2) = 2P.
    Gf571 x1 = px, z1(1);
    Gf571 z2 = px.square();
    Gf571 x2 = z2.square() + curve.b();
    LadderResult res;
    for (unsigned i = k.bitLength() - 1; i-- > 0;) {
        const bool bit = k.bit(i);
        res.bits.push_back(bit ? 1 : 0);
        if (bit) {
            curve.mAdd(x1, z1, x2, z2, px);
            curve.mDouble(x2, z2);
        } else {
            curve.mAdd(x2, z2, x1, z1, px);
            curve.mDouble(x1, z1);
        }
    }
    res.infinity = z1.isZero();
    if (!res.infinity)
        res.x = x1 * z1.inverse();
    return res;
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
        auto ladder = ladderMulX(curve, k, curve.generator().x);
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
    auto ladder = ladderMulX(curve, k, curve.generator().x);
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
        auto ladder = ladderMulX(curve, BigUint(k), curve.generator().x);
        auto ref = affineScalarMul(curve, BigUint(k), curve.generator());
        ASSERT_FALSE(ladder.infinity) << k;
        EXPECT_EQ(ladder.x, ref.x) << k;
    }
}

/**
 * @p p in López–Dahab coordinates with Z = @p lambda instead of 1, so
 * the helpers see a general projective representation.
 */
LdPoint
scaledLd(const Ec2mPoint &p, const Gf571 &lambda)
{
    if (p.infinity)
        return LdPoint{};
    return LdPoint{p.x * lambda, p.y * lambda.square(), lambda};
}

TEST(Sect571r1, LdHelpersMatchAffineOnExceptionalInputs)
{
    // Every ordered pair of {G, -G, 2G, 3G, T, G + T, infinity}
    // covers P = Q, P = -Q, either operand at infinity and the
    // 2-torsion point T = (0, sqrt(b)), which is its own negative.
    const auto &curve = Sect571r1::instance();
    const Ec2mPoint g = curve.generator();
    const Ec2mPoint ng = curve.negate(g);
    const Ec2mPoint g2 = curve.dbl(g);
    const Ec2mPoint g3 = curve.add(g2, g);
    const Ec2mPoint t = twoTorsionPoint(curve);
    const Ec2mPoint gt = curve.add(g, t);
    const std::vector<Ec2mPoint> points = {g, ng, g2, g3, t, gt, {}};
    const Gf571 lambda = Gf571::fromHex("1234567890abcdef0fedcba987654321");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Ec2mPoint &p = points[i];
        LdPoint d = scaledLd(p, lambda);
        curve.ldDouble(d);
        EXPECT_TRUE(samePoint(Sect571r1::toAffine(d), curve.dbl(p)))
            << "2P, point " << i;
        EXPECT_TRUE(samePoint(Sect571r1::toAffine(Sect571r1::toLd(p)), p))
            << "round trip, point " << i;
        for (std::size_t j = 0; j < points.size(); ++j) {
            const Ec2mPoint &q = points[j];
            LdPoint sum = scaledLd(p, lambda);
            curve.ldAddMixed(sum, q);
            EXPECT_TRUE(samePoint(Sect571r1::toAffine(sum), curve.add(p, q)))
                << "P + Q, points " << i << ", " << j;
        }
    }
}

TEST(Sect571r1, BaseTableEntriesAreTheCombMultiples)
{
    const auto &curve = Sect571r1::instance();
    constexpr unsigned w = Sect571r1::kCombWidth;
    constexpr unsigned d = Sect571r1::kCombColumns;
    const std::vector<Ec2mPoint> &table = curve.baseTable();
    ASSERT_EQ(table.size(), 1u << w);
    EXPECT_EQ(&table, &curve.baseTable()); // built once, shared
    EXPECT_TRUE(table[0].infinity);
    for (std::size_t a = 1; a < table.size(); ++a) {
        EXPECT_FALSE(table[a].infinity) << a;
        EXPECT_TRUE(curve.onCurve(table[a])) << a;
    }
    // Entry a = sum_j a_j 2^(j d) G: the row bases and a few mixed
    // entries against the ladder.
    std::vector<unsigned> probes = {(1u << w) - 1, 0x5u, 0x3u};
    for (unsigned j = 0; j < w; ++j)
        probes.push_back(1u << j);
    for (unsigned a : probes) {
        BigUint k;
        for (unsigned j = 0; j < w; ++j) {
            if (a & (1u << j))
                k = k + (BigUint(1) << (j * d));
        }
        EXPECT_TRUE(samePoint(table[a], curve.scalarMul(k, curve.generator())))
            << "entry " << a;
    }
}

TEST(Sect571r1, MulBaseMatchesLadderOnRandomScalars)
{
    const auto &curve = Sect571r1::instance();
    const Ec2mPoint g = curve.generator();
    Rng rng(109);
    for (int i = 0; i < 100; ++i) {
        const BigUint k = BigUint::randomBelow(curve.order(), rng);
        EXPECT_TRUE(samePoint(curve.mulBase(k), curve.scalarMul(k, g)))
            << "k=" << k.toHex();
    }
}

TEST(Sect571r1, MulBaseMatchesAffineOracle)
{
    const auto &curve = Sect571r1::instance();
    const Ec2mPoint g = curve.generator();
    Rng rng(113);
    std::vector<BigUint> scalars = {BigUint(7)};
    for (int i = 0; i < 3; ++i)
        scalars.push_back(BigUint::randomBelow(curve.order(), rng));
    for (const BigUint &k : scalars) {
        EXPECT_TRUE(samePoint(curve.mulBase(k), affineScalarMul(curve, k, g)))
            << "k=" << k.toHex();
    }
}

TEST(Sect571r1, MulBaseEdgeScalars)
{
    const auto &curve = Sect571r1::instance();
    const BigUint &n = curve.order();
    const Ec2mPoint g = curve.generator();
    auto check = [&](const BigUint &k) {
        EXPECT_TRUE(samePoint(curve.mulBase(k), curve.scalarMul(k, g)))
            << "k=" << k.toHex();
    };
    for (std::uint64_t k : {0ull, 1ull, 2ull, 3ull})
        check(BigUint(k));
    check(BigUint(1) << 569);
    check(n - BigUint(1));
    check(n - BigUint(2));
    // k >= n is reduced mod n: infinity, G, 3G, and a scalar wider
    // than the comb's w * d bits.
    check(n);
    check(n + BigUint(1));
    check(n + n + BigUint(3));
    check((BigUint(1) << 600) + BigUint(5));
    EXPECT_TRUE(curve.mulBase(BigUint()).infinity);
    EXPECT_TRUE(curve.mulBase(n).infinity);
    EXPECT_TRUE(samePoint(curve.mulBase(BigUint(1)), g));
    EXPECT_TRUE(samePoint(curve.mulBase(n - BigUint(1)), curve.negate(g)));
    EXPECT_TRUE(samePoint(curve.mulBase(n + BigUint(1)), g));
}

TEST(Sect571r1, MulBaseColumnsHitEveryTableIndex)
{
    // Scalars whose comb columns together take every table index:
    // column c of a scalar holds index a when bit j of a is bit
    // j * d + c of the scalar. An index is placed only where its top
    // bit stays below bit 569, so every scalar is below n.
    const auto &curve = Sect571r1::instance();
    const Ec2mPoint g = curve.generator();
    constexpr unsigned w = Sect571r1::kCombWidth;
    constexpr unsigned d = Sect571r1::kCombColumns;
    std::vector<BigUint> scalars(1);
    std::vector<bool> hit(1u << w, false);
    unsigned col = 0;
    for (unsigned a = 0; a < (1u << w); ++a) {
        unsigned top = 0;
        while ((a >> (top + 1)) != 0)
            ++top;
        if (col == d || top * d + col >= 569) {
            scalars.emplace_back();
            col = 0;
        }
        BigUint &k = scalars.back();
        for (unsigned j = 0; j < w; ++j) {
            if (a & (1u << j))
                k = k + (BigUint(1) << (j * d + col));
        }
        ++col;
    }
    for (const BigUint &k : scalars) {
        ASSERT_LT(k, curve.order());
        for (unsigned c = 0; c < d; ++c) {
            unsigned idx = 0;
            for (unsigned j = 0; j < w; ++j)
                idx |= (k.bit(j * d + c) ? 1u : 0u) << j;
            hit[idx] = true;
        }
        EXPECT_TRUE(samePoint(curve.mulBase(k), curve.scalarMul(k, g)))
            << "k=" << k.toHex();
    }
    for (unsigned a = 0; a < (1u << w); ++a)
        EXPECT_TRUE(hit[a]) << "index " << a << " never used";
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

TEST(Ecdsa, SigningMatchesTheLadderOracle)
{
    // For the same nonce, the fixed-base signing path yields the r
    // and the ladder bits the x-only Montgomery ladder produces.
    const auto &curve = Sect571r1::instance();
    Ecdsa ecdsa(Rng(127));
    const auto kp = ecdsa.generateKey();
    const auto digest = sha256(std::string("ladder oracle"));
    for (int i = 0; i < 3; ++i) {
        const SigningRecord rec = ecdsa.signWithTrace(digest, kp.d);
        const LadderResult ladder =
            ladderMulX(curve, rec.nonce, curve.generator().x);
        ASSERT_FALSE(ladder.infinity);
        EXPECT_EQ(rec.ladderBits, ladder.bits);
        EXPECT_EQ(rec.signature.r, ladder.x.toBigUint() % curve.order());
    }
}

TEST(Ecdsa, VerifyAcceptsAZeroDigest)
{
    // z = 0 makes u1 = 0, so verification adds mulBase(0) = infinity.
    Ecdsa ecdsa(Rng(131));
    const auto kp = ecdsa.generateKey();
    const Sha256Digest zero{};
    EXPECT_TRUE(ecdsa.hashToInt(zero).isZero());
    EXPECT_TRUE(ecdsa.verify(zero, ecdsa.sign(zero, kp.d), kp.q));
}

/**
 * A forgery that needs no private key: r = x(tG) mod n, s = z / t.
 * Verification computes u1 G + u2 Q = tG + u2 Q, so it passes for
 * any public key Q with u2 Q = infinity. Draws t until u2 = r / s is
 * even (so u2 T = infinity for the 2-torsion point T too).
 */
EcdsaSignature
forgeForVanishingKey(const Ecdsa &ecdsa, const Sha256Digest &digest,
                     Rng &rng)
{
    const auto &curve = Sect571r1::instance();
    const BigUint &n = curve.order();
    const BigUint z = ecdsa.hashToInt(digest);
    for (;;) {
        const BigUint t = BigUint::randomBelow(n, rng);
        if (t.isZero())
            continue;
        const BigUint r = curve.mulBase(t).x.toBigUint() % n;
        const BigUint s = BigUint::mulMod(z, t.invMod(n), n);
        if (r.isZero() || s.isZero())
            continue;
        if (BigUint::mulMod(r, s.invMod(n), n).isEven())
            return {r, s};
    }
}

TEST(Ecdsa, VerifyRejectsForgeryUnderInfinityKey)
{
    Ecdsa ecdsa(Rng(137));
    Rng rng(139);
    const auto digest = sha256(std::string("forged"));
    const EcdsaSignature sig = forgeForVanishingKey(ecdsa, digest, rng);
    EXPECT_FALSE(ecdsa.verify(digest, sig, Ec2mPoint{}));
}

TEST(Ecdsa, VerifyRejectsOffCurveKey)
{
    Ecdsa ecdsa(Rng(149));
    const auto kp = ecdsa.generateKey();
    const auto digest = sha256(std::string("msg"));
    const auto sig = ecdsa.sign(digest, kp.d);
    // (x, y + 1) keeps Q's x, so the x-only ladder still finds
    // n Q = infinity: only the curve equation tells it apart.
    const auto &curve = Sect571r1::instance();
    const Ec2mPoint bad = Ec2mPoint::make(kp.q.x, kp.q.y + Gf571(1));
    ASSERT_FALSE(curve.onCurve(bad));
    ASSERT_TRUE(curve.scalarMul(curve.order(), bad).infinity);
    EXPECT_FALSE(ecdsa.verify(digest, sig, bad));
}

TEST(Ecdsa, VerifyRejectsTwoTorsionKey)
{
    // T = (0, sqrt(b)) is on the curve but has order 2: with u2 even,
    // u2 T = infinity and the key-free forgery would verify.
    const auto &curve = Sect571r1::instance();
    Ecdsa ecdsa(Rng(151));
    Rng rng(157);
    const Ec2mPoint t = twoTorsionPoint(curve);
    ASSERT_TRUE(curve.onCurve(t));
    const auto digest = sha256(std::string("forged"));
    const EcdsaSignature sig = forgeForVanishingKey(ecdsa, digest, rng);
    EXPECT_FALSE(ecdsa.verify(digest, sig, t));
}

TEST(Ecdsa, VerifyRejectsKeyOfOrderTwoN)
{
    // Q + T has order 2n. A genuine signature under Q whose u2 is
    // even also satisfies u1 G + u2 (Q + T) = u1 G + u2 Q, so only the
    // subgroup check rejects it.
    const auto &curve = Sect571r1::instance();
    const BigUint &n = curve.order();
    Ecdsa ecdsa(Rng(163));
    const auto kp = ecdsa.generateKey();
    const Ec2mPoint bad = curve.add(kp.q, twoTorsionPoint(curve));
    ASSERT_TRUE(curve.onCurve(bad));
    for (int i = 0;; ++i) {
        ASSERT_LT(i, 64) << "no signature with an even u2";
        const auto digest = sha256("msg " + std::to_string(i));
        const auto sig = ecdsa.sign(digest, kp.d);
        if (!BigUint::mulMod(sig.r, sig.s.invMod(n), n).isEven())
            continue;
        ASSERT_TRUE(ecdsa.verify(digest, sig, kp.q));
        EXPECT_FALSE(ecdsa.verify(digest, sig, bad));
        break;
    }
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
