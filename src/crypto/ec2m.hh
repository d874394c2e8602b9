/**
 * @file
 * The sect571r1 binary elliptic curve (NIST B-571): affine group
 * operations, López–Dahab projective doubling and mixed addition, and
 * two scalar multiplications.
 *
 * - mulBase(k) computes k * G for the fixed generator (key generation,
 *   signing, verification's u1 * G) with a fixed-base comb over a
 *   table of multiples of G built once per process.
 * - scalarMul(k, P) handles any other point (verification's u2 * Q)
 *   with the López–Dahab x-only Montgomery ladder of the vulnerable
 *   OpenSSL 1.0.1e code the paper attacks (Figure 8): one MAdd and
 *   one MDouble per scalar bit, with secret-dependent argument order.
 *
 * The simulated victim's leak is modelled from the nonce bits that
 * ladder loop processes (see SigningRecord::ladderBits), not from how
 * the host computes k * G, so both methods keep every simulated byte.
 */

#ifndef LLCF_CRYPTO_EC2M_HH
#define LLCF_CRYPTO_EC2M_HH

#include <vector>

#include "crypto/gf2m.hh"

namespace llcf {

/** An affine point on the curve (or the point at infinity). */
struct Ec2mPoint
{
    Gf571 x;
    Gf571 y;
    bool infinity = true;

    static Ec2mPoint
    make(const Gf571 &x, const Gf571 &y)
    {
        return Ec2mPoint{x, y, false};
    }
};

/**
 * A point in López–Dahab projective coordinates (X : Y : Z), standing
 * for the affine (X / Z, Y / Z^2). Z = 0 is the point at infinity, so
 * the default value is infinity.
 */
struct LdPoint
{
    Gf571 x;
    Gf571 y;
    Gf571 z;
};

/**
 * sect571r1: y^2 + xy = x^3 + a x^2 + b over GF(2^571), a = 1.
 */
class Sect571r1
{
  public:
    /** Curve singleton (parameters are compile-time constants). */
    static const Sect571r1 &instance();

    const Gf571 &a() const { return a_; }
    const Gf571 &b() const { return b_; }
    const Ec2mPoint &generator() const { return g_; }
    const BigUint &order() const { return n_; }
    unsigned cofactor() const { return 2; }

    /** Curve-equation membership test. */
    bool onCurve(const Ec2mPoint &p) const;

    /** Affine negation: -(x, y) = (x, x + y). */
    Ec2mPoint negate(const Ec2mPoint &p) const;

    /** Affine point addition. */
    Ec2mPoint add(const Ec2mPoint &p, const Ec2mPoint &q) const;

    /** Affine point doubling. */
    Ec2mPoint dbl(const Ec2mPoint &p) const;

    /**
     * Full-point scalar multiplication k * P for an arbitrary point:
     * the x-only López–Dahab Montgomery ladder of OpenSSL 1.0.1e's
     * ec_GF2m_montgomery_point_multiply (one mAdd and one mDouble per
     * bit of k below its leading one), finished by y-recovery
     * (OpenSSL's gf2m_Mxy), so one field inversion per call. Any k,
     * including 0 and multiples of the order; P may be infinity or
     * the 2-torsion point x = 0.
     */
    Ec2mPoint scalarMul(const BigUint &k, const Ec2mPoint &p) const;

    /** Comb width w of mulBase: the table holds 2^w multiples of G. */
    static constexpr unsigned kCombWidth = 8;

    /** Comb columns d = ceil(570 / w): one doubling and one mixed
     *  addition each. */
    static constexpr unsigned kCombColumns = (569 + kCombWidth) / kCombWidth;

    /**
     * Fixed-base scalar multiplication k * G: the width-kCombWidth
     * comb of Hankerson–Menezes–Vanstone, *Guide to Elliptic Curve
     * Cryptography*, Alg. 3.44. Bit i of column c is bit i * d + c of
     * k, and the accumulator, in López–Dahab coordinates, runs
     * d times Q = 2Q + baseTable()[column] from the top column down;
     * one field inversion at the end. k >= n is reduced mod n first
     * (G has order n); k = 0 (or any multiple of n) gives infinity.
     */
    Ec2mPoint mulBase(const BigUint &k) const;

    /**
     * The comb's read-only table, built on first use (thread-safe)
     * and shared by every caller in the process: entry a is
     * sum_j a_j 2^(j d) G in affine form, where a_j is bit j of a;
     * entry 0 is infinity.
     */
    const std::vector<Ec2mPoint> &baseTable() const;

    /** Affine to López–Dahab (Z = 1; infinity to Z = 0). */
    static LdPoint toLd(const Ec2mPoint &p);

    /** López–Dahab to affine, one field inversion (none at infinity). */
    static Ec2mPoint toAffine(const LdPoint &p);

    /** López–Dahab doubling with a = 1 (HMV Alg. 3.24): p = 2p. The
     *  2-torsion point x = 0 and infinity double to infinity. */
    void ldDouble(LdPoint &p) const;

    /**
     * Mixed López–Dahab + affine addition with a = 1 (HMV Alg. 3.25):
     * p = p + q. Exceptional inputs are exact: p or q at infinity,
     * p = q (doubling) and p = -q (infinity).
     */
    void ldAddMixed(LdPoint &p, const Ec2mPoint &q) const;

    /** MAdd step (Figure 8): (x1,z1) += (x2,z2) with base x. */
    void mAdd(Gf571 &x1, Gf571 &z1, const Gf571 &x2, const Gf571 &z2,
              const Gf571 &x) const;

    /** MDouble step (Figure 8): (x,z) = 2 * (x,z). */
    void mDouble(Gf571 &x, Gf571 &z) const;

  private:
    Sect571r1();

    Gf571 a_;
    Gf571 b_;
    Ec2mPoint g_;
    BigUint n_;
};

} // namespace llcf

#endif // LLCF_CRYPTO_EC2M_HH
