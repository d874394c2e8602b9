/**
 * @file
 * The sect571r1 binary elliptic curve (NIST B-571) with affine group
 * operations and the López–Dahab x-only Montgomery ladder — the exact
 * structure of the vulnerable OpenSSL 1.0.1e scalar multiplication
 * the paper attacks (Figure 8): one MAdd and one MDouble per nonce
 * bit, with secret-dependent argument order.
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
     * Full-point scalar multiplication k * P (key generation and
     * verification): the same x-only Montgomery ladder as
     * ladderMulX, finished by López–Dahab y-recovery (OpenSSL's
     * gf2m_Mxy), so one field inversion per call. Any k, including
     * 0 and multiples of the order; P may be infinity or the
     * 2-torsion point x = 0.
     */
    Ec2mPoint scalarMul(const BigUint &k, const Ec2mPoint &p) const;

    /** Result of the x-only Montgomery ladder. */
    struct LadderResult
    {
        bool infinity = true;
        Gf571 x;
        /** The nonce bits the ladder loop processed, in loop order
         *  (MSB-1 downwards) — the paper's per-iteration secret. */
        std::vector<std::uint8_t> bits;
    };

    /**
     * x-only López–Dahab Montgomery ladder computing the x-coordinate
     * of k * P from P's x-coordinate, mirroring OpenSSL 1.0.1e's
     * ec_GF2m_montgomery_point_multiply.
     * @pre !k.isZero()
     */
    LadderResult ladderMulX(const BigUint &k, const Gf571 &px) const;

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
