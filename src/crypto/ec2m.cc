#include "ec2m.hh"

#include "common/log.hh"

namespace llcf {

namespace {

// SEC 2 v2.0 / FIPS 186-4 parameters for sect571r1 (NIST B-571).
const char *kB =
    "02F40E7E 2221F295 DE297117 B7F3D62F 5C6A97FF CB8CEFF1 CD6BA8CE"
    " 4A9A18AD 84FFABBD 8EFA5933 2BE7AD67 56A66E29 4AFD185A 78FF12AA"
    " 520E4DE7 39BACA0C 7FFEFF7F 2955727A";
const char *kGx =
    "0303001D 34B85629 6C16C0D4 0D3CD775 0A93D1D2 955FA80A A5F40FC8"
    " DB7B2ABD BDE53950 F4C0D293 CDD711A3 5B67FB14 99AE6003 8614F139"
    " 4ABFA3B4 C850D927 E1E7769C 8EEC2D19";
const char *kGy =
    "037BF273 42DA639B 6DCCFFFE B73D69D7 8C6C27A6 009CBBCA 1980F853"
    " 3921E8A6 84423E43 BAB08A57 6291AF8F 461BB2A8 B3531D2F 0485C19B"
    " 16E2F151 6E23DD3C 1A4827AF 1B8AC15B";
const char *kN =
    "03FFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF"
    " FFFFFFFF FFFFFFFF E661CE18 FF559873 08059B18 6823851E C7DD9CA1"
    " 161DE93D 5174D66E 8382E9BB 2FE84E47";

} // namespace

Sect571r1::Sect571r1()
    : a_(1),
      b_(Gf571::fromHex(kB)),
      g_(Ec2mPoint::make(Gf571::fromHex(kGx), Gf571::fromHex(kGy))),
      n_(BigUint::fromHex(kN))
{
    if (!onCurve(g_))
        panic("sect571r1 generator fails the curve equation");
}

const Sect571r1 &
Sect571r1::instance()
{
    static const Sect571r1 curve;
    return curve;
}

bool
Sect571r1::onCurve(const Ec2mPoint &p) const
{
    if (p.infinity)
        return true;
    // y^2 + x y == x^3 + a x^2 + b
    const Gf571 lhs = p.y.square() + p.x * p.y;
    const Gf571 x2 = p.x.square();
    const Gf571 rhs = x2 * p.x + a_ * x2 + b_;
    return lhs == rhs;
}

Ec2mPoint
Sect571r1::negate(const Ec2mPoint &p) const
{
    if (p.infinity)
        return p;
    return Ec2mPoint::make(p.x, p.x + p.y);
}

Ec2mPoint
Sect571r1::add(const Ec2mPoint &p, const Ec2mPoint &q) const
{
    if (p.infinity)
        return q;
    if (q.infinity)
        return p;
    if (p.x == q.x) {
        if (p.y == q.y)
            return dbl(p);
        return Ec2mPoint{}; // P + (-P) = infinity
    }
    const Gf571 lambda = (p.y + q.y) * (p.x + q.x).inverse();
    const Gf571 x3 = lambda.square() + lambda + p.x + q.x + a_;
    const Gf571 y3 = lambda * (p.x + x3) + x3 + p.y;
    return Ec2mPoint::make(x3, y3);
}

Ec2mPoint
Sect571r1::dbl(const Ec2mPoint &p) const
{
    if (p.infinity || p.x.isZero())
        return Ec2mPoint{};
    const Gf571 lambda = p.x + p.y * p.x.inverse();
    const Gf571 x3 = lambda.square() + lambda + a_;
    const Gf571 y3 = p.x.square() + (lambda + Gf571(1)) * x3;
    return Ec2mPoint::make(x3, y3);
}

void
Sect571r1::mAdd(Gf571 &x1, Gf571 &z1, const Gf571 &x2, const Gf571 &z2,
                const Gf571 &x) const
{
    // López–Dahab mixed differential addition, as in OpenSSL's
    // gf2m_Madd: the difference of the two points is the base (x, 1).
    const Gf571 t1 = x1 * z2;
    const Gf571 t2 = x2 * z1;
    z1 = (t1 + t2).square();
    x1 = x * z1 + t1 * t2;
}

void
Sect571r1::mDouble(Gf571 &x, Gf571 &z) const
{
    // gf2m_Mdouble: x <- x^4 + b z^4, z <- x^2 z^2.
    const Gf571 x2 = x.square();
    const Gf571 z2 = z.square();
    z = x2 * z2;
    x = x2.square() + b_ * z2.square();
}

namespace {

/** López–Dahab projective x-only ladder state. */
struct LadderState
{
    Gf571 x1, z1; //!< m P
    Gf571 x2, z2; //!< (m + 1) P
};

/**
 * The Montgomery ladder loop shared by ladderMulX and scalarMul
 * (OpenSSL 1.0.1e ec_GF2m_montgomery_point_multiply): one MAdd and
 * one MDouble per scalar bit below the leading one. On return m = k.
 * Appends each processed bit to @p bits when it is non-null.
 * @pre !k.isZero(), !px.isZero()
 */
LadderState
runLadder(const Sect571r1 &curve, const BigUint &k, const Gf571 &px,
          std::vector<std::uint8_t> *bits)
{
    // (x1, z1) = P, (x2, z2) = 2P.
    LadderState st;
    st.x1 = px;
    st.z1 = Gf571(1);
    st.z2 = px.square();
    st.x2 = st.z2.square() + curve.b();

    const unsigned nbits = k.bitLength();
    if (bits)
        bits->reserve(nbits - 1);
    for (unsigned i = nbits - 1; i-- > 0;) {
        const bool bit = k.bit(i);
        if (bits)
            bits->push_back(bit ? 1 : 0);
        if (bit) {
            curve.mAdd(st.x1, st.z1, st.x2, st.z2, px);
            curve.mDouble(st.x2, st.z2);
        } else {
            curve.mAdd(st.x2, st.z2, st.x1, st.z1, px);
            curve.mDouble(st.x1, st.z1);
        }
    }
    return st;
}

} // namespace

Sect571r1::LadderResult
Sect571r1::ladderMulX(const BigUint &k, const Gf571 &px) const
{
    LadderResult res;
    if (k.isZero())
        fatal("Montgomery ladder needs a non-zero scalar");
    if (px.isZero()) {
        // x = 0 is the 2-torsion point; k * P is handled trivially.
        res.infinity = k.isEven();
        res.x = Gf571();
        return res;
    }

    const LadderState st = runLadder(*this, k, px, &res.bits);
    if (st.z1.isZero()) {
        res.infinity = true;
        return res;
    }
    res.infinity = false;
    res.x = st.x1 * st.z1.inverse();
    return res;
}

Ec2mPoint
Sect571r1::scalarMul(const BigUint &k, const Ec2mPoint &p) const
{
    if (k.isZero() || p.infinity)
        return Ec2mPoint{};
    if (p.x.isZero()) {
        // The 2-torsion point (0, sqrt(b)): P + P = infinity.
        return k.isEven() ? Ec2mPoint{} : p;
    }

    const LadderState st = runLadder(*this, k, p.x, nullptr);
    if (st.z1.isZero())
        return Ec2mPoint{}; // k P = infinity
    if (st.z2.isZero())
        return negate(p); // (k + 1) P = infinity, so k P = -P

    // López–Dahab y-recovery (OpenSSL gf2m_Mxy), one inversion:
    //   x_k = x1 / z1
    //   y_k = (x + x_k) [(x1 + x z1)(x2 + x z2) + (x^2 + y) z1 z2]
    //         / (x z1 z2) + y
    const Gf571 &x = p.x;
    const Gf571 &y = p.y;
    const Gf571 z1z2 = st.z1 * st.z2;
    const Gf571 num = (st.x1 + x * st.z1) * (st.x2 + x * st.z2) +
                      (x.square() + y) * z1z2;
    const Gf571 inv = (x * z1z2).inverse();
    const Gf571 xk = st.x1 * st.z2 * x * inv;
    const Gf571 yk = (xk + x) * num * inv + y;
    return Ec2mPoint::make(xk, yk);
}

} // namespace llcf
