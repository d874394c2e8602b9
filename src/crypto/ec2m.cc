#include "ec2m.hh"

#include <algorithm>

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

LdPoint
Sect571r1::toLd(const Ec2mPoint &p)
{
    if (p.infinity)
        return LdPoint{};
    return LdPoint{p.x, p.y, Gf571(1)};
}

Ec2mPoint
Sect571r1::toAffine(const LdPoint &p)
{
    if (p.z.isZero())
        return Ec2mPoint{};
    const Gf571 zinv = p.z.inverse();
    return Ec2mPoint::make(p.x * zinv, p.y * zinv.square());
}

void
Sect571r1::ldDouble(LdPoint &p) const
{
    // Z3 = X^2 Z^2, X3 = X^4 + b Z^4,
    // Y3 = b Z^4 Z3 + X3 (a Z3 + Y^2 + b Z^4) with a = 1.
    if (p.z.isZero())
        return;
    const Gf571 x2 = p.x.square();
    const Gf571 z2 = p.z.square();
    const Gf571 bz4 = b_ * z2.square();
    p.z = x2 * z2;
    p.x = x2.square() + bz4;
    p.y = bz4 * p.z + p.x * (p.z + p.y.square() + bz4);
}

void
Sect571r1::ldAddMixed(LdPoint &p, const Ec2mPoint &q) const
{
    if (q.infinity)
        return;
    if (p.z.isZero()) {
        p = toLd(q);
        return;
    }
    // a = Z^2 (y_p + y_q), b = Z (x_p + x_q).
    const Gf571 z2 = p.z.square();
    const Gf571 a = p.y + q.y * z2;
    const Gf571 b = p.x + q.x * p.z;
    if (b.isZero()) {
        // Same x: p = q (double q) or p = -q (infinity).
        if (a.isZero()) {
            p = toLd(q);
            ldDouble(p);
        } else {
            p = LdPoint{};
        }
        return;
    }
    const Gf571 c = p.z * b;
    const Gf571 e = a * c;
    p.z = c.square();
    p.x = a.square() + e + b.square() * (c + z2); // a = 1 term: + Z^2
    const Gf571 f = p.x + q.x * p.z;
    p.y = (e + p.z) * f + (q.x + q.y) * p.z.square();
}

namespace {

/** López–Dahab projective x-only ladder state. */
struct LadderState
{
    Gf571 x1, z1; //!< m P
    Gf571 x2, z2; //!< (m + 1) P
};

/**
 * The Montgomery ladder loop of scalarMul (OpenSSL 1.0.1e
 * ec_GF2m_montgomery_point_multiply): one MAdd and one MDouble per
 * scalar bit below the leading one. On return m = k.
 * @pre !k.isZero(), !px.isZero()
 */
LadderState
runLadder(const Sect571r1 &curve, const BigUint &k, const Gf571 &px)
{
    // (x1, z1) = P, (x2, z2) = 2P.
    LadderState st;
    st.x1 = px;
    st.z1 = Gf571(1);
    st.z2 = px.square();
    st.x2 = st.z2.square() + curve.b();

    for (unsigned i = k.bitLength() - 1; i-- > 0;) {
        if (k.bit(i)) {
            curve.mAdd(st.x1, st.z1, st.x2, st.z2, px);
            curve.mDouble(st.x2, st.z2);
        } else {
            curve.mAdd(st.x2, st.z2, st.x1, st.z1, px);
            curve.mDouble(st.x1, st.z1);
        }
    }
    return st;
}

constexpr unsigned kCombEntries = 1u << Sect571r1::kCombWidth;

/**
 * Build the comb table. The row bases B_j = 2^(j d) G come from one
 * chain of López–Dahab doublings; entry a with top bit j is then
 * entry (a - 2^j) + B_j, one mixed addition each. The points stay
 * projective until a batched inversion (Montgomery's trick) turns
 * every Z of a group into Z^-1 at the cost of one field inversion:
 * once for the row bases, once for the entries.
 */
std::vector<Ec2mPoint>
buildBaseTable(const Sect571r1 &curve)
{
    constexpr unsigned w = Sect571r1::kCombWidth;

    // Row bases: projective chain, then affine via one batch.
    std::vector<LdPoint> rows(w);
    rows[0] = Sect571r1::toLd(curve.generator());
    for (unsigned j = 1; j < w; ++j) {
        rows[j] = rows[j - 1];
        for (unsigned i = 0; i < Sect571r1::kCombColumns; ++i)
            curve.ldDouble(rows[j]);
    }
    auto batchToAffine = [](const std::vector<LdPoint> &in) {
        // prefix[i] = z_0 ... z_(i-1) over the finite points.
        std::vector<Gf571> prefix(in.size());
        Gf571 acc(1);
        for (std::size_t i = 0; i < in.size(); ++i) {
            prefix[i] = acc;
            if (!in[i].z.isZero())
                acc = acc * in[i].z;
        }
        // Walking down, inv = (z_0 ... z_i)^-1, so z_i^-1 is
        // inv * prefix[i].
        Gf571 inv = acc.inverse();
        std::vector<Ec2mPoint> out(in.size());
        for (std::size_t i = in.size(); i-- > 0;) {
            if (in[i].z.isZero())
                continue;
            const Gf571 zinv = inv * prefix[i];
            inv = inv * in[i].z;
            out[i] = Ec2mPoint::make(in[i].x * zinv, in[i].y * zinv.square());
        }
        return out;
    };
    const std::vector<Ec2mPoint> base = batchToAffine(rows);

    std::vector<LdPoint> entries(kCombEntries); // entry 0: infinity
    for (unsigned a = 1; a < kCombEntries; ++a) {
        unsigned j = 0;
        while ((a >> (j + 1)) != 0)
            ++j;
        entries[a] = entries[a - (1u << j)];
        curve.ldAddMixed(entries[a], base[j]);
    }
    return batchToAffine(entries);
}

} // namespace

const std::vector<Ec2mPoint> &
Sect571r1::baseTable() const
{
    static const std::vector<Ec2mPoint> table = buildBaseTable(*this);
    return table;
}

Ec2mPoint
Sect571r1::mulBase(const BigUint &k) const
{
    constexpr unsigned w = kCombWidth;
    constexpr unsigned d = kCombColumns;
    static_assert(w * d <= 64 * Gf571::kWords);

    // The scalar's bits as fixed words; k >= n is reduced first.
    const std::vector<std::uint64_t> limbs =
        k < n_ ? k.limbs() : (k % n_).limbs();
    std::array<std::uint64_t, Gf571::kWords> bits{};
    std::copy(limbs.begin(), limbs.end(), bits.begin());
    auto bit = [&bits](unsigned i) {
        return static_cast<unsigned>(bits[i / 64] >> (i % 64)) & 1u;
    };

    const std::vector<Ec2mPoint> &table = baseTable();
    LdPoint q; // infinity
    for (unsigned col = d; col-- > 0;) {
        ldDouble(q);
        unsigned idx = 0;
        for (unsigned j = 0; j < w; ++j)
            idx |= bit(j * d + col) << j;
        ldAddMixed(q, table[idx]);
    }
    return toAffine(q);
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

    const LadderState st = runLadder(*this, k, p.x);
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
