#include "ecdsa.hh"

#include "common/log.hh"

namespace llcf {

Ecdsa::Ecdsa(Rng rng) : curve_(Sect571r1::instance()), rng_(rng)
{
}

EcdsaKeyPair
Ecdsa::generateKey()
{
    EcdsaKeyPair kp;
    do {
        kp.d = BigUint::randomBelow(curve_.order(), rng_);
    } while (kp.d.isZero());
    kp.q = curve_.mulBase(kp.d);
    return kp;
}

BigUint
Ecdsa::hashToInt(const Sha256Digest &digest) const
{
    // The digest (256 bits) is shorter than the order (570 bits), so
    // the whole digest is used, big-endian.
    std::vector<std::uint64_t> limbs(4, 0);
    for (unsigned i = 0; i < 32; ++i) {
        limbs[3 - i / 8] |= static_cast<std::uint64_t>(digest[i])
                            << (8 * (7 - (i % 8)));
    }
    return BigUint::fromLimbs(std::move(limbs));
}

SigningRecord
Ecdsa::signWithTrace(const Sha256Digest &digest, const BigUint &d)
{
    const BigUint &n = curve_.order();
    const BigUint z = hashToInt(digest);
    SigningRecord rec;
    for (;;) {
        BigUint k;
        do {
            k = BigUint::randomBelow(n, rng_);
        } while (k.isZero());

        const Ec2mPoint kg = curve_.mulBase(k);
        if (kg.infinity)
            continue;
        const BigUint r = kg.x.toBigUint() % n;
        if (r.isZero())
            continue;
        const BigUint kinv = k.invMod(n);
        const BigUint s = BigUint::mulMod(
            kinv, BigUint::addMod(z, BigUint::mulMod(r, d, n), n), n);
        if (s.isZero())
            continue;

        // The bits the vulnerable ladder loop processes: k below its
        // leading one, most significant first.
        const unsigned nbits = k.bitLength();
        rec.ladderBits.resize(nbits - 1);
        for (unsigned i = 0; i + 1 < nbits; ++i)
            rec.ladderBits[i] = k.bit(nbits - 2 - i) ? 1 : 0;
        rec.signature = EcdsaSignature{r, s};
        rec.nonce = k;
        return rec;
    }
}

EcdsaSignature
Ecdsa::sign(const Sha256Digest &digest, const BigUint &d)
{
    return signWithTrace(digest, d).signature;
}

bool
Ecdsa::verify(const Sha256Digest &digest, const EcdsaSignature &sig,
              const Ec2mPoint &q) const
{
    const BigUint &n = curve_.order();
    if (sig.r.isZero() || sig.s.isZero() || sig.r >= n || sig.s >= n)
        return false;
    // Public-key validation: Q must be a finite curve point of order
    // n. With Q at infinity, u2 * Q vanishes and any r = x(tG) mod n,
    // s = z / t verifies; the cofactor is 2, so the 2-torsion point
    // and points of order 2n lie on the curve but outside <G>.
    if (q.infinity || !curve_.onCurve(q) || !curve_.scalarMul(n, q).infinity)
        return false;
    const BigUint z = hashToInt(digest);
    const BigUint w = sig.s.invMod(n);
    const BigUint u1 = BigUint::mulMod(z, w, n);
    const BigUint u2 = BigUint::mulMod(sig.r, w, n);
    const Ec2mPoint p =
        curve_.add(curve_.mulBase(u1), curve_.scalarMul(u2, q));
    if (p.infinity)
        return false;
    return (p.x.toBigUint() % n) == sig.r;
}

} // namespace llcf
