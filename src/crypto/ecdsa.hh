/**
 * @file
 * ECDSA over sect571r1, the victim of paper Section 7.1 (OpenSSL
 * 1.0.1e, whose nonce multiplication is a Montgomery ladder). Signing
 * records the nonce bits that ladder's loop processes, one per
 * iteration, so the victim model can replay the secret-dependent
 * access pattern and the experiments can validate extracted bits
 * against ground truth. The host computes k * G with the fixed-base
 * comb (Sect571r1::mulBase); the simulated leak depends only on the
 * recorded bits.
 */

#ifndef LLCF_CRYPTO_ECDSA_HH
#define LLCF_CRYPTO_ECDSA_HH

#include <string>

#include "crypto/ec2m.hh"
#include "crypto/sha256.hh"

namespace llcf {

/** A private/public key pair. */
struct EcdsaKeyPair
{
    BigUint d;   //!< private scalar
    Ec2mPoint q; //!< public point d * G
};

/** An ECDSA signature. */
struct EcdsaSignature
{
    BigUint r;
    BigUint s;
};

/** A signature plus its signing-time secrets (ground truth). */
struct SigningRecord
{
    EcdsaSignature signature;
    BigUint nonce; //!< the ephemeral k
    /** The bits OpenSSL 1.0.1e's ladder loop processes for the
     *  nonce: those below its leading one, most significant first. */
    std::vector<std::uint8_t> ladderBits;
};

/**
 * ECDSA engine bound to sect571r1.
 */
class Ecdsa
{
  public:
    /** @param rng Source of key/nonce randomness (copied). */
    explicit Ecdsa(Rng rng);

    /** Generate a key pair. */
    EcdsaKeyPair generateKey();

    /** Truncate a SHA-256 digest to an integer mod-ready value. */
    BigUint hashToInt(const Sha256Digest &digest) const;

    /**
     * Sign @p digest with private key @p d, recording the nonce and
     * its ladder bits.
     */
    SigningRecord signWithTrace(const Sha256Digest &digest,
                                const BigUint &d);

    /** Sign without the ground-truth record. */
    EcdsaSignature sign(const Sha256Digest &digest, const BigUint &d);

    /**
     * Standard ECDSA verification, u1 G + u2 Q (mulBase, scalarMul,
     * one affine add). Rejects a public key Q that is infinity, off
     * the curve or outside the order-n subgroup (n Q != infinity).
     */
    bool verify(const Sha256Digest &digest, const EcdsaSignature &sig,
                const Ec2mPoint &q) const;

  private:
    const Sect571r1 &curve_;
    Rng rng_;
};

} // namespace llcf

#endif // LLCF_CRYPTO_ECDSA_HH
