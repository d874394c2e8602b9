/**
 * @file
 * ECDSA over sect571r1 with the vulnerable Montgomery-ladder nonce
 * multiplication (paper Section 7.1).  Signing records the ladder's
 * per-iteration nonce bits so the victim model can replay the
 * secret-dependent access pattern and the experiments can validate
 * extracted bits against ground truth.
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
    BigUint nonce;                       //!< the ephemeral k
    std::vector<std::uint8_t> ladderBits; //!< bits the ladder processed
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
     * Sign @p digest with private key @p d via the Montgomery-ladder
     * nonce multiplication, recording the nonce and its ladder bits.
     */
    SigningRecord signWithTrace(const Sha256Digest &digest,
                                const BigUint &d);

    /** Sign without the ground-truth record. */
    EcdsaSignature sign(const Sha256Digest &digest, const BigUint &d);

    /** Standard ECDSA verification (two scalarMul, one affine add). */
    bool verify(const Sha256Digest &digest, const EcdsaSignature &sig,
                const Ec2mPoint &q) const;

  private:
    const Sect571r1 &curve_;
    Rng rng_;
};

} // namespace llcf

#endif // LLCF_CRYPTO_ECDSA_HH
