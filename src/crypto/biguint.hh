/**
 * @file
 * Arbitrary-precision unsigned integers for the ECDSA group
 * arithmetic (mod-n computations on the 571-bit curve order).
 *
 * Little-endian 64-bit limbs, always trimmed of leading zero limbs.
 * Only the operations ECDSA needs are provided; they favour clarity
 * over speed, except that division skips the numerator prefix that
 * is already below the divisor (the Euclid steps of invMod divide
 * numbers of nearly equal length).
 */

#ifndef LLCF_CRYPTO_BIGUINT_HH
#define LLCF_CRYPTO_BIGUINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace llcf {

/**
 * Unsigned big integer.
 */
class BigUint
{
  public:
    /** Zero. */
    BigUint() = default;

    /** From a 64-bit value. */
    explicit BigUint(std::uint64_t v);

    /** Parse a hexadecimal string (whitespace allowed). */
    static BigUint fromHex(const std::string &hex);

    /** From little-endian limb vector (copied, trimmed). */
    static BigUint fromLimbs(std::vector<std::uint64_t> limbs);

    /** Uniform random value below @p bound (> 0). */
    static BigUint randomBelow(const BigUint &bound, Rng &rng);

    /** Lowercase hex string (no leading zeros, "0" for zero). */
    std::string toHex() const;

    bool isZero() const { return limbs_.empty(); }
    bool isOne() const;
    bool isEven() const;

    /** Index of the highest set bit plus one (0 for zero). */
    unsigned bitLength() const;

    /** Value of bit @p i. */
    bool bit(unsigned i) const;

    /** Low 64 bits. */
    std::uint64_t low64() const { return limbs_.empty() ? 0 : limbs_[0]; }

    /** Read-only limb access. */
    const std::vector<std::uint64_t> &limbs() const { return limbs_; }

    /** Three-way comparison. */
    int compare(const BigUint &other) const;

    bool operator==(const BigUint &o) const { return compare(o) == 0; }
    bool operator!=(const BigUint &o) const { return compare(o) != 0; }
    bool operator<(const BigUint &o) const { return compare(o) < 0; }
    bool operator<=(const BigUint &o) const { return compare(o) <= 0; }
    bool operator>(const BigUint &o) const { return compare(o) > 0; }
    bool operator>=(const BigUint &o) const { return compare(o) >= 0; }

    BigUint operator+(const BigUint &o) const;
    /** @pre *this >= o */
    BigUint operator-(const BigUint &o) const;
    BigUint operator*(const BigUint &o) const;
    BigUint operator<<(unsigned bits) const;
    BigUint operator>>(unsigned bits) const;

    /** Quotient and remainder. @pre !d.isZero() */
    static std::pair<BigUint, BigUint> divmod(const BigUint &num,
                                              const BigUint &den);

    BigUint operator%(const BigUint &m) const;
    BigUint operator/(const BigUint &d) const;

    /** (a + b) mod m */
    static BigUint addMod(const BigUint &a, const BigUint &b,
                          const BigUint &m);

    /** (a - b) mod m */
    static BigUint subMod(const BigUint &a, const BigUint &b,
                          const BigUint &m);

    /** (a * b) mod m */
    static BigUint mulMod(const BigUint &a, const BigUint &b,
                          const BigUint &m);

    /**
     * Modular inverse via the extended Euclidean algorithm.
     * @pre gcd(*this, m) == 1, m > 1
     */
    BigUint invMod(const BigUint &m) const;

  private:
    void trim();

    std::vector<std::uint64_t> limbs_; //!< little-endian, trimmed
};

} // namespace llcf

#endif // LLCF_CRYPTO_BIGUINT_HH
