/**
 * @file
 * BigUint arithmetic on little-endian 64-bit limbs: schoolbook
 * addition, subtraction and multiplication; binary (shift-subtract)
 * long division that starts with the numerator's top
 * bitLength(den) - 1 bits already in the remainder; and modular
 * inversion by the extended Euclidean algorithm with explicit
 * coefficient signs.
 */

#include "biguint.hh"

#include <algorithm>
#include <cctype>

#include "common/log.hh"

namespace llcf {

BigUint::BigUint(std::uint64_t v)
{
    if (v)
        limbs_.push_back(v);
}

void
BigUint::trim()
{
    while (!limbs_.empty() && limbs_.back() == 0)
        limbs_.pop_back();
}

BigUint
BigUint::fromHex(const std::string &hex)
{
    BigUint out;
    std::string clean;
    clean.reserve(hex.size());
    for (char c : hex) {
        if (std::isxdigit(static_cast<unsigned char>(c)))
            clean.push_back(c);
        else if (!std::isspace(static_cast<unsigned char>(c)))
            fatal("invalid hex digit '%c'", c);
    }
    if (clean.empty())
        return out;
    const std::size_t nibbles = clean.size();
    out.limbs_.assign((nibbles + 15) / 16, 0);
    for (std::size_t i = 0; i < nibbles; ++i) {
        const char c = clean[nibbles - 1 - i];
        std::uint64_t v;
        if (c >= '0' && c <= '9')
            v = static_cast<std::uint64_t>(c - '0');
        else
            v = static_cast<std::uint64_t>(std::tolower(c) - 'a' + 10);
        out.limbs_[i / 16] |= v << (4 * (i % 16));
    }
    out.trim();
    return out;
}

BigUint
BigUint::fromLimbs(std::vector<std::uint64_t> limbs)
{
    BigUint out;
    out.limbs_ = std::move(limbs);
    out.trim();
    return out;
}

BigUint
BigUint::randomBelow(const BigUint &bound, Rng &rng)
{
    if (bound.isZero())
        fatal("randomBelow needs a positive bound");
    const unsigned bits = bound.bitLength();
    const std::size_t words = (bits + 63) / 64;
    for (;;) {
        std::vector<std::uint64_t> limbs(words);
        for (auto &w : limbs)
            w = rng.next();
        const unsigned top_bits = bits % 64;
        if (top_bits)
            limbs.back() &= (1ULL << top_bits) - 1;
        BigUint candidate = fromLimbs(std::move(limbs));
        if (candidate < bound)
            return candidate;
    }
}

std::string
BigUint::toHex() const
{
    if (isZero())
        return "0";
    static const char digits[] = "0123456789abcdef";
    std::string out;
    bool leading = true;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        for (int shift = 60; shift >= 0; shift -= 4) {
            const unsigned nib = (limbs_[i] >> shift) & 0xf;
            if (leading && nib == 0)
                continue;
            leading = false;
            out.push_back(digits[nib]);
        }
    }
    return out;
}

bool
BigUint::isOne() const
{
    return limbs_.size() == 1 && limbs_[0] == 1;
}

bool
BigUint::isEven() const
{
    return limbs_.empty() || (limbs_[0] & 1) == 0;
}

unsigned
BigUint::bitLength() const
{
    if (limbs_.empty())
        return 0;
    unsigned bits = static_cast<unsigned>(limbs_.size() - 1) * 64;
    std::uint64_t top = limbs_.back();
    while (top) {
        ++bits;
        top >>= 1;
    }
    return bits;
}

bool
BigUint::bit(unsigned i) const
{
    const std::size_t limb = i / 64;
    if (limb >= limbs_.size())
        return false;
    return (limbs_[limb] >> (i % 64)) & 1;
}

int
BigUint::compare(const BigUint &other) const
{
    if (limbs_.size() != other.limbs_.size())
        return limbs_.size() < other.limbs_.size() ? -1 : 1;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i] != other.limbs_[i])
            return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
    return 0;
}

BigUint
BigUint::operator+(const BigUint &o) const
{
    BigUint out;
    const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
    out.limbs_.assign(n + 1, 0);
    unsigned __int128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        unsigned __int128 sum = carry;
        if (i < limbs_.size())
            sum += limbs_[i];
        if (i < o.limbs_.size())
            sum += o.limbs_[i];
        out.limbs_[i] = static_cast<std::uint64_t>(sum);
        carry = sum >> 64;
    }
    out.limbs_[n] = static_cast<std::uint64_t>(carry);
    out.trim();
    return out;
}

BigUint
BigUint::operator-(const BigUint &o) const
{
    if (*this < o)
        panic("BigUint subtraction underflow");
    BigUint out;
    out.limbs_.assign(limbs_.size(), 0);
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const std::uint64_t rhs = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const std::uint64_t lhs = limbs_[i];
        std::uint64_t diff = lhs - rhs - borrow;
        borrow = (lhs < rhs + borrow ||
                  (rhs == ~0ULL && borrow)) ? 1 : 0;
        out.limbs_[i] = diff;
    }
    out.trim();
    return out;
}

BigUint
BigUint::operator*(const BigUint &o) const
{
    BigUint out;
    if (isZero() || o.isZero())
        return out;
    out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        unsigned __int128 carry = 0;
        for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
            unsigned __int128 cur = out.limbs_[i + j];
            cur += static_cast<unsigned __int128>(limbs_[i]) *
                   o.limbs_[j];
            cur += carry;
            out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
            carry = cur >> 64;
        }
        std::size_t k = i + o.limbs_.size();
        while (carry) {
            unsigned __int128 cur = out.limbs_[k];
            cur += carry;
            out.limbs_[k] = static_cast<std::uint64_t>(cur);
            carry = cur >> 64;
            ++k;
        }
    }
    out.trim();
    return out;
}

BigUint
BigUint::operator<<(unsigned bits) const
{
    if (isZero() || bits == 0)
        return *this;
    const unsigned limb_shift = bits / 64;
    const unsigned bit_shift = bits % 64;
    BigUint out;
    out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
        if (bit_shift) {
            out.limbs_[i + limb_shift + 1] |=
                limbs_[i] >> (64 - bit_shift);
        }
    }
    out.trim();
    return out;
}

BigUint
BigUint::operator>>(unsigned bits) const
{
    const unsigned limb_shift = bits / 64;
    const unsigned bit_shift = bits % 64;
    if (limb_shift >= limbs_.size())
        return BigUint();
    BigUint out;
    out.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
        out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
        if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
            out.limbs_[i] |=
                limbs_[i + limb_shift + 1] << (64 - bit_shift);
        }
    }
    out.trim();
    return out;
}

std::pair<BigUint, BigUint>
BigUint::divmod(const BigUint &num, const BigUint &den)
{
    if (den.isZero())
        fatal("BigUint division by zero");
    if (num < den)
        return {BigUint(), num};

    // Long division one bit at a time. The numerator's top
    // bitLength(den) - 1 bits are below den, so they start the
    // remainder directly and contribute only zero quotient bits.
    const unsigned bits = num.bitLength();
    const unsigned aligned = bits - (den.bitLength() - 1);
    BigUint quotient;
    BigUint remainder = num >> aligned;
    quotient.limbs_.assign((bits + 63) / 64, 0);
    for (unsigned i = aligned; i-- > 0;) {
        remainder = remainder << 1;
        if (num.bit(i)) {
            if (remainder.limbs_.empty())
                remainder.limbs_.push_back(1);
            else
                remainder.limbs_[0] |= 1;
        }
        if (remainder >= den) {
            remainder = remainder - den;
            quotient.limbs_[i / 64] |= 1ULL << (i % 64);
        }
    }
    quotient.trim();
    return {quotient, remainder};
}

BigUint
BigUint::operator%(const BigUint &m) const
{
    return divmod(*this, m).second;
}

BigUint
BigUint::operator/(const BigUint &d) const
{
    return divmod(*this, d).first;
}

BigUint
BigUint::addMod(const BigUint &a, const BigUint &b, const BigUint &m)
{
    BigUint sum = a + b;
    if (sum >= m)
        sum = sum % m;
    return sum;
}

BigUint
BigUint::subMod(const BigUint &a, const BigUint &b, const BigUint &m)
{
    const BigUint am = a % m;
    const BigUint bm = b % m;
    if (am >= bm)
        return am - bm;
    return m - (bm - am);
}

BigUint
BigUint::mulMod(const BigUint &a, const BigUint &b, const BigUint &m)
{
    return (a * b) % m;
}

BigUint
BigUint::invMod(const BigUint &m) const
{
    // Extended Euclid with signed bookkeeping emulated by tracking
    // coefficient signs explicitly.
    BigUint r0 = m;
    BigUint r1 = *this % m;
    if (r1.isZero())
        fatal("invMod of zero");

    BigUint t0;        // coefficient of m
    BigUint t1(1);     // coefficient of *this
    bool t0_neg = false, t1_neg = false;

    while (!r1.isZero()) {
        auto [q, r2] = divmod(r0, r1);
        // t2 = t0 - q * t1
        BigUint qt1 = q * t1;
        BigUint t2;
        bool t2_neg;
        if (t0_neg == t1_neg) {
            // same sign: t0 - q*t1 may flip sign
            if (t0 >= qt1) {
                t2 = t0 - qt1;
                t2_neg = t0_neg;
            } else {
                t2 = qt1 - t0;
                t2_neg = !t0_neg;
            }
        } else {
            t2 = t0 + qt1;
            t2_neg = t0_neg;
        }
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t0_neg = t1_neg;
        t1 = t2;
        t1_neg = t2_neg;
    }
    if (!r0.isOne())
        fatal("invMod: operand not coprime with modulus");
    BigUint result = t0 % m;
    if (t0_neg && !result.isZero())
        result = m - result;
    return result;
}

} // namespace llcf
