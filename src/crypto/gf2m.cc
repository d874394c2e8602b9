/**
 * @file
 * GF(2^571) arithmetic on nine 64-bit words, portable C++ only:
 *
 * - multiplication: left-to-right comb with a 4-bit window
 *   (Hankerson, Menezes, Vanstone, "Guide to Elliptic Curve
 *   Cryptography", Algorithm 2.36) followed by word-wise reduction
 *   modulo the pentanomial f(x);
 * - squaring: bit spreading through a 256-entry byte table, then
 *   the same reduction;
 * - inversion: the polynomial extended Euclidean algorithm.
 */

#include "gf2m.hh"

#include "common/log.hh"

namespace llcf {

namespace {

constexpr unsigned kWords = Gf571::kWords;
constexpr unsigned kBits = Gf571::kBits;

/** XOR @p word shifted to absolute bit position @p bitpos into p. */
inline void
xorShifted(std::uint64_t *p, std::uint64_t word, unsigned bitpos)
{
    const unsigned w = bitpos / 64;
    const unsigned s = bitpos % 64;
    p[w] ^= word << s;
    if (s)
        p[w + 1] ^= word >> (64 - s);
}

/**
 * Reduce an 18-word product modulo f(x) = x^571 + x^10 + x^5 + x^2 + 1
 * into the low 9 words.
 */
void
reduce(std::uint64_t p[2 * kWords])
{
    for (unsigned i = 2 * kWords - 1; i >= kWords; --i) {
        const std::uint64_t x = p[i];
        if (!x)
            continue;
        p[i] = 0;
        const unsigned base = i * 64 - kBits;
        xorShifted(p, x, base);
        xorShifted(p, x, base + 2);
        xorShifted(p, x, base + 5);
        xorShifted(p, x, base + 10);
    }
    // Bits 571..575 live in the top of word 8.
    const std::uint64_t top = p[kWords - 1] >> 59;
    if (top) {
        p[kWords - 1] &= (1ULL << 59) - 1;
        p[0] ^= top ^ (top << 2) ^ (top << 5) ^ (top << 10);
    }
}

/** Squaring table: byte b -> b's bits spread to the even positions. */
constexpr std::array<std::uint16_t, 256> kSpread = [] {
    std::array<std::uint16_t, 256> t{};
    for (unsigned b = 0; b < 256; ++b) {
        for (unsigned i = 0; i < 8; ++i) {
            if (b & (1u << i))
                t[b] |= static_cast<std::uint16_t>(1u << (2 * i));
        }
    }
    return t;
}();

/** Spread the four bytes of @p w starting at byte @p first. */
inline std::uint64_t
spreadHalf(std::uint64_t w, unsigned first)
{
    std::uint64_t out = 0;
    for (unsigned byte = 0; byte < 4; ++byte) {
        out |= static_cast<std::uint64_t>(
                   kSpread[(w >> (8 * (first + byte))) & 0xff])
               << (16 * byte);
    }
    return out;
}

// --------------------------- fixed-width polynomial helpers (EEA) ---

constexpr unsigned kPolyWords = kWords + 1; // degree up to 571 (f itself)

int
polyDegree(const std::uint64_t *p)
{
    for (int i = kPolyWords - 1; i >= 0; --i) {
        if (p[i]) {
            int bit = 63;
            while (!(p[i] & (1ULL << bit)))
                --bit;
            return i * 64 + bit;
        }
    }
    return -1;
}

void
polyXorShifted(std::uint64_t *dst, const std::uint64_t *src,
               unsigned shift)
{
    const unsigned w = shift / 64;
    const unsigned s = shift % 64;
    for (unsigned i = 0; i < kPolyWords; ++i) {
        if (!src[i])
            continue;
        if (i + w < kPolyWords)
            dst[i + w] ^= src[i] << s;
        if (s && i + w + 1 < kPolyWords)
            dst[i + w + 1] ^= src[i] >> (64 - s);
    }
}

} // namespace

Gf571
Gf571::fromHex(const std::string &hex)
{
    return fromBigUint(BigUint::fromHex(hex));
}

Gf571
Gf571::fromBigUint(const BigUint &v)
{
    if (v.bitLength() > kBits)
        fatal("GF(2^571) element exceeds 571 bits");
    Gf571 out;
    const auto &limbs = v.limbs();
    for (std::size_t i = 0; i < limbs.size() && i < kWords; ++i)
        out.w_[i] = limbs[i];
    return out;
}

BigUint
Gf571::toBigUint() const
{
    return BigUint::fromLimbs(
        std::vector<std::uint64_t>(w_.begin(), w_.end()));
}

std::string
Gf571::toHex() const
{
    return toBigUint().toHex();
}

bool
Gf571::isZero() const
{
    for (std::uint64_t w : w_) {
        if (w)
            return false;
    }
    return true;
}

bool
Gf571::isOne() const
{
    if (w_[0] != 1)
        return false;
    for (unsigned i = 1; i < kWords; ++i) {
        if (w_[i])
            return false;
    }
    return true;
}

int
Gf571::degree() const
{
    for (int i = kWords - 1; i >= 0; --i) {
        if (w_[i]) {
            int bit = 63;
            while (!(w_[i] & (1ULL << bit)))
                --bit;
            return i * 64 + bit;
        }
    }
    return -1;
}

Gf571
Gf571::operator+(const Gf571 &o) const
{
    Gf571 out;
    for (unsigned i = 0; i < kWords; ++i)
        out.w_[i] = w_[i] ^ o.w_[i];
    return out;
}

Gf571
Gf571::operator*(const Gf571 &o) const
{
    // tab[u] = u(x) * o(x) for every u of degree < 4; deg <= 573, so
    // nine words hold each multiple.
    std::uint64_t tab[16][kWords];
    for (unsigned i = 0; i < kWords; ++i) {
        tab[0][i] = 0;
        tab[1][i] = o.w_[i];
    }
    for (unsigned u = 2; u < 16; u += 2) {
        // tab[u] = x * tab[u/2]; tab[u+1] = tab[u] + o.
        std::uint64_t carry = 0;
        for (unsigned i = 0; i < kWords; ++i) {
            const std::uint64_t w = tab[u / 2][i];
            tab[u][i] = (w << 1) | carry;
            carry = w >> 63;
            tab[u + 1][i] = tab[u][i] ^ o.w_[i];
        }
    }

    // Comb: for each nibble position, from the top down, add the
    // multiple selected by every word's nibble, then shift by x^4.
    // Word j's multiple lands on product words j..j+8, so product
    // word j is complete once it is in: the sum runs in a nine-word
    // window that slides one word per j, and each product word is
    // written once per pass.
    std::uint64_t prod[2 * kWords] = {0};
    for (int nib = 15; nib >= 0; --nib) {
        std::uint64_t win[kWords] = {0};
        for (unsigned j = 0; j < kWords; ++j) {
            const std::uint64_t *row = tab[(w_[j] >> (4 * nib)) & 0xf];
            for (unsigned i = 0; i < kWords; ++i)
                win[i] ^= row[i];
            prod[j] ^= win[0];
            for (unsigned i = 0; i + 1 < kWords; ++i)
                win[i] = win[i + 1];
            win[kWords - 1] = 0;
        }
        for (unsigned i = 0; i + 1 < kWords; ++i)
            prod[kWords + i] ^= win[i];
        if (nib) {
            for (unsigned i = 2 * kWords - 1; i > 0; --i)
                prod[i] = (prod[i] << 4) | (prod[i - 1] >> 60);
            prod[0] <<= 4;
        }
    }
    reduce(prod);
    Gf571 out;
    for (unsigned i = 0; i < kWords; ++i)
        out.w_[i] = prod[i];
    return out;
}

Gf571
Gf571::square() const
{
    std::uint64_t prod[2 * kWords];
    for (unsigned i = 0; i < kWords; ++i) {
        prod[2 * i] = spreadHalf(w_[i], 0);
        prod[2 * i + 1] = spreadHalf(w_[i], 4);
    }
    reduce(prod);
    Gf571 out;
    for (unsigned i = 0; i < kWords; ++i)
        out.w_[i] = prod[i];
    return out;
}

Gf571
Gf571::inverse() const
{
    if (isZero())
        fatal("inverse of zero in GF(2^571)");

    // Polynomial extended Euclid: maintain
    //   u = g1 * a (mod f),  v = g2 * a (mod f)
    // and reduce degrees until u == 1.
    std::uint64_t u[kPolyWords] = {0};
    std::uint64_t v[kPolyWords] = {0};
    std::uint64_t g1[kPolyWords] = {0};
    std::uint64_t g2[kPolyWords] = {0};

    for (unsigned i = 0; i < kWords; ++i)
        u[i] = w_[i];
    // f(x) = x^571 + x^10 + x^5 + x^2 + 1.
    v[0] = (1ULL << 10) | (1ULL << 5) | (1ULL << 2) | 1ULL;
    v[kBits / 64] |= 1ULL << (kBits % 64);
    g1[0] = 1;

    int du = polyDegree(u);
    int dv = polyDegree(v);
    while (du > 0) {
        int j = du - dv;
        if (j < 0) {
            std::swap_ranges(u, u + kPolyWords, v);
            std::swap_ranges(g1, g1 + kPolyWords, g2);
            std::swap(du, dv);
            j = -j;
        }
        polyXorShifted(u, v, static_cast<unsigned>(j));
        polyXorShifted(g1, g2, static_cast<unsigned>(j));
        du = polyDegree(u);
    }
    if (du != 0)
        panic("GF(2^571) inverse: element not invertible");

    Gf571 out;
    for (unsigned i = 0; i < kWords; ++i)
        out.w_[i] = g1[i];
    return out;
}

} // namespace llcf
