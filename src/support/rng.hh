/**
 * @file
 * Deterministic seeded random-number generator wrapper.
 *
 * Everything in this repository must be reproducible run-to-run, so
 * all randomised components (tuner mutation, schedule sampling) draw
 * from an explicitly seeded Rng instance rather than global state.
 */

#ifndef AMOS_SUPPORT_RNG_HH
#define AMOS_SUPPORT_RNG_HH

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "logging.hh"

namespace amos {

/**
 * Mix a base seed with a stream id and a step counter into one
 * well-scrambled 64-bit seed (iterated splitmix64 finalisers).
 *
 * The parallel tuner derives an independent Rng per candidate from
 * (options.seed, candidate index, generation): every random draw
 * then depends only on *which* candidate is being produced, never on
 * the order threads reach it, which is what makes the search
 * trajectory bit-identical for every thread count.
 */
inline std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t step)
{
    auto scramble = [](std::uint64_t z) {
        z += 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    return scramble(scramble(scramble(seed) ^ stream) ^ step);
}

/**
 * mt19937-64 with the same output sequence as std::mt19937_64, seeded
 * and twisted on demand.
 *
 * The tuner seeds a fresh stream per candidate and draws only a few
 * numbers from it. The standard engine pays for all 312 seed words
 * and a full 312-word twist before its first output. But output k of
 * the first block (k < 156) is the tempered twist of seed words k,
 * k+1 and k+156 alone, and the seed recurrence is sequential, so the
 * first k draws need only seed words 0..k+156 and k twisted words.
 * This engine seeds up to the highest word a draw needs and twists
 * one word per draw; at draw 156 it seeds the rest, finishes the
 * first twist exactly as std::mt19937_64 does, and from then on
 * twists whole blocks. It models UniformRandomBitGenerator with the
 * standard engine's range, so the <random> distributions and
 * std::shuffle consume it identically.
 */
class LazyMt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit LazyMt19937_64(result_type seed)
    {
        _x[0] = seed;
    }

    result_type
    operator()()
    {
        if (_idx >= kN) {
            twistBlock(0);
            _idx = 0;
        } else if (_firstBlock) {
            if (_idx < kN - kM) {
                // x[idx] depends on seed words idx, idx+1, idx+156.
                seedThrough(_idx + kM);
                _x[_idx] = twisted(_x[_idx], _x[_idx + 1],
                                   _x[_idx + kM]);
            } else {
                // The second half reads words the first half rewrote:
                // seed everything and finish the block in order.
                seedThrough(kN - 1);
                twistBlock(kN - kM);
                _firstBlock = false;
            }
        }
        return temper(_x[_idx++]);
    }

  private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;
    static constexpr result_type kUpper = ~result_type{0} << 31;
    static constexpr result_type kLower = ~kUpper;

    static result_type
    twisted(result_type cur, result_type next, result_type far)
    {
        result_type y = (cur & kUpper) | (next & kLower);
        return far ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
    }

    static result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

    /** Run the seed recurrence up to and including word `last`. */
    void
    seedThrough(std::size_t last)
    {
        for (; _seeded <= last; ++_seeded) {
            result_type prev = _x[_seeded - 1];
            _x[_seeded] = 6364136223846793005ULL * (prev ^ (prev >> 62)) +
                          _seeded;
        }
    }

    /** Twist words from..n-1 in place (std::mt19937_64's order). */
    void
    twistBlock(std::size_t from)
    {
        std::size_t k = from;
        for (; k < kN - kM; ++k)
            _x[k] = twisted(_x[k], _x[k + 1], _x[k + kM]);
        for (; k < kN - 1; ++k)
            _x[k] = twisted(_x[k], _x[k + 1], _x[k + kM - kN]);
        _x[kN - 1] = twisted(_x[kN - 1], _x[0], _x[kM - 1]);
    }

    result_type _x[kN] = {}; ///< seed words, twisted in place
    std::size_t _seeded = 1; ///< seed words computed so far
    std::size_t _idx = 0;    ///< next word to output
    bool _firstBlock = true; ///< first block still twisting lazily
};

/** Seeded mt19937-64 generator with convenience draws. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5EED) : _engine(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        require(lo <= hi, "Rng::uniformInt: empty range [", lo, ",",
                hi, "]");
        std::uniform_int_distribution<std::int64_t> dist(lo, hi);
        return dist(_engine);
    }

    /** Uniform real in [0, 1). */
    double
    uniformReal()
    {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        return dist(_engine);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    flip(double p)
    {
        return uniformReal() < p;
    }

    /** Pick a uniformly random element of a non-empty vector. */
    template <typename T>
    const T &
    choice(const std::vector<T> &items)
    {
        require(!items.empty(), "Rng::choice on empty vector");
        auto idx = uniformInt(0,
            static_cast<std::int64_t>(items.size()) - 1);
        return items[static_cast<std::size_t>(idx)];
    }

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        std::shuffle(items.begin(), items.end(), _engine);
    }

  private:
    LazyMt19937_64 _engine;
};

} // namespace amos

#endif // AMOS_SUPPORT_RNG_HH
