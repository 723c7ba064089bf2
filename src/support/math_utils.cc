#include "math_utils.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace amos {

std::vector<std::int64_t>
divisorsOf(std::int64_t n)
{
    require(n > 0, "divisorsOf: n must be positive, got ", n);
    std::vector<std::int64_t> small, large;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            small.push_back(d);
            if (d != n / d)
                large.push_back(n / d);
        }
    }
    small.insert(small.end(), large.rbegin(), large.rend());
    return small;
}

std::vector<std::int64_t>
tileCandidates(std::int64_t extent)
{
    require(extent > 0, "tileCandidates: extent must be positive");
    // Merge the ascending divisors (which end at the extent) with the
    // ascending powers of two up to the extent, dropping duplicates.
    auto divisors = divisorsOf(extent);
    std::vector<std::int64_t> cands;
    cands.reserve(divisors.size() + 64);
    std::int64_t pow2 = 1;
    for (auto d : divisors) {
        for (; pow2 < d; pow2 *= 2)
            cands.push_back(pow2);
        if (pow2 == d)
            pow2 *= 2;
        cands.push_back(d);
    }
    return cands;
}

namespace {

void
splitsRec(std::int64_t remaining, int parts,
          const std::vector<std::int64_t> &cands,
          std::vector<std::int64_t> &cur,
          std::vector<std::vector<std::int64_t>> &out)
{
    if (parts == 1) {
        cur.push_back(remaining);
        out.push_back(cur);
        cur.pop_back();
        return;
    }
    for (auto c : cands) {
        if (c > remaining)
            break;
        cur.push_back(c);
        splitsRec(ceilDiv(remaining, c), parts - 1, cands, cur, out);
        cur.pop_back();
    }
}

} // namespace

std::vector<std::vector<std::int64_t>>
factorSplits(std::int64_t extent, int parts)
{
    require(parts >= 1, "factorSplits: parts must be >= 1");
    std::vector<std::vector<std::int64_t>> out;
    std::vector<std::int64_t> cur;
    auto cands = tileCandidates(extent);
    splitsRec(extent, parts, cands, cur, out);
    return out;
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        require(v > 0.0, "geometricMean: values must be positive");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::int64_t
product(const std::vector<std::int64_t> &values)
{
    std::int64_t p = 1;
    for (auto v : values)
        p *= v;
    return p;
}

} // namespace amos
