#include "warm_start.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

#include "support/math_utils.hh"

namespace amos {

const char *
warmStartModeName(WarmStartMode mode)
{
    switch (mode) {
    case WarmStartMode::Off:
        return "off";
    case WarmStartMode::Neighbors:
        return "neighbors";
    case WarmStartMode::Model:
        return "model";
    case WarmStartMode::Both:
        return "both";
    }
    return "off";
}

std::optional<WarmStartMode>
warmStartModeFromName(const std::string &name)
{
    if (name == "off")
        return WarmStartMode::Off;
    if (name == "neighbors")
        return WarmStartMode::Neighbors;
    if (name == "model")
        return WarmStartMode::Model;
    if (name == "both")
        return WarmStartMode::Both;
    return std::nullopt;
}

ShapeFeature
shapeFeatureOf(const TensorComputation &comp, const HardwareSpec &hw)
{
    ShapeFeature feat;
    feat.family = comp.name();
    feat.hw = hw.name;
    for (const auto &iv : comp.iters())
        feat.dims.push_back(std::log1p(static_cast<double>(iv.extent)));
    // Mirror TuningCache::keyFor: the all-f16 default keeps an empty
    // signature so embeddings and historical cache keys agree.
    bool allDefault = comp.output().dtype() == DataType::F16;
    for (const auto &in : comp.inputs())
        allDefault = allDefault && in.decl.dtype() == DataType::F16;
    if (!allDefault) {
        std::ostringstream sig;
        for (const auto &in : comp.inputs())
            sig << dtypeName(in.decl.dtype()) << "_";
        sig << dtypeName(comp.output().dtype());
        feat.dtypes = sig.str();
    }
    return feat;
}

namespace {

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string part;
    for (char c : text) {
        if (c == sep) {
            out.push_back(part);
            part.clear();
        } else {
            part += c;
        }
    }
    out.push_back(part);
    return out;
}

bool
allDigits(const std::string &token)
{
    if (token.empty())
        return false;
    for (char c : token)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/// Dtype signatures ("f16_f16_f32") are '_'-joined lowercase
/// alphanumeric names; anything else in that position marks a
/// foreign key.
bool
looksLikeDtypeSignature(const std::string &seg)
{
    auto parts = splitOn(seg, '_');
    if (parts.empty())
        return false;
    for (const auto &part : parts) {
        if (part.empty())
            return false;
        for (char c : part) {
            auto u = static_cast<unsigned char>(c);
            if (!std::islower(u) && !std::isdigit(u))
                return false;
        }
    }
    return true;
}

/// "g<digits>_s<digits>" — the serve layer's search-knob suffix.
bool
isSearchKnobSegment(const std::string &seg)
{
    auto parts = splitOn(seg, '_');
    return parts.size() == 2 && parts[0].size() > 1 &&
           parts[0][0] == 'g' && allDigits(parts[0].substr(1)) &&
           parts[1].size() > 1 && parts[1][0] == 's' &&
           allDigits(parts[1].substr(1));
}

/// "w<mode>[-m<digest>]" — the serve layer's warm-start suffix.
bool
isWarmSuffixSegment(const std::string &seg)
{
    if (seg.empty() || seg[0] != 'w')
        return false;
    std::string body = seg.substr(1);
    auto dash = body.find('-');
    if (dash != std::string::npos)
        body = body.substr(0, dash);
    return warmStartModeFromName(body).has_value();
}

/// Snap `want` to the choice in `cands` nearest in log space; ties
/// break toward the smaller candidate (cands is sorted ascending).
std::int64_t
snapToChoices(std::int64_t want, const std::vector<std::int64_t> &cands)
{
    double target = std::log(static_cast<double>(std::max<std::int64_t>(want, 1)));
    std::int64_t best = cands.front();
    double bestGap = std::numeric_limits<double>::infinity();
    for (std::int64_t c : cands) {
        double gap = std::abs(std::log(static_cast<double>(c)) - target);
        if (gap < bestGap) {
            bestGap = gap;
            best = c;
        }
    }
    return best;
}

int
snapToChoices(int want, const std::vector<int> &choices)
{
    std::vector<std::int64_t> cands(choices.begin(), choices.end());
    return static_cast<int>(snapToChoices(static_cast<std::int64_t>(want), cands));
}

// sampleSchedule's global knob sets (schedule.cc keeps its own copies
// in an anonymous namespace); clamped donors must land inside them.
const std::vector<int> kStageChoices = {1, 2};
const std::vector<int> kVectorChoices = {1, 2, 4, 8};
const std::vector<int> kUnrollChoices = {1, 2, 4};

} // namespace

std::optional<ShapeFeature>
shapeFeatureOfKey(const std::string &key)
{
    auto segments = splitOn(key, '/');
    if (segments.size() < 2)
        return std::nullopt;

    ShapeFeature feat;
    feat.hw = segments[0];

    // Segment 1 is "<name>_<e1>_<e2>...": extents are the maximal run
    // of all-digit tokens on the right, so operator names containing
    // digits ("conv2d") or underscores parse correctly.
    auto tokens = splitOn(segments[1], '_');
    std::size_t firstExtent = tokens.size();
    while (firstExtent > 0 && allDigits(tokens[firstExtent - 1]))
        --firstExtent;
    if (firstExtent == 0 || firstExtent == tokens.size())
        return std::nullopt; // no name, or no extents
    for (std::size_t i = 0; i < firstExtent; ++i) {
        if (i)
            feat.family += "_";
        feat.family += tokens[i];
    }
    for (std::size_t i = firstExtent; i < tokens.size(); ++i) {
        double extent = std::stod(tokens[i]);
        feat.dims.push_back(std::log1p(extent));
    }

    // Optional trailing segments: dtype signature, then the serve
    // layer's search-knob and warm-start suffixes (ignored — they
    // describe the search, not the shape).
    for (std::size_t s = 2; s < segments.size(); ++s) {
        if (isSearchKnobSegment(segments[s]) ||
            isWarmSuffixSegment(segments[s]))
            break;
        if (s == 2 && looksLikeDtypeSignature(segments[s])) {
            feat.dtypes = segments[s];
            continue;
        }
        return std::nullopt; // unrecognised extra segment
    }
    if (feat.hw.empty() || !feat.valid())
        return std::nullopt;
    return feat;
}

double
shapeDistance(const ShapeFeature &a, const ShapeFeature &b)
{
    if (a.family != b.family || a.dtypes != b.dtypes || a.hw != b.hw ||
        a.dims.size() != b.dims.size())
        return std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (std::size_t i = 0; i < a.dims.size(); ++i) {
        double d = a.dims[i] - b.dims[i];
        sum += d * d;
    }
    return std::sqrt(sum);
}

std::vector<WarmSeed>
nearestSeeds(const ShapeFeature &target, std::vector<WarmSeed> donors,
             std::size_t maxNeighbors, double maxDistance)
{
    std::vector<WarmSeed> kept;
    for (auto &donor : donors) {
        auto feat = shapeFeatureOfKey(donor.sourceKey);
        if (!feat)
            continue;
        double dist = shapeDistance(target, *feat);
        if (!(dist <= maxDistance)) // also drops inf/NaN
            continue;
        donor.distance = dist;
        kept.push_back(std::move(donor));
    }
    std::sort(kept.begin(), kept.end(),
              [](const WarmSeed &a, const WarmSeed &b) {
                  if (a.distance != b.distance)
                      return a.distance < b.distance;
                  return a.sourceKey < b.sourceKey;
              });
    if (kept.size() > maxNeighbors)
        kept.resize(maxNeighbors);
    return kept;
}

Schedule
clampSchedule(const MappingPlan &plan, const Schedule &donor)
{
    Schedule sched = defaultSchedule(plan);
    for (std::size_t a = 0; a < sched.axes.size(); ++a) {
        if (plan.outerAxes()[a].reduction)
            continue; // reduction axes stay serial, as in sampling
        if (a >= donor.axes.size())
            continue;
        std::int64_t extent = plan.outerAxes()[a].extent;
        auto cands = tileCandidates(extent);
        std::int64_t bf = snapToChoices(donor.axes[a].blockFactor, cands);
        auto warpCands = tileCandidates(ceilDiv(extent, bf));
        sched.axes[a].blockFactor = bf;
        sched.axes[a].warpFactor =
            snapToChoices(donor.axes[a].warpFactor, warpCands);
    }
    sched.stageDepth = snapToChoices(donor.stageDepth, kStageChoices);
    sched.vectorLanes = snapToChoices(donor.vectorLanes, kVectorChoices);
    sched.unrollDepth = snapToChoices(donor.unrollDepth, kUnrollChoices);
    return sched;
}

std::optional<std::pair<std::size_t, Schedule>>
translateSeed(const WarmSeed &seed, const std::vector<MappingPlan> &plans)
{
    std::optional<std::size_t> sameIntrinsic;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        if (plans[i].intrinsic().name() != seed.intrinsicName)
            continue;
        if (plans[i].mapping().groups == seed.mapping.groups)
            return std::make_pair(i, clampSchedule(plans[i], seed.schedule));
        if (!sameIntrinsic)
            sameIntrinsic = i;
    }
    if (sameIntrinsic) {
        return std::make_pair(*sameIntrinsic,
                              clampSchedule(plans[*sameIntrinsic],
                                            seed.schedule));
    }
    return std::nullopt;
}

} // namespace amos
