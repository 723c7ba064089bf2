#include "learned_model.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "model/perf_model.hh"
#include "support/atomic_file.hh"
#include "support/logging.hh"

namespace amos {

namespace {

double
log1pSafe(double v)
{
    return std::log1p(std::max(v, 0.0));
}

/**
 * Solve the symmetric positive-definite system A x = b in place with
 * Gaussian elimination and partial pivoting (dimensions here are
 * ~a dozen, so no factorisation library is warranted).
 */
std::vector<double>
solveDense(std::vector<std::vector<double>> a, std::vector<double> b)
{
    std::size_t n = b.size();
    for (std::size_t col = 0; col < n; ++col) {
        // Pivot.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::fabs(a[r][col]) > std::fabs(a[pivot][col]))
                pivot = r;
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        require(std::fabs(a[col][col]) > 1e-12,
                "solveDense: singular system");
        for (std::size_t r = col + 1; r < n; ++r) {
            double f = a[r][col] / a[col][col];
            for (std::size_t c = col; c < n; ++c)
                a[r][c] -= f * a[col][c];
            b[r] -= f * b[col];
        }
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t row = n; row-- > 0;) {
        double acc = b[row];
        for (std::size_t c = row + 1; c < n; ++c)
            acc -= a[row][c] * x[c];
        x[row] = acc / a[row][row];
    }
    return x;
}

} // namespace

std::vector<double>
LearnedModel::features(const KernelProfile &prof,
                       const HardwareSpec &hw)
{
    std::vector<double> f;
    f.push_back(1.0); // bias
    f.push_back(log1pSafe(static_cast<double>(prof.numBlocks)));
    f.push_back(log1pSafe(static_cast<double>(prof.warpsPerBlock)));
    f.push_back(
        log1pSafe(static_cast<double>(prof.serialCallsPerWarp)));
    f.push_back(
        log1pSafe(static_cast<double>(prof.sharedBytesPerBlock)));
    f.push_back(log1pSafe(
        static_cast<double>(prof.globalLoadBytesPerBlock)));
    f.push_back(log1pSafe(
        static_cast<double>(prof.globalStoreBytesPerBlock)));
    f.push_back(
        log1pSafe(static_cast<double>(prof.sharedLoadBytesPerWarp)));
    f.push_back(prof.paddingWaste);
    f.push_back(static_cast<double>(prof.addressTerms));
    f.push_back(static_cast<double>(prof.stageDepth));
    f.push_back(static_cast<double>(prof.vectorLanes));
    // Stacking: the analytic estimate is the strongest single
    // feature; the regression learns its bias.
    double analytic = modelCycles(prof, hw);
    f.push_back(std::isfinite(analytic) ? std::log(analytic) : 30.0);
    return f;
}

std::size_t
LearnedModel::featureCount()
{
    return 13;
}

void
LearnedModel::addSample(const KernelProfile &prof,
                        const HardwareSpec &hw,
                        double measured_cycles)
{
    if (!(measured_cycles > 0.0) || !std::isfinite(measured_cycles))
        return;
    _samples.push_back(features(prof, hw));
    _targets.push_back(std::log(measured_cycles));
}

void
LearnedModel::fit(double ridge)
{
    if (_targets.size() < kMinSamples)
        return;
    std::size_t n = featureCount();
    std::vector<std::vector<double>> ata(
        n, std::vector<double>(n, 0.0));
    std::vector<double> atb(n, 0.0);
    for (std::size_t s = 0; s < _samples.size(); ++s) {
        const auto &x = _samples[s];
        for (std::size_t i = 0; i < n; ++i) {
            atb[i] += x[i] * _targets[s];
            for (std::size_t j = 0; j < n; ++j)
                ata[i][j] += x[i] * x[j];
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        ata[i][i] += ridge * static_cast<double>(_samples.size());
    _weights = solveDense(std::move(ata), std::move(atb));
    _trained = true;
    _fittedSamples = _targets.size();
}

Json
LearnedModel::toJson() const
{
    require(_trained, "LearnedModel: snapshot of untrained model");
    Json weights = Json::array();
    for (double w : _weights)
        weights.push(Json(w));
    Json out = Json::object();
    out.set("schema", Json(std::string(kSnapshotSchema)));
    out.set("feature_count",
            Json(static_cast<std::int64_t>(featureCount())));
    out.set("samples",
            Json(static_cast<std::int64_t>(_fittedSamples)));
    out.set("weights", std::move(weights));
    return out;
}

std::optional<LearnedModel>
LearnedModel::fromJson(const Json &json)
{
    if (json.kind() != Json::Kind::Object ||
        !json.has("schema") || !json.has("weights") ||
        !json.has("feature_count")) {
        warn("LearnedModel: snapshot is not a model document");
        return std::nullopt;
    }
    try {
        if (json.get("schema").asString() != kSnapshotSchema) {
            warn("LearnedModel: unknown snapshot schema '",
                 json.get("schema").asString(), "'");
            return std::nullopt;
        }
        auto count = json.get("feature_count").asInt();
        if (count != static_cast<std::int64_t>(featureCount())) {
            warn("LearnedModel: snapshot has ", count,
                 " features, expected ", featureCount());
            return std::nullopt;
        }
        const Json &weights = json.get("weights");
        if (weights.size() != featureCount()) {
            warn("LearnedModel: snapshot has ", weights.size(),
                 " weights, expected ", featureCount());
            return std::nullopt;
        }
        LearnedModel model;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            double w = weights.at(i).asNumber();
            if (!std::isfinite(w)) {
                warn("LearnedModel: non-finite snapshot weight");
                return std::nullopt;
            }
            model._weights.push_back(w);
        }
        model._trained = true;
        if (json.has("samples") && json.get("samples").asInt() > 0) {
            model._fittedSamples =
                static_cast<std::size_t>(json.get("samples").asInt());
        }
        return model;
    } catch (const std::exception &e) {
        warn("LearnedModel: corrupt snapshot (", e.what(), ")");
        return std::nullopt;
    }
}

void
LearnedModel::saveFile(const std::string &path) const
{
    writeFileAtomic(path, toJson().dump() + "\n");
    removeOrphanTemps(path);
}

std::optional<LearnedModel>
LearnedModel::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good()) {
        warn("LearnedModel: cannot read snapshot ", path);
        return std::nullopt;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
        return fromJson(Json::parse(buffer.str()));
    } catch (const std::exception &e) {
        warn("LearnedModel: cannot parse snapshot ", path, " (",
             e.what(), ")");
        return std::nullopt;
    }
}

std::string
LearnedModel::digest() const
{
    std::string doc = toJson().dump();
    std::uint64_t h = 1469598103934665603ull; // FNV-1a
    for (unsigned char c : doc) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
}

double
LearnedModel::predictCycles(const KernelProfile &prof,
                            const HardwareSpec &hw) const
{
    if (!prof.valid())
        return std::numeric_limits<double>::infinity();
    if (!_trained)
        return modelCycles(prof, hw);
    auto x = features(prof, hw);
    double log_cycles = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        log_cycles += _weights[i] * x[i];
    // Clamp: extrapolation far outside the training range is noise.
    log_cycles = std::min(std::max(log_cycles, 0.0), 40.0);
    return std::exp(log_cycles);
}

} // namespace amos
