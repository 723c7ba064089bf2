#include "tensor.hh"

#include <cmath>

#include "support/str_utils.hh"

namespace amos {

std::string
TensorDecl::toString() const
{
    std::string dims = joinMapped(_shape, ", ",
        [](std::int64_t s) { return std::to_string(s); });
    return _name + "[" + dims + "]:" + dtypeName(_dtype);
}

std::int64_t
Buffer::flatten(const std::vector<std::int64_t> &idx) const
{
    const auto &shape = _decl.shape();
    require(idx.size() == shape.size(), "Buffer ", _decl.name(),
            ": index rank ", idx.size(), " vs tensor rank ",
            shape.size());
    std::int64_t flat = 0;
    for (std::size_t d = 0; d < idx.size(); ++d) {
        require(idx[d] >= 0 && idx[d] < shape[d], "Buffer ",
                _decl.name(), ": index ", idx[d],
                " out of range for dim ", d, " of extent ", shape[d]);
        flat = flat * shape[d] + idx[d];
    }
    return flat;
}

void
Buffer::fill(float value)
{
    for (std::size_t i = 0; i < _elems; ++i)
        set(static_cast<std::int64_t>(i), value);
}

void
Buffer::fillPattern(std::uint64_t seed)
{
    // SplitMix64-derived values: deterministic, cheap, and free of
    // accidental structure. Float lanes get the historical [-1, 1)
    // scaling (bf16 rounds it to nearest-even); the 8-bit lanes take
    // the low byte so the full quantized range is exercised; i32 gets
    // [-1024, 1024) so products and sums stay far from wrap-around.
    std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL;
    for (std::size_t i = 0; i < _elems; ++i) {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        z = z ^ (z >> 31);
        switch (_storage) {
          case StorageLane::F32:
          case StorageLane::BF16: {
            const float v = static_cast<float>(
                static_cast<double>(z >> 11) /
                static_cast<double>(1ULL << 53)) * 2.0f - 1.0f;
            if (_storage == StorageLane::F32)
                _f32[i] = v;
            else
                _bf16[i] = quant::bf16FromFloat(v);
            break;
          }
          case StorageLane::I8:
            _i8[i] = static_cast<std::int8_t>(z & 0xff);
            break;
          case StorageLane::U8:
            _u8[i] = static_cast<std::uint8_t>(z & 0xff);
            break;
          case StorageLane::I32:
            _i32[i] =
                static_cast<std::int32_t>(z % 2048) - 1024;
            break;
        }
    }
}

float
Buffer::maxAbsDiff(const Buffer &other) const
{
    require(size() == other.size(),
            "Buffer::maxAbsDiff: size mismatch ", size(), " vs ",
            other.size());
    float worst = 0.0f;
    for (std::size_t i = 0; i < _elems; ++i) {
        const auto idx = static_cast<std::int64_t>(i);
        worst = std::max(
            worst, std::fabs(at(idx) - other.at(idx)));
    }
    return worst;
}

bool
outputAliasesInput(const Buffer &output,
                   const std::vector<const Buffer *> &inputs)
{
    const char *ob = static_cast<const char *>(output.rawData());
    const char *oe = ob + output.storageBytes();
    for (const Buffer *in : inputs) {
        const char *b = static_cast<const char *>(in->rawData());
        const char *e = b + in->storageBytes();
        if (b < oe && ob < e)
            return true;
    }
    return false;
}

} // namespace amos
