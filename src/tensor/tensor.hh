/**
 * @file
 * Tensor declarations and typed numeric buffers.
 *
 * A TensorDecl is a typed, shaped, named symbol (the compile-time
 * view); a Buffer is the runtime storage used by the functional
 * executors. Storage follows the declared dtype's StorageLane
 * (tensor/dtype.hh): f16/f32 share the host-float lane, bf16 is kept
 * as raw 16-bit patterns, i8/u8/i32 are stored exactly. Exactly one
 * lane is allocated per buffer.
 *
 * Two access disciplines coexist:
 *  - converting `at`/`set` (float view of any lane, with
 *    round-to-nearest-even for bf16 and round+saturate for integers)
 *    for harness code and float-domain engines, and
 *  - exact `intAt`/`intSet`/`intAccumulate` for the integer lanes,
 *    where the quantized engines must never round.
 */

#ifndef AMOS_TENSOR_TENSOR_HH
#define AMOS_TENSOR_TENSOR_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "quant/bf16.hh"
#include "support/logging.hh"
#include "tensor/dtype.hh"

namespace amos {

/** Compile-time tensor symbol: name, shape, element type. */
class TensorDecl
{
  public:
    TensorDecl() = default;

    TensorDecl(std::string name, std::vector<std::int64_t> shape,
               DataType dtype = DataType::F16)
        : _name(std::move(name)), _shape(std::move(shape)),
          _dtype(dtype)
    {
        for (auto s : _shape)
            expect(s > 0, "tensor ", _name,
                   " has non-positive dimension ", s);
    }

    const std::string &name() const { return _name; }
    const std::vector<std::int64_t> &shape() const { return _shape; }
    DataType dtype() const { return _dtype; }

    std::size_t ndim() const { return _shape.size(); }

    /** Copy of this declaration with a different element type. */
    TensorDecl
    withDtype(DataType dtype) const
    {
        TensorDecl out = *this;
        out._dtype = dtype;
        return out;
    }

    /** Total element count. */
    std::int64_t
    numElements() const
    {
        std::int64_t n = 1;
        for (auto s : _shape)
            n *= s;
        return n;
    }

    /** Total storage in bytes. */
    std::int64_t
    numBytes() const
    {
        return numElements() * dtypeBytes(_dtype);
    }

    /**
     * Row-major strides: stride of dim d is the product of all
     * extents after d.
     */
    std::vector<std::int64_t>
    strides() const
    {
        std::vector<std::int64_t> out(_shape.size(), 1);
        for (std::size_t d = _shape.size(); d-- > 1;)
            out[d - 1] = out[d] * _shape[d];
        return out;
    }

    /** "name[s0, s1, ...]:dtype" for diagnostics. */
    std::string toString() const;

  private:
    std::string _name;
    std::vector<std::int64_t> _shape;
    DataType _dtype = DataType::F16;
};

/**
 * Runtime storage for a tensor: flat row-major data in the lane
 * selected by the declared dtype.
 */
class Buffer
{
  public:
    explicit Buffer(TensorDecl decl)
        : _decl(std::move(decl)),
          _storage(dtypeStorageLane(_decl.dtype())),
          _elems(static_cast<std::size_t>(_decl.numElements()))
    {
        switch (_storage) {
          case StorageLane::F32: _f32.assign(_elems, 0.0f); break;
          case StorageLane::BF16: _bf16.assign(_elems, 0); break;
          case StorageLane::I8: _i8.assign(_elems, 0); break;
          case StorageLane::U8: _u8.assign(_elems, 0); break;
          case StorageLane::I32: _i32.assign(_elems, 0); break;
        }
    }

    const TensorDecl &decl() const { return _decl; }
    StorageLane storage() const { return _storage; }
    std::size_t size() const { return _elems; }

    /** Bytes actually held on the host (lane width x elements). */
    std::int64_t
    storageBytes() const
    {
        return static_cast<std::int64_t>(_elems) *
               storageLaneBytes(_storage);
    }

    float *
    data()
    {
        requireLane(StorageLane::F32, "data");
        return _f32.data();
    }
    const float *
    data() const
    {
        requireLane(StorageLane::F32, "data");
        return _f32.data();
    }

    std::uint16_t *
    bf16Data()
    {
        requireLane(StorageLane::BF16, "bf16Data");
        return _bf16.data();
    }
    const std::uint16_t *
    bf16Data() const
    {
        requireLane(StorageLane::BF16, "bf16Data");
        return _bf16.data();
    }

    std::int8_t *
    i8Data()
    {
        requireLane(StorageLane::I8, "i8Data");
        return _i8.data();
    }
    const std::int8_t *
    i8Data() const
    {
        requireLane(StorageLane::I8, "i8Data");
        return _i8.data();
    }

    std::uint8_t *
    u8Data()
    {
        requireLane(StorageLane::U8, "u8Data");
        return _u8.data();
    }
    const std::uint8_t *
    u8Data() const
    {
        requireLane(StorageLane::U8, "u8Data");
        return _u8.data();
    }

    std::int32_t *
    i32Data()
    {
        requireLane(StorageLane::I32, "i32Data");
        return _i32.data();
    }
    const std::int32_t *
    i32Data() const
    {
        requireLane(StorageLane::I32, "i32Data");
        return _i32.data();
    }

    /** Untyped pointer to the active lane (for the JIT ABI). */
    void *
    rawData()
    {
        switch (_storage) {
          case StorageLane::F32: return _f32.data();
          case StorageLane::BF16: return _bf16.data();
          case StorageLane::I8: return _i8.data();
          case StorageLane::U8: return _u8.data();
          case StorageLane::I32: return _i32.data();
        }
        std::abort(); // unreachable for in-range enumerators
    }
    const void *
    rawData() const
    {
        return const_cast<Buffer *>(this)->rawData();
    }

    /**
     * Converting read: the element as a float, whatever the lane.
     * Exact for bf16 and the 8-bit lanes; i32 values beyond 2^24 can
     * round (use intAt for exact integer work).
     */
    float
    at(std::int64_t flat_index) const
    {
        checkIndex(flat_index, "read");
        const auto i = static_cast<std::size_t>(flat_index);
        switch (_storage) {
          case StorageLane::F32: return _f32[i];
          case StorageLane::BF16:
            return quant::floatFromBf16(_bf16[i]);
          case StorageLane::I8: return static_cast<float>(_i8[i]);
          case StorageLane::U8: return static_cast<float>(_u8[i]);
          case StorageLane::I32: return static_cast<float>(_i32[i]);
        }
        std::abort(); // unreachable for in-range enumerators
    }

    /**
     * Converting write: round-to-nearest-even into bf16, round
     * half-away-from-zero and saturate into the integer lanes.
     */
    void
    set(std::int64_t flat_index, float value)
    {
        checkIndex(flat_index, "write");
        const auto i = static_cast<std::size_t>(flat_index);
        switch (_storage) {
          case StorageLane::F32: _f32[i] = value; return;
          case StorageLane::BF16:
            _bf16[i] = quant::bf16FromFloat(value);
            return;
          case StorageLane::I8:
            _i8[i] = static_cast<std::int8_t>(
                clampRound(value, -128, 127));
            return;
          case StorageLane::U8:
            _u8[i] =
                static_cast<std::uint8_t>(clampRound(value, 0, 255));
            return;
          case StorageLane::I32:
            _i32[i] = static_cast<std::int32_t>(
                clampRound(value, INT32_MIN, INT32_MAX));
            return;
        }
    }

    /**
     * Float accumulation; host-float lane only. Accumulating into a
     * rounding lane (bf16/int) would hide per-step rounding — the
     * engines must do that explicitly or not at all.
     */
    void
    accumulate(std::int64_t flat_index, float value)
    {
        requireLane(StorageLane::F32, "accumulate");
        checkIndex(flat_index, "accumulate");
        _f32[static_cast<std::size_t>(flat_index)] += value;
    }

    /** Exact integer read; integer lanes only. */
    std::int64_t
    intAt(std::int64_t flat_index) const
    {
        checkIndex(flat_index, "intAt");
        const auto i = static_cast<std::size_t>(flat_index);
        switch (_storage) {
          case StorageLane::I8: return _i8[i];
          case StorageLane::U8: return _u8[i];
          case StorageLane::I32: return _i32[i];
          case StorageLane::F32:
          case StorageLane::BF16:
            break;
        }
        panic("Buffer ", _decl.name(), ": intAt on non-integer lane");
    }

    /** Exact integer write (wrapping cast into the lane's range). */
    void
    intSet(std::int64_t flat_index, std::int64_t value)
    {
        checkIndex(flat_index, "intSet");
        const auto i = static_cast<std::size_t>(flat_index);
        switch (_storage) {
          case StorageLane::I8:
            _i8[i] = static_cast<std::int8_t>(value);
            return;
          case StorageLane::U8:
            _u8[i] = static_cast<std::uint8_t>(value);
            return;
          case StorageLane::I32:
            _i32[i] = static_cast<std::int32_t>(value);
            return;
          case StorageLane::F32:
          case StorageLane::BF16:
            break;
        }
        panic("Buffer ", _decl.name(), ": intSet on non-integer lane");
    }

    /** Exact wrapping int32 accumulation; i32 lane only. */
    void
    intAccumulate(std::int64_t flat_index, std::int64_t value)
    {
        requireLane(StorageLane::I32, "intAccumulate");
        checkIndex(flat_index, "intAccumulate");
        auto &slot = _i32[static_cast<std::size_t>(flat_index)];
        slot = static_cast<std::int32_t>(
            static_cast<std::int64_t>(slot) + value);
    }

    /** Flatten a multi-dimensional index (bounds-checked). */
    std::int64_t flatten(const std::vector<std::int64_t> &idx) const;

    /** Reset all elements to a value (converting, like set()). */
    void fill(float value);

    /** Fill with a deterministic, dtype-aware pseudo-random pattern. */
    void fillPattern(std::uint64_t seed);

    /** Largest absolute element-wise difference (converting view). */
    float maxAbsDiff(const Buffer &other) const;

    /** Same lane, same size, identical storage bits. */
    bool
    bitEqual(const Buffer &other) const
    {
        return _storage == other._storage && _f32 == other._f32 &&
               _bf16 == other._bf16 && _i8 == other._i8 &&
               _u8 == other._u8 && _i32 == other._i32;
    }

  private:
    void
    requireLane(StorageLane lane, const char *what) const
    {
        require(_storage == lane, "Buffer ", _decl.name(), ": ", what,
                " on wrong storage lane (dtype ",
                dtypeName(_decl.dtype()), ")");
    }

    void
    checkIndex(std::int64_t flat_index, const char *what) const
    {
        require(flat_index >= 0 &&
                flat_index < static_cast<std::int64_t>(_elems),
                "Buffer ", _decl.name(), " ", what,
                " out of range: ", flat_index, " of ", _elems);
    }

    static std::int64_t
    clampRound(float value, std::int64_t lo, std::int64_t hi)
    {
        const auto r = static_cast<std::int64_t>(std::llround(
            static_cast<double>(value)));
        return r < lo ? lo : (r > hi ? hi : r);
    }

    TensorDecl _decl;
    StorageLane _storage = StorageLane::F32;
    std::size_t _elems = 0;
    // Exactly one of these is non-empty, matching _storage.
    std::vector<float> _f32;
    std::vector<std::uint16_t> _bf16;
    std::vector<std::int8_t> _i8;
    std::vector<std::uint8_t> _u8;
    std::vector<std::int32_t> _i32;
};

/**
 * True iff the output's storage overlaps any input's — an executor
 * called in place. Engines that reorder loads and stores (restrict
 * kernels, register-held accumulators) must not run then.
 */
bool outputAliasesInput(const Buffer &output,
                        const std::vector<const Buffer *> &inputs);

} // namespace amos

#endif // AMOS_TENSOR_TENSOR_HH
