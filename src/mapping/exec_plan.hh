/**
 * @file
 * Compiled execution plans for mapped computations.
 *
 * An ExecPlan lowers a MappingPlan once into per-operand flat-address
 * stride tables aligned to the execution loop nest, so the functional
 * executors can run as incremental stride walks instead of
 * re-evaluating access expressions per scalar element:
 *
 *  - Every software access index is affine in the loop iterators, so
 *    each operand's flat address is base + sum coeff_s * sw_s over
 *    the software coordinates (ir/affine.hh extracts the coefficients
 *    and reports why when an access is not affine).
 *
 *  - The direct executor's nest (outer axes x intrinsic iterations)
 *    reconstructs software coordinates as mixed-radix digits of each
 *    group's fused flat value. Every sweep lowers to one
 *    AccessWalkPlan over [outer axes][intrinsic counters] whose
 *    counter levels are clamped to min(I, F - q * I). When every
 *    operand's coefficients on a group's members are alpha times the
 *    digit strides, the group contributes alpha * flat =
 *    alpha * (q * I + t): plain strides on the quotient axis and the
 *    counter. Any other group's counter becomes a carry level
 *    (tensor/access_walk.hh): start digits decoded once per tile, a
 *    precomputed address delta per digit step and carry.
 *
 *  - The packed executor's pack / compute / unpack stages are
 *    restructured onto the same nest (and lowered by the same rule).
 *    Tile base addresses — floordiv expressions over software
 *    iterators, but linear over the outer axes by construction — are
 *    lowered to per-axis strides by probing, with a corner
 *    cross-check that falls back to the interpreter if linearity ever
 *    failed to hold.
 *
 * The outer-tile sweep parallelises over an axis whose values
 * provably write disjoint output elements (see
 * tensor/access_walk.hh); results are bit-identical to the serial
 * interpreter for every thread count.
 */

#ifndef AMOS_MAPPING_EXEC_PLAN_HH
#define AMOS_MAPPING_EXEC_PLAN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mapping/mapping.hh"
#include "quant/semantics.hh"
#include "tensor/access_walk.hh"
#include "tensor/tensor.hh"

namespace amos {

/**
 * Compiled form of one MappingPlan: stride tables for the direct
 * executor and the three packed stages. Compile once, run many
 * times; when compilation fails (non-affine access, address box out
 * of range, non-linear tile base) the plan records the reason and
 * callers fall back to the interpreter.
 */
class ExecPlan
{
  public:
    /** Analyze and compile; never throws on unsupported plans. */
    explicit ExecPlan(const MappingPlan &plan);

    /** True iff the stride-walk engine can run this plan. */
    bool compiled() const { return _reason.empty(); }

    /** Why compilation fell back (empty when compiled). */
    const std::string &fallbackReason() const { return _reason; }

    /**
     * Outer axis the direct sweep splits across threads, or -1 when
     * no axis provably writes disjoint output elements (the sweep
     * then stays serial regardless of the requested thread count).
     * In the lowered direct walk it is the restricted level.
     */
    int directSplitAxis() const { return _directSplit; }

    /** Split level of the packed compute stage, or -1. */
    int packedSplitLevel() const { return _packedSplit; }

    /**
     * True iff the runtime buffers have exactly the declared shapes
     * the stride tables were compiled from.
     */
    bool buffersMatch(const std::vector<const Buffer *> &inputs,
                      const Buffer &output,
                      std::string *why = nullptr) const;

    /** Stride-walk executions; require compiled() and buffersMatch. */
    WalkRunStats runDirect(const std::vector<const Buffer *> &inputs,
                           Buffer &output,
                           const ExecOptions &opts = {}) const;
    WalkRunStats runPacked(const std::vector<const Buffer *> &inputs,
                           Buffer &output,
                           const ExecOptions &opts = {}) const;

    /// @name Compiled tables (exposed for tests and diagnostics).
    /// @{

    /** One loop axis of the outer (tile) sweep. */
    struct Axis
    {
        bool isQuotient = false;
        std::size_t ref = 0;     ///< sw iter position or group index
        std::int64_t extent = 1;
    };

    /** A fused group: its members are the digits of the flat value. */
    struct Group
    {
        std::vector<std::size_t> members; ///< sw positions, loop order
        std::vector<std::int64_t> extents;
        std::int64_t intrinsicExtent = 1; ///< I
        std::int64_t fusedExtent = 1;     ///< F
    };

    /** One operand's compiled address stream. */
    struct Operand
    {
        /// Flat-address coefficient per software iterator (empty for
        /// packed-tile streams).
        std::vector<std::int64_t> swCoeff;
        /// Address step per intrinsic-iteration counter.
        std::vector<std::int64_t> tStride;
        /// Address step per outer axis (packed tile bases).
        std::vector<std::int64_t> outerStride;
        /// Per group: alpha such that the members' digit contribution
        /// is alpha * (fused flat value), or nullopt when the
        /// coefficients are not proportional to the digit strides.
        /// Empty groups and groups this operand ignores give 0.
        std::vector<std::optional<std::int64_t>> groupAlpha;
        std::int64_t base = 0;
        std::int64_t minAddr = 0; ///< over the full iteration box
        std::int64_t maxAddr = 0;
    };

    const std::vector<Axis> &axes() const { return _axes; }
    const std::vector<Group> &groups() const { return _groups; }
    /** Direct-path operands: inputs in order, then the output. */
    const std::vector<Operand> &directOperands() const
    {
        return _direct;
    }
    /** Packed-tile streams: inputs in order, then the output. */
    const std::vector<Operand> &packedOperands() const
    {
        return _packed;
    }
    /** Element count of each packed stream, aligned to the above. */
    const std::vector<std::int64_t> &packedSizes() const
    {
        return _packedSizes;
    }
    /** The packed compute stage's pure affine nest. */
    const AccessWalkPlan &stageB() const { return _stageB; }

    /** The three mapped sweeps over [outer axes][intrinsic counters]. */
    enum class Sweep
    {
        Direct, ///< operands: inputs..., output
        Pack,   ///< operands: (input, packed input stream) pairs
        Unpack, ///< operands: packed output stream, output
    };

    /**
     * A sweep lowered to a stride walk with clamped and carry levels:
     * the one executable form of the sweep, run by the walk engine
     * and emitted by the JIT. Built on each call, so that constructing
     * a plan for the JIT tier costs nothing extra.
     */
    AccessWalkPlan lowered(Sweep sweep) const;

    /** A sweep's operands, in walk order. */
    std::vector<const Operand *> sweepOperands(Sweep sweep) const;

    /**
     * Address tuples one sweep visits, in order (tests and
     * diagnostics). `restrictAxis` >= 0 confines that outer axis to
     * [lo, hi).
     */
    std::vector<std::vector<std::int64_t>>
    sweepAddresses(Sweep sweep, int restrictAxis = -1,
                   std::int64_t lo = 0, std::int64_t hi = 0) const;

    CombineKind combine() const { return _combine; }
    std::size_t numInputs() const { return _numInputs; }
    /** Numeric discipline the plan executes under. */
    const quant::SemanticsInfo &semantics() const
    {
        return _semantics;
    }
    /** Declared operand dtypes: inputs in order, then the output. */
    const std::vector<DataType> &operandDtypes() const
    {
        return _operandDtypes;
    }
    /** Software iterator extents, in declaration order. */
    const std::vector<std::int64_t> &iterExtents() const
    {
        return _iterExtents;
    }
    /// @}

  private:
    struct PackedOperand;

    void compile(const MappingPlan &plan);
    bool compileDirectOperands(const MappingPlan &plan);
    bool compilePackedOperands(const MappingPlan &plan);
    void computeGroupAlphas(Operand &op) const;
    int computeDirectSplit() const;

    std::string _reason;
    CombineKind _combine = CombineKind::MultiplyAdd;
    std::size_t _numInputs = 0;
    quant::SemanticsInfo _semantics;
    std::vector<DataType> _operandDtypes; ///< inputs..., output
    std::vector<std::vector<std::int64_t>> _inputShapes;
    std::vector<std::int64_t> _outputShape;
    std::vector<std::int64_t> _iterExtents;
    std::vector<Axis> _axes;
    std::vector<Group> _groups;
    std::vector<Operand> _direct;   ///< inputs..., output
    /// Packed-tile streams (inputs..., output): tile base per outer
    /// axis + offset per intrinsic counter; sized buffers.
    std::vector<Operand> _packed;
    std::vector<std::int64_t> _packedSizes;
    AccessWalkPlan _stageB;         ///< pure affine compute stage
    int _directSplit = -1;
    int _packedSplit = -1;
};

} // namespace amos

#endif // AMOS_MAPPING_EXEC_PLAN_HH
