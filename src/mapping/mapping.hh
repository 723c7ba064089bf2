/**
 * @file
 * Software-hardware mapping (Def. 4.3) and the two-step mapping
 * generation of Sec. 5.1.
 *
 * A ComputeMapping assigns each software iteration to at most one
 * intrinsic iteration; iterations fused into the same intrinsic
 * iteration are flattened in loop order. The MappingPlan materialises
 * everything downstream consumers need:
 *
 *  - the matching matrix Y and its validation against Algorithm 1;
 *  - virtual mapping (no hardware constraints): fused flat indices,
 *    zero base addresses, full-shape strides;
 *  - physical mapping (problem-size and capacity constraints): mod
 *    restriction per intrinsic iteration, quotient outer loops,
 *    trailing padding factors, tiled base address / stride
 *    expressions per operand (the paper's Fig. 3 parts g/h).
 */

#ifndef AMOS_MAPPING_MAPPING_HH
#define AMOS_MAPPING_MAPPING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/abstraction.hh"
#include "mapping/validate.hh"
#include "support/bit_matrix.hh"
#include "tensor/computation.hh"

namespace amos {

/**
 * Compute mapping: for each intrinsic iteration, the ordered list of
 * software iteration positions fused into it. Software iterations in
 * no group stay outer loops.
 */
struct ComputeMapping
{
    std::vector<std::vector<std::size_t>> groups;

    /** True iff software iteration s appears in some group. */
    bool isMapped(std::size_t s) const;

    /** Compact signature like "[n,q | k | c,r]" for diagnostics. */
    std::string signature(const TensorComputation &comp) const;
};

/**
 * Software access matrix X (Fig. 4): rows are operands in the order
 * [inputs..., output], columns are software iterations; an entry is
 * set iff the iteration appears in the operand's access indices.
 */
BitMatrix softwareAccessMatrix(const TensorComputation &comp);

/**
 * Compatibility matrix: entry (k, s) set iff software iteration s may
 * map to intrinsic iteration k, i.e. column s of X equals column k of
 * Z and s carries no tensorize barrier.
 */
BitMatrix compatibilityMatrix(const TensorComputation &comp,
                              const ComputeAbstraction &intr);

/**
 * Everything derivable from (computation, intrinsic, compute
 * mapping): validated matrices, fused/quotient structure, padding,
 * mapping expressions, per-operand memory mapping.
 */
class MappingPlan
{
  public:
    /** Per-intrinsic-iteration fusion summary. */
    struct GroupInfo
    {
        std::vector<std::size_t> members; ///< software iter positions
        std::int64_t fusedExtent = 1;     ///< product of member extents
        std::int64_t intrinsicExtent = 1; ///< problem size along iter
        std::int64_t quotient = 1;        ///< ceil(fused / intrinsic)
        bool padded = false;              ///< trailing padding needed
    };

    /** One axis of the outer (schedulable) loop nest. */
    struct OuterAxis
    {
        enum class Kind
        {
            Unmapped,      ///< a software iteration left outside
            GroupQuotient, ///< tile index of an intrinsic iteration
        };
        Kind kind;
        std::size_t ref; ///< iter position or intrinsic iter index
        std::int64_t extent = 1;
        std::string name;
        /// Iterates a reduction dimension (software or intrinsic).
        bool reduction = false;
    };

    /** Per-operand physical memory-mapping summary. */
    struct OperandInfo
    {
        std::string name;
        bool isOutput = false;
        int inputIndex = -1;          ///< -1 for the output
        DataType dtype = DataType::F16;
        /// Intrinsic iterations indexing this operand, in order.
        std::vector<std::size_t> intrinsicIters;
        /// Outer axes (indices into outerAxes()) the operand's tile
        /// address depends on; reuse happens across all other axes.
        std::vector<std::size_t> dependentAxes;
        std::int64_t tileElems = 1;   ///< elements per intrinsic tile
        std::int64_t tileBytes = 0;
        /// Row stride inside the packed tile (the paper's stride_x).
        std::int64_t tileStride = 1;
        /// Number of distinct tiles the operand occupies overall.
        std::int64_t numTiles = 1;
        /// Base-address expression over software iterators (Fig. 3h).
        Expr baseAddress;

        /// @name Plan-invariant lowering inputs
        /// Computed once when the plan is built; lowerKernel copies
        /// them into every profile (see OperandProfile).
        /// @{
        /**
         * Longest contiguous run (elements) a staging loop can read
         * from the software layout when gathering one tile. 0 marks
         * an access that is not affine in a tile iterator: the plan
         * still builds, and lowering the plan raises.
         */
        std::int64_t contiguousRun = 1;
        /// Fraction of the tile space holding real (unpadded) data.
        double usefulFraction = 1.0;
        /// @}
    };

    /**
     * Build a plan. The computation and intrinsic are copied into the
     * plan (both are cheap handle-holders), so callers may pass
     * temporaries.
     */
    MappingPlan(TensorComputation comp, Intrinsic intr,
                ComputeMapping mapping);

    const TensorComputation &computation() const { return _comp; }
    const Intrinsic &intrinsic() const { return _intr; }
    const ComputeMapping &mapping() const { return _mapping; }

    /** Matching matrix Y built from the groups. */
    const BitMatrix &matchingMatrix() const { return _y; }

    /** Algorithm-1 validation result for (X, Y, Z). */
    const ValidationResult &validation() const { return _validation; }
    bool valid() const { return _validation.valid; }

    const std::vector<GroupInfo> &groups() const { return _groups; }
    const std::vector<std::size_t> &unmappedIters() const
    {
        return _unmapped;
    }
    const std::vector<OuterAxis> &outerAxes() const
    {
        return _outerAxes;
    }
    const std::vector<OperandInfo> &operands() const
    {
        return _operands;
    }

    /** Total intrinsic calls = product of outer-axis extents. */
    std::int64_t intrinsicCallCount() const;

    /**
     * Compute inflation from trailing padding: executed scalar ops
     * divided by useful scalar ops (>= 1).
     */
    double paddingWasteFactor() const { return _paddingWaste; }

    /**
     * Extra div/mod address terms per intrinsic call: each software
     * iteration fused beyond the first in a group adds one (the
     * (n*4 + p*2 + q) / 2 chains of Fig. 3h).
     */
    int addressTerms() const { return _addressTerms; }

    /**
     * Virtual compute-mapping expressions (step 1 of Sec. 5.1): the
     * unrestricted fused flat index per intrinsic iteration.
     */
    std::vector<Expr> virtualComputeExprs() const;

    /**
     * Physical compute-mapping expressions (step 2): fused flat index
     * modulo the intrinsic extent, as printed in Table 5.
     */
    std::vector<Expr> physicalComputeExprs() const;

    /** Quotient expressions locating the tile per intrinsic iter. */
    std::vector<Expr> quotientExprs() const;

    /** Table-5-style one-line rendering of the compute mapping. */
    std::string computeMappingString() const;

    /** Fig. 3h-style rendering of the memory mapping. */
    std::string memoryMappingString() const;

  private:
    void buildGroups();
    void buildOuterAxes();
    void buildOperands();
    void buildLoweringInvariants();
    Expr fusedFlatExpr(const GroupInfo &group) const;

    TensorComputation _comp;
    Intrinsic _intr;
    ComputeMapping _mapping;
    BitMatrix _y;
    ValidationResult _validation;
    std::vector<GroupInfo> _groups;
    std::vector<std::size_t> _unmapped;
    std::vector<OuterAxis> _outerAxes;
    std::vector<OperandInfo> _operands;
    double _paddingWaste = 1.0;
    int _addressTerms = 0;
};

} // namespace amos

#endif // AMOS_MAPPING_MAPPING_HH
