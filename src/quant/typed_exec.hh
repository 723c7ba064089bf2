/**
 * @file
 * Typed operand accessors + dispatch for the functional engines.
 *
 * The stride-walk templates (tensor/access_walk.hh) and the mapped
 * walkers (mapping/exec_plan.cc) are address generators: they hand a
 * body flat addresses and know nothing about element types. This
 * header supplies the other half — tiny pointer-like accessors over a
 * Buffer's storage lane, and a dispatcher that instantiates a generic
 * body once per *legal* dtype combination (see semantics.hh):
 *
 *   F32    : FloatLoader x{1,2} -> FloatAccum      (1 combo)
 *   Bf16   : Bf16Loader  x{1,2} -> FloatAccum      (1 combo)
 *   IntDot : {I8,U8}Loader^n    -> I32Accum        (<= 4 combos)
 *
 * Loaders return the arithmetic type of their discipline (float or
 * int64), accumulators wrap the discipline's exact add — so each
 * engine writes one body per combine kind (AccumulateBody) and gets
 * every dtype path with identical accumulation order.
 */

#ifndef AMOS_QUANT_TYPED_EXEC_HH
#define AMOS_QUANT_TYPED_EXEC_HH

#include <cstddef>
#include <cstdint>

#include "quant/bf16.hh"
#include "quant/semantics.hh"
#include "support/logging.hh"
#include "tensor/tensor.hh"

namespace amos {
namespace quant {

/** Float-lane reader (declared f16 or f32; host floats). */
struct FloatLoader
{
    const float *p;
    float load(std::int64_t a) const { return p[a]; }
};

/** bf16-lane reader: exact widening on every load. */
struct Bf16Loader
{
    const std::uint16_t *p;
    float load(std::int64_t a) const { return floatFromBf16(p[a]); }
};

/** i8-lane reader, widened to the int64 arithmetic domain. */
struct I8Loader
{
    const std::int8_t *p;
    std::int64_t load(std::int64_t a) const { return p[a]; }
};

/** u8-lane reader, widened to the int64 arithmetic domain. */
struct U8Loader
{
    const std::uint8_t *p;
    std::int64_t load(std::int64_t a) const { return p[a]; }
};

/** int32 staging-stream reader, widened to the int64 domain. */
struct I32Loader
{
    const std::int32_t *p;
    std::int64_t load(std::int64_t a) const { return p[a]; }
};

/**
 * Float accumulator / store target. step() is the discipline's add
 * on a held value, so add(a, v) == put(a, step(get(a), v)).
 */
struct FloatAccum
{
    using Value = float;
    float *p;
    static float step(float r, float v) { return r + v; }
    float get(std::int64_t a) const { return p[a]; }
    void put(std::int64_t a, float v) const { p[a] = v; }
    void add(std::int64_t a, float v) const { p[a] = step(p[a], v); }
    void store(std::int64_t a, float v) const { p[a] = v; }
};

/** Exact int32 accumulator (int64 arithmetic, wrapping cast). */
struct I32Accum
{
    using Value = std::int32_t;
    std::int32_t *p;
    static std::int32_t step(std::int32_t r, std::int64_t v)
    {
        return static_cast<std::int32_t>(static_cast<std::int64_t>(r) +
                                         v);
    }
    std::int32_t get(std::int64_t a) const { return p[a]; }
    void put(std::int64_t a, std::int32_t v) const { p[a] = v; }
    void add(std::int64_t a, std::int64_t v) const
    {
        p[a] = step(p[a], v);
    }
    void store(std::int64_t a, std::int64_t v) const
    {
        p[a] = static_cast<std::int32_t>(v);
    }
};

/**
 * Stride-walk body of one combine kind: acc[a[Out]] += l0[a[0]]
 * (* l1[a[1]]), Out = 2 for MultiplyAdd and 1 for SumReduce (pass
 * `l0` twice; `l1` is then unused).
 *
 * run() takes a whole innermost run. When the run stays on one
 * output element (output step 0) it holds the partial sum in a
 * register: the same adds in the same order, so the result is
 * bit-identical — provided no input overlaps the output, which the
 * caller states through `inRegister`.
 */
template <typename L0, typename L1, typename Acc, std::size_t Out>
struct AccumulateBody
{
    static_assert(Out == 1 || Out == 2, "one or two inputs");
    static constexpr std::size_t kOperands = Out + 1;
    L0 l0;
    L1 l1;
    Acc acc;
    bool inRegister = true;

    auto term(std::int64_t x, std::int64_t y) const
    {
        if constexpr (Out == 2)
            return l0.load(x) * l1.load(y);
        else
            return l0.load(x);
    }

    void operator()(const std::int64_t *a) const
    {
        acc.add(a[Out], term(a[0], a[1]));
    }

    /** n elements from addresses a, advancing by `step` each. */
    void run(const std::int64_t *a, const std::int64_t *step,
             std::int64_t n) const
    {
        std::int64_t x = a[0], y = a[1], o = a[Out];
        const std::int64_t sx = step[0], sy = step[1], so = step[Out];
        if (so == 0 && inRegister) {
            typename Acc::Value r = acc.get(o);
            for (; n > 0; --n, x += sx, y += sy)
                r = Acc::step(r, term(x, y));
            acc.put(o, r);
            return;
        }
        for (; n > 0; --n, x += sx, y += sy, o += so)
            acc.add(o, term(x, y));
    }
};

/** Build an AccumulateBody with deduced accessor types. */
template <std::size_t Out, typename L0, typename L1, typename Acc>
AccumulateBody<L0, L1, Acc, Out>
accumulateBody(L0 l0, L1 l1, Acc acc, bool inRegister)
{
    return {l0, l1, acc, inRegister};
}

/**
 * Invoke fn(loader) with the accessor matching an 8-bit input lane.
 */
template <typename Fn>
void
withInt8Loader(const Buffer &buf, Fn &&fn)
{
    if (buf.decl().dtype() == DataType::I8)
        fn(I8Loader{buf.i8Data()});
    else
        fn(U8Loader{buf.u8Data()});
}

/**
 * Dispatch a two-input multiply-add body over the computation's
 * discipline: calls fn(in0, in1, out) with accessors whose load/add
 * types match. The semantics must be supported (callers classify and
 * reject first) and the buffers must already be lane-checked.
 */
template <typename Fn>
void
dispatchMulAdd(const SemanticsInfo &sem, const Buffer &in0,
               const Buffer &in1, Buffer &out, Fn &&fn)
{
    require(sem.supported, "dispatchMulAdd: unsupported semantics: ",
            sem.reason);
    switch (sem.kind) {
      case KernelSemantics::F32:
        fn(FloatLoader{in0.data()}, FloatLoader{in1.data()},
           FloatAccum{out.data()});
        return;
      case KernelSemantics::Bf16:
        fn(Bf16Loader{in0.bf16Data()}, Bf16Loader{in1.bf16Data()},
           FloatAccum{out.data()});
        return;
      case KernelSemantics::IntDot:
        withInt8Loader(in0, [&](auto l0) {
            withInt8Loader(in1, [&](auto l1) {
                fn(l0, l1, I32Accum{out.i32Data()});
            });
        });
        return;
    }
}

/** Single-input (SumReduce) variant: calls fn(in0, out). */
template <typename Fn>
void
dispatchSum(const SemanticsInfo &sem, const Buffer &in0, Buffer &out,
            Fn &&fn)
{
    require(sem.supported, "dispatchSum: unsupported semantics: ",
            sem.reason);
    switch (sem.kind) {
      case KernelSemantics::F32:
        fn(FloatLoader{in0.data()}, FloatAccum{out.data()});
        return;
      case KernelSemantics::Bf16:
        fn(Bf16Loader{in0.bf16Data()}, FloatAccum{out.data()});
        return;
      case KernelSemantics::IntDot:
        withInt8Loader(in0,
                       [&](auto l0) { fn(l0, I32Accum{out.i32Data()}); });
        return;
    }
}

} // namespace quant
} // namespace amos

#endif // AMOS_QUANT_TYPED_EXEC_HH
