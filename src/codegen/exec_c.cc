#include "exec_c.hh"

#include <cstdlib>
#include <functional>
#include <sstream>

#include "quant/semantics.hh"
#include "support/logging.hh"

namespace amos {

namespace {

/** C spelling of a storage lane's element type. */
const char *
laneCType(StorageLane lane)
{
    switch (lane) {
      case StorageLane::F32: return "float";
      case StorageLane::BF16: return "uint16_t";
      case StorageLane::I8: return "int8_t";
      case StorageLane::U8: return "uint8_t";
      case StorageLane::I32: return "int32_t";
    }
    std::abort(); // unreachable for in-range enumerators
}

/**
 * Kernel semantics and per-operand lanes derived from declared
 * dtypes (inputs..., output). An empty vector is the all-f32 legacy
 * shape. Mirrors quant::classifyComputation, which callers have
 * already consulted — this re-derivation only rejects combinations
 * that could not have passed classification.
 */
struct EmitTypes
{
    quant::KernelSemantics kind = quant::KernelSemantics::F32;
    std::vector<StorageLane> inLanes;
    StorageLane outLane = StorageLane::F32;
};

EmitTypes
emitTypesFor(const std::vector<DataType> &dtypes, std::size_t numInputs)
{
    EmitTypes t;
    if (dtypes.empty()) {
        t.inLanes.assign(numInputs, StorageLane::F32);
        return t;
    }
    require(dtypes.size() == numInputs + 1,
            "exec_c: operand dtype count mismatch");
    for (std::size_t i = 0; i < numInputs; ++i)
        t.inLanes.push_back(dtypeStorageLane(dtypes[i]));
    t.outLane = dtypeStorageLane(dtypes.back());
    if (t.outLane == StorageLane::I32) {
        t.kind = quant::KernelSemantics::IntDot;
        for (auto l : t.inLanes)
            require(l == StorageLane::I8 || l == StorageLane::U8,
                    "exec_c: int32 accumulator needs 8-bit inputs");
    } else {
        require(t.outLane == StorageLane::F32,
                "exec_c: unsupported output lane ",
                laneCType(t.outLane));
        bool anyBf16 = false;
        for (auto l : t.inLanes) {
            require(l == StorageLane::F32 || l == StorageLane::BF16,
                    "exec_c: unsupported input lane ", laneCType(l));
            anyBf16 = anyBf16 || l == StorageLane::BF16;
        }
        if (anyBf16)
            t.kind = quant::KernelSemantics::Bf16;
    }
    return t;
}

/** Tiny indented-C writer. */
struct CWriter
{
    std::ostringstream out;
    int depth = 0;

    void line(const std::string &s)
    {
        for (int i = 0; i < depth; ++i)
            out << "    ";
        out << s << '\n';
    }
    void open(const std::string &head)
    {
        line(head + " {");
        ++depth;
    }
    void close()
    {
        --depth;
        line("}");
    }
};

/** Integer literal; negatives parenthesised for use inside products. */
std::string
lit(std::int64_t v)
{
    std::string s = std::to_string(v) + "L";
    return v < 0 ? "(" + s + ")" : s;
}

/** "var" / "var * c" term, folding unit coefficients. */
std::string
term(const std::string &var, std::int64_t coeff)
{
    return coeff == 1 ? var : var + " * " + lit(coeff);
}

std::string
joinTerms(const std::string &head, const std::vector<std::string> &ts)
{
    std::string s = head;
    for (const auto &t : ts)
        s += " + " + t;
    return s;
}

/** Strip comment terminators so descriptions stay inside comments. */
std::string
sanitizeComment(std::string s)
{
    for (std::size_t p; (p = s.find("*/")) != std::string::npos;)
        s[p + 1] = ' ';
    return s;
}

using NestBody =
    std::function<void(CWriter &, const std::vector<std::string> &)>;

/**
 * Emit a walk plan's loop nest (the stride walk's closed form): one
 * `for` per level, partial flat addresses hoisted at the level where
 * their stride applies, and the innermost stride left inline so the
 * compiler sees a unit-step induction it can vectorize. A clamped
 * level runs to lim = min(I, F - q * I), so a pure-padding tile runs
 * no iterations. A carry level reads its digits' address
 * contribution from a per-tile table: the table is filled once per
 * quotient value by stepping the digits (the innermost bumps, a wrap
 * carries into the next and selects the next precomputed delta), and
 * the tile-start digits advance by I in mixed radix at the end of
 * each quotient iteration, so no loop divides.
 */
void
emitAffineNest(CWriter &w, const AccessWalkPlan &plan,
               const std::string &pfx, const NestBody &body)
{
    const std::size_t L = plan.extents.size();
    const std::size_t M = plan.operands.size();
    for (auto e : plan.extents) {
        if (e <= 0) {
            w.line("/* " + pfx + ": empty iteration space */");
            return;
        }
    }

    std::vector<std::string> part(M);
    for (std::size_t m = 0; m < M; ++m)
        part[m] = lit(plan.operands[m].base);

    if (L == 0) {
        body(w, part);
        return;
    }

    auto loopVar = [&](std::size_t l) {
        return pfx + "i" + std::to_string(l);
    };
    // Names of carry level l's state: "s" tile-start digit p, "d"
    // stepping digit p, "c" running contribution of operand p, "o"
    // the table of operand p.
    auto carryVar = [&](const char *kind, std::size_t l, std::size_t p) {
        return pfx + kind + std::to_string(l) + "_" + std::to_string(p);
    };
    // Operands whose address the digits of a carry level move; the
    // others step by their stride as on a plain level.
    auto moved = [&](const WalkCarry &c, std::size_t m) {
        for (auto k : c.coeff[m])
            if (k != 0)
                return true;
        return false;
    };
    auto emitTable = [&](const WalkCarry &c) {
        const std::size_t l = c.level;
        const std::size_t n = c.radix.size();
        const std::string extent = lit(plan.extents[l]);
        for (std::size_t m = 0; m < M; ++m)
            if (moved(c, m))
                w.line("long " + carryVar("o", l, m) + "[" + extent + "];");
        auto start = [&](std::size_t p) {
            return c.quotientLevel < 0 ? std::string("0L")
                                       : carryVar("s", l, p);
        };
        for (std::size_t p = 1; p < n; ++p)
            w.line("long " + carryVar("d", l, p) + " = " + start(p) + ";");
        for (std::size_t m = 0; m < M; ++m) {
            if (!moved(c, m))
                continue;
            std::string init = "0L";
            for (std::size_t p = 0; p < n && c.quotientLevel >= 0; ++p)
                if (c.coeff[m][p] != 0)
                    init = (init == "0L" ? "" : init + " + ") +
                           term(start(p), c.coeff[m][p]);
            w.line("long " + carryVar("c", l, m) + " = " + init + ";");
        }
        const std::string tv = pfx + "t" + std::to_string(l);
        w.open("for (long " + tv + " = 0; " + tv + " < " + extent + "; ++" +
               tv + ")");
        for (std::size_t m = 0; m < M; ++m)
            if (moved(c, m))
                w.line(carryVar("o", l, m) + "[" + tv + "] = " +
                       carryVar("c", l, m) + ";");
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t p = n - 1 - j;
            if (p > 0)
                w.open("if (++" + carryVar("d", l, p) + " < " +
                       lit(c.radix[p]) + ")");
            for (std::size_t m = 0; m < M; ++m) {
                const std::int64_t step =
                    c.delta[j][m] - plan.operands[m].stride[l];
                if (moved(c, m) && step != 0)
                    w.line(carryVar("c", l, m) + " += " + lit(step) + ";");
            }
            if (p == 0)
                break;
            w.close();
            w.open("else");
            w.line(carryVar("d", l, p) + " = 0;");
        }
        for (std::size_t j = 1; j < n; ++j)
            w.close();
        w.close();
    };

    for (const auto &c : plan.carries)
        if (c.quotientLevel < 0)
            emitTable(c);
    std::vector<std::string> addr(M);
    for (std::size_t l = 0; l < L; ++l) {
        for (const auto &c : plan.carries)
            if (c.quotientLevel == static_cast<int>(l))
                for (std::size_t p = 0; p < c.radix.size(); ++p)
                    w.line("long " + carryVar("s", c.level, p) + " = 0;");
        std::string bound = lit(plan.extents[l]);
        for (const auto &c : plan.clamps) {
            if (c.level != l)
                continue;
            const std::string rest =
                lit(c.limit) + " - " + term(loopVar(c.quotientLevel), c.tile);
            bound = pfx + "lim" + std::to_string(l);
            w.line("const long " + bound + " = " + rest + " < " +
                   lit(plan.extents[l]) + " ? " + rest + " : " +
                   lit(plan.extents[l]) + ";");
        }
        const WalkCarry *carry = plan.carryAt(l);
        const std::string iv = loopVar(l);
        w.open("for (long " + iv + " = 0; " + iv + " < " + bound + "; ++" +
               iv + ")");
        for (std::size_t m = 0; m < M; ++m) {
            std::vector<std::string> terms;
            if (carry && moved(*carry, m))
                terms.push_back(carryVar("o", l, m) + "[" + iv + "]");
            if (const std::int64_t s = plan.operands[m].stride[l]; s != 0)
                terms.push_back(term(iv, s));
            if (l + 1 == L) {
                addr[m] = joinTerms(part[m], terms);
                continue;
            }
            if (terms.empty())
                continue;
            const std::string name = pfx + "a" + std::to_string(m) +
                                     "_" + std::to_string(l);
            w.line("const long " + name + " = " +
                   joinTerms(part[m], terms) + ";");
            part[m] = name;
        }
        for (const auto &c : plan.carries)
            if (c.quotientLevel == static_cast<int>(l))
                emitTable(c);
    }
    body(w, addr);

    for (std::size_t l = L; l-- > 0;) {
        for (const auto &c : plan.carries) {
            if (c.quotientLevel != static_cast<int>(l))
                continue;
            // Next tile: the start digits advance by I, whose
            // mixed-radix digits are folded in here.
            const std::size_t n = c.radix.size();
            std::vector<std::int64_t> add(n);
            std::int64_t rest = c.tile;
            for (std::size_t p = n; p-- > 1;) {
                add[p] = rest % c.radix[p];
                rest /= c.radix[p];
            }
            add[0] = rest;
            bool carryIn = false;
            for (std::size_t p = n; p-- > 0;) {
                const std::string sv = carryVar("s", c.level, p);
                if (add[p] != 0)
                    w.line(sv + " += " + lit(add[p]) + ";");
                carryIn = p > 0 && (add[p] != 0 || carryIn);
                if (!carryIn)
                    continue;
                w.open("if (" + sv + " >= " + lit(c.radix[p]) + ")");
                w.line(sv + " -= " + lit(c.radix[p]) + ";");
                w.line("++" + carryVar("s", c.level, p - 1) + ";");
                w.close();
            }
        }
        w.close();
    }
}

/**
 * Load expression for one input operand: bf16 lanes widen through
 * the emitted helper, IntDot lanes widen to the int64 arithmetic
 * domain — mirroring the host loaders in quant/typed_exec.hh.
 */
std::string
loadExpr(const EmitTypes &t, std::size_t m, const std::string &ptr,
         const std::string &addr)
{
    const std::string elem = ptr + "[" + addr + "]";
    if (t.inLanes[m] == StorageLane::BF16)
        return "amos_bf16_to_f32(" + elem + ")";
    if (t.kind == quant::KernelSemantics::IntDot)
        return "(int64_t)" + elem;
    return elem;
}

/**
 * out[a_out] (+)= in0[a0] (* in1[a1]) with the given pointer names.
 * Float disciplines accumulate in place; IntDot goes through an
 * int64 intermediate with a wrapping cast back to int32, exactly
 * quant::intDotStep.
 */
NestBody
accumulateBody(CombineKind combine, const EmitTypes &types,
               std::vector<std::string> ptrs)
{
    return [combine, types, ptrs = std::move(ptrs)](
               CWriter &w, const std::vector<std::string> &a) {
        const std::size_t oi = ptrs.size() - 1;
        const std::string out = ptrs[oi] + "[" + a[oi] + "]";
        std::string rhs = loadExpr(types, 0, ptrs[0], a[0]);
        if (combine == CombineKind::MultiplyAdd)
            rhs += " * " + loadExpr(types, 1, ptrs[1], a[1]);
        if (types.kind == quant::KernelSemantics::IntDot)
            w.line(out + " = (int32_t)((int64_t)" + out + " + " + rhs +
                   ");");
        else
            w.line(out + " += " + rhs + ";");
    };
}

void
emitPrologue(CWriter &w, const std::string &kind,
             const std::string &description, bool needsStdlib,
             const EmitTypes &types)
{
    w.line("/* amos jit exec kernel (" + kind + ")");
    const std::string text = sanitizeComment(description);
    for (std::size_t at = 0;;) {
        const std::size_t nl = text.find('\n', at);
        w.line(" * " + text.substr(at, nl - at));
        if (nl == std::string::npos)
            break;
        at = nl + 1;
    }
    w.line(" *");
    w.line(" * Loop order matches the stride-walk engine exactly, so");
    w.line(" * accumulation — floating-point bits and wrapped int32");
    w.line(" * alike — is bit-identical to the interpreter. Do not");
    w.line(" * compile with -ffast-math.");
    w.line(" */");
    w.line("#include <stdint.h>");
    if (needsStdlib)
        w.line("#include <stdlib.h>");
    bool anyBf16 = false;
    for (auto l : types.inLanes)
        anyBf16 = anyBf16 || l == StorageLane::BF16;
    if (anyBf16) {
        w.line("");
        w.open("static inline float amos_bf16_to_f32(uint16_t b)");
        w.line("union { uint32_t u; float f; } v;");
        w.line("v.u = (uint32_t)b << 16;");
        w.line("return v.f;");
        w.close();
    }
    w.line("");
    w.open("void amos_exec_kernel(const void *const *inputs, "
           "void *output)");
}

/** Bind restrict-qualified typed operand pointers in0.., out. */
void
emitOperandPointers(CWriter &w, const EmitTypes &types)
{
    for (std::size_t i = 0; i < types.inLanes.size(); ++i) {
        const std::string ty = laneCType(types.inLanes[i]);
        w.line("const " + ty + " *restrict in" + std::to_string(i) +
               " = (const " + ty + " *)inputs[" + std::to_string(i) +
               "];");
    }
    const std::string oty = laneCType(types.outLane);
    w.line(oty + " *restrict out = (" + oty + " *)output;");
}

std::vector<std::string>
inputPtrNames(std::size_t numInputs)
{
    std::vector<std::string> ptrs;
    for (std::size_t i = 0; i < numInputs; ++i)
        ptrs.push_back("in" + std::to_string(i));
    ptrs.push_back("out");
    return ptrs;
}

} // namespace

std::string
generateWalkKernelC(const AccessWalkPlan &plan, CombineKind combine,
                    std::size_t numInputs,
                    const std::string &description,
                    const std::vector<DataType> &operandDtypes)
{
    require(plan.operands.size() == numInputs + 1,
            "generateWalkKernelC: operand/input count mismatch");
    const EmitTypes types = emitTypesFor(operandDtypes, numInputs);
    CWriter w;
    emitPrologue(w, "affine walk", description, false, types);
    emitOperandPointers(w, types);
    emitAffineNest(
        w, plan, "r",
        accumulateBody(combine, types, inputPtrNames(numInputs)));
    w.close();
    return w.out.str();
}

std::string
generateDirectKernelC(const ExecPlan &plan,
                      const std::string &description)
{
    require(plan.compiled(),
            "generateDirectKernelC on an uncompiled plan: ",
            plan.fallbackReason());
    const std::size_t nin = plan.numInputs();
    const EmitTypes types = emitTypesFor(plan.operandDtypes(), nin);
    CWriter w;
    emitPrologue(w, "mapped direct", description, false, types);
    emitOperandPointers(w, types);

    emitAffineNest(
        w, plan.lowered(ExecPlan::Sweep::Direct), "d",
        accumulateBody(plan.combine(), types, inputPtrNames(nin)));
    w.close();
    return w.out.str();
}

std::string
generatePackedKernelC(const ExecPlan &plan,
                      const std::string &description)
{
    require(plan.compiled(),
            "generatePackedKernelC on an uncompiled plan: ",
            plan.fallbackReason());
    const std::size_t nin = plan.numInputs();
    const auto &packed = plan.packedOperands();
    const auto &sizes = plan.packedSizes();
    const EmitTypes types = emitTypesFor(plan.operandDtypes(), nin);

    // Stream element type: int32_t for the exact quantized
    // discipline (inputs widen on pack), float otherwise (bf16
    // decodes on pack) — exactly the host engines' packed streams.
    const bool intDot = types.kind == quant::KernelSemantics::IntDot;
    const std::string streamTy = intDot ? "int32_t" : "float";
    EmitTypes streamTypes;
    streamTypes.kind = types.kind;
    streamTypes.inLanes.assign(
        nin, intDot ? StorageLane::I32 : StorageLane::F32);
    streamTypes.outLane =
        intDot ? StorageLane::I32 : StorageLane::F32;

    CWriter w;
    emitPrologue(w, "mapped packed", description, true, types);
    emitOperandPointers(w, types);

    // calloc'd packed tile streams: padding slots stay zero, exactly
    // like the interpreter's sweep.
    std::vector<std::string> pk;
    for (std::size_t m = 0; m < packed.size(); ++m) {
        const std::string name = "pk" + std::to_string(m);
        const std::int64_t sz = std::max<std::int64_t>(sizes[m], 1);
        w.line(streamTy + " *restrict " + name + " = (" + streamTy +
               " *)calloc(" + lit(sz) + ", sizeof(" + streamTy +
               "));");
        w.line("if (!" + name + ") abort();");
        pk.push_back(name);
    }

    // Stage A: pack each input's valid software points into its tile
    // stream, converting to the stream type (bf16 widens to float,
    // 8-bit lanes widen to int32). Operand pairs: [source, packed
    // destination].
    w.line("/* stage A: pack inputs */");
    {
        emitAffineNest(
            w, plan.lowered(ExecPlan::Sweep::Pack), "A",
            [&](CWriter &ww, const std::vector<std::string> &a) {
                for (std::size_t m = 0; m < nin; ++m) {
                    std::string src = "in" + std::to_string(m) + "[" +
                                      a[2 * m] + "]";
                    if (types.inLanes[m] == StorageLane::BF16)
                        src = "amos_bf16_to_f32(" + src + ")";
                    else if (intDot)
                        src = "(int32_t)" + src;
                    ww.line(pk[m] + "[" + a[2 * m + 1] + "] = " + src +
                            ";");
                }
            });
    }

    // Stage B: the intrinsic compute sweep, purely affine over the
    // packed streams.
    w.line("/* stage B: compute on packed streams */");
    {
        std::vector<std::string> ptrs(pk.begin(),
                                      pk.begin() +
                                          static_cast<long>(nin));
        ptrs.push_back(pk.back());
        emitAffineNest(
            w, plan.stageB(), "B",
            accumulateBody(plan.combine(), streamTypes, ptrs));
    }

    // Stage C: unpack the output stream back to the software layout.
    w.line("/* stage C: unpack output */");
    {
        emitAffineNest(
            w, plan.lowered(ExecPlan::Sweep::Unpack), "C",
            [&](CWriter &ww, const std::vector<std::string> &a) {
                ww.line("out[" + a[1] + "] = " + pk.back() + "[" +
                        a[0] + "];");
            });
    }

    for (const auto &name : pk)
        w.line("free(" + name + ");");
    w.close();
    return w.out.str();
}

} // namespace amos
