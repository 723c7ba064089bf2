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
 * Emit a pure affine loop nest (the stride walk's closed form): one
 * `for` per level, partial flat addresses hoisted at the level where
 * their stride applies, and the innermost stride left inline so the
 * compiler sees a unit-step induction it can vectorize.
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
    for (std::size_t l = 0; l + 1 < L; ++l) {
        const std::string iv = loopVar(l);
        w.open("for (long " + iv + " = 0; " + iv + " < " +
               lit(plan.extents[l]) + "; ++" + iv + ")");
        for (std::size_t m = 0; m < M; ++m) {
            const std::int64_t s = plan.operands[m].stride[l];
            if (s == 0)
                continue;
            const std::string name = pfx + "a" + std::to_string(m) +
                                     "_" + std::to_string(l);
            w.line("const long " + name + " = " + part[m] + " + " +
                   term(iv, s) + ";");
            part[m] = name;
        }
    }

    const std::size_t last = L - 1;
    const std::string iv = loopVar(last);
    w.open("for (long " + iv + " = 0; " + iv + " < " +
           lit(plan.extents[last]) + "; ++" + iv + ")");
    std::vector<std::string> addr(M);
    for (std::size_t m = 0; m < M; ++m) {
        const std::int64_t s = plan.operands[m].stride[last];
        addr[m] = s == 0 ? part[m] : part[m] + " + " + term(iv, s);
    }
    body(w, addr);
    for (std::size_t l = 0; l < L; ++l)
        w.close();
}

/**
 * Emit the mapped execution nest of an ExecPlan — the closed form of
 * its mapped sweeps: outer axis loops, per-group tile-start flats
 * and padding clamps, then one counter loop per group whose software
 * digits are decoded from the fused flat value (skipped entirely when
 * the plan's linearity table, Operand::groupAlpha, gives every
 * operand an alpha for the group: the contribution is then
 * alpha * flat and stays linear in the counter). Addresses are pure
 * functions of (axes, counters), so the emitted nest visits exactly
 * the walker's tuples in exactly its order.
 */
void
emitMappedNest(CWriter &w, const ExecPlan &plan,
               const std::vector<const ExecPlan::Operand *> &ops,
               const std::string &pfx, const NestBody &body)
{
    const auto &axes = plan.axes();
    const auto &groups = plan.groups();
    const std::size_t A = axes.size();
    const std::size_t K = groups.size();
    const std::size_t M = ops.size();

    for (const auto &ax : axes) {
        if (ax.extent <= 0) {
            w.line("/* " + pfx + ": empty axis sweep */");
            return;
        }
    }

    auto swCoeff = [&](std::size_t m, std::size_t s) -> std::int64_t {
        return s < ops[m]->swCoeff.size() ? ops[m]->swCoeff[s] : 0;
    };
    auto tStride = [&](std::size_t m, std::size_t k) -> std::int64_t {
        return k < ops[m]->tStride.size() ? ops[m]->tStride[k] : 0;
    };
    auto outerStride = [&](std::size_t m,
                           std::size_t a) -> std::int64_t {
        return a < ops[m]->outerStride.size() ? ops[m]->outerStride[a]
                                              : 0;
    };

    std::vector<std::string> part(M);
    for (std::size_t m = 0; m < M; ++m)
        part[m] = lit(ops[m]->base);

    // Outer axis loops; unmapped axes feed software coefficients,
    // every axis feeds packed-tile outer strides.
    auto axVar = [&](std::size_t a) {
        return pfx + "x" + std::to_string(a);
    };
    for (std::size_t a = 0; a < A; ++a) {
        const std::string xv = axVar(a);
        w.open("for (long " + xv + " = 0; " + xv + " < " +
               lit(axes[a].extent) + "; ++" + xv + ")");
        for (std::size_t m = 0; m < M; ++m) {
            std::int64_t c = outerStride(m, a);
            if (!axes[a].isQuotient)
                c += swCoeff(m, axes[a].ref);
            if (c == 0)
                continue;
            const std::string name = pfx + "p" + std::to_string(m) +
                                     "_x" + std::to_string(a);
            w.line("const long " + name + " = " + part[m] + " + " +
                   term(xv, c) + ";");
            part[m] = name;
        }
    }

    // Tile-start flats and padding clamps, exactly the walker's
    // lim_k = min(I_k, F_k - q_k * I_k); a tile with any lim <= 0 is
    // pure padding and is skipped.
    std::vector<std::string> fstart(K), limExpr(K);
    std::vector<std::string> guards;
    bool deadTile = false;
    for (std::size_t k = 0; k < K; ++k) {
        const auto &g = groups[k];
        int quotAxis = -1;
        for (std::size_t a = 0; a < A; ++a)
            if (axes[a].isQuotient && axes[a].ref == k)
                quotAxis = static_cast<int>(a);
        if (quotAxis < 0) {
            fstart[k] = "0L";
            const std::int64_t limc =
                std::min(g.intrinsicExtent, g.fusedExtent);
            limExpr[k] = lit(limc);
            deadTile = deadTile || limc <= 0;
            continue;
        }
        const std::string fs = pfx + "f" + std::to_string(k) + "s";
        const std::string lim = pfx + "lim" + std::to_string(k);
        w.line("const long " + fs + " = " +
               term(axVar(static_cast<std::size_t>(quotAxis)),
                    g.intrinsicExtent) +
               ";");
        w.line("const long " + lim + " = " + lit(g.fusedExtent) +
               " - " + fs + " < " + lit(g.intrinsicExtent) + " ? " +
               lit(g.fusedExtent) + " - " + fs + " : " +
               lit(g.intrinsicExtent) + ";");
        fstart[k] = fs;
        limExpr[k] = lim;
        guards.push_back(lim + " > 0");
    }
    if (deadTile) {
        w.line("/* " + pfx + ": every tile is pure padding */");
        for (std::size_t a = 0; a < A; ++a)
            w.close();
        return;
    }
    bool guarded = !guards.empty();
    if (guarded) {
        std::string cond = guards[0];
        for (std::size_t i = 1; i < guards.size(); ++i)
            cond += " && " + guards[i];
        w.open("if (" + cond + ")");
    }

    // Group counter loops, innermost last — the walker's digit
    // odometer in closed form.
    for (std::size_t k = 0; k < K; ++k) {
        const auto &g = groups[k];
        const std::string tv = pfx + "t" + std::to_string(k);
        w.open("for (long " + tv + " = 0; " + tv + " < " +
               limExpr[k] + "; ++" + tv + ")");
        const std::string fexpr =
            fstart[k] == "0L" ? tv : fstart[k] + " + " + tv;

        // First pass: which operands force a digit decode?
        std::vector<std::optional<std::int64_t>> alpha(M);
        bool needDecode = false;
        for (std::size_t m = 0; m < M; ++m) {
            alpha[m] = ops[m]->groupAlpha[k];
            needDecode = needDecode || !alpha[m];
        }
        auto digitVar = [&](std::size_t pos) {
            return pfx + "d" + std::to_string(k) + "_" +
                   std::to_string(pos);
        };
        if (needDecode) {
            const std::string fv = pfx + "f" + std::to_string(k);
            w.line("long " + fv + " = " + fexpr + ";");
            for (std::size_t pos = g.members.size(); pos-- > 0;) {
                w.line("const long " + digitVar(pos) + " = " + fv +
                       " % " + lit(g.extents[pos]) + ";");
                if (pos > 0)
                    w.line(fv + " /= " + lit(g.extents[pos]) + ";");
            }
        }
        for (std::size_t m = 0; m < M; ++m) {
            std::vector<std::string> terms;
            if (tStride(m, k) != 0)
                terms.push_back(term(tv, tStride(m, k)));
            if (alpha[m]) {
                if (*alpha[m] != 0)
                    terms.push_back(term("(" + fexpr + ")",
                                         *alpha[m]));
            } else {
                for (std::size_t pos = 0; pos < g.members.size();
                     ++pos) {
                    const std::int64_t c =
                        swCoeff(m, g.members[pos]);
                    if (c != 0)
                        terms.push_back(term(digitVar(pos), c));
                }
            }
            if (terms.empty())
                continue;
            const std::string name = pfx + "p" + std::to_string(m) +
                                     "_t" + std::to_string(k);
            w.line("const long " + name + " = " +
                   joinTerms(part[m], terms) + ";");
            part[m] = name;
        }
    }

    body(w, part);

    for (std::size_t k = 0; k < K; ++k)
        w.close();
    if (guarded)
        w.close();
    for (std::size_t a = 0; a < A; ++a)
        w.close();
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
    w.line(" * " + sanitizeComment(description));
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

    std::vector<const ExecPlan::Operand *> ops;
    for (std::size_t m = 0; m < nin; ++m)
        ops.push_back(&plan.directOperands()[m]);
    ops.push_back(&plan.directOperands().back());
    emitMappedNest(
        w, plan, ops, "d",
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
        std::vector<const ExecPlan::Operand *> ops;
        for (std::size_t m = 0; m < nin; ++m) {
            ops.push_back(&plan.directOperands()[m]);
            ops.push_back(&packed[m]);
        }
        emitMappedNest(
            w, plan, ops, "A",
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
        std::vector<const ExecPlan::Operand *> ops = {
            &packed.back(), &plan.directOperands().back()};
        emitMappedNest(
            w, plan, ops, "C",
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
