#include "ir/printer.h"

#include <charconv>
#include <concepts>
#include <span>
#include <string_view>
#include <vector>

namespace pibe::ir {

const char*
binKindName(BinKind kind)
{
    switch (kind) {
      case BinKind::kAdd: return "add";
      case BinKind::kSub: return "sub";
      case BinKind::kMul: return "mul";
      case BinKind::kDiv: return "div";
      case BinKind::kRem: return "rem";
      case BinKind::kAnd: return "and";
      case BinKind::kOr:  return "or";
      case BinKind::kXor: return "xor";
      case BinKind::kShl: return "shl";
      case BinKind::kShr: return "shr";
      case BinKind::kEq:  return "eq";
      case BinKind::kNe:  return "ne";
      case BinKind::kLt:  return "lt";
      case BinKind::kLe:  return "le";
      case BinKind::kGt:  return "gt";
      case BinKind::kGe:  return "ge";
    }
    return "?";
}

const char*
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::kConst:      return "const";
      case Opcode::kMove:       return "move";
      case Opcode::kBinOp:      return "binop";
      case Opcode::kFuncAddr:   return "funcaddr";
      case Opcode::kLoad:       return "load";
      case Opcode::kStore:      return "store";
      case Opcode::kFrameLoad:  return "frameload";
      case Opcode::kFrameStore: return "framestore";
      case Opcode::kCall:       return "call";
      case Opcode::kICall:      return "icall";
      case Opcode::kRet:        return "ret";
      case Opcode::kBr:         return "br";
      case Opcode::kCondBr:     return "condbr";
      case Opcode::kSwitch:     return "switch";
      case Opcode::kSink:       return "sink";
    }
    return "?";
}

const char*
fwdSchemeName(FwdScheme scheme)
{
    switch (scheme) {
      case FwdScheme::kNone:            return "none";
      case FwdScheme::kRetpoline:       return "retpoline";
      case FwdScheme::kLviCfi:          return "lvi-cfi";
      case FwdScheme::kFencedRetpoline: return "fenced-retpoline";
      case FwdScheme::kJumpSwitch:      return "jump-switch";
    }
    return "?";
}

const char*
retSchemeName(RetScheme scheme)
{
    switch (scheme) {
      case RetScheme::kNone:            return "none";
      case RetScheme::kReturnRetpoline: return "return-retpoline";
      case RetScheme::kLviRet:          return "lvi-ret";
      case RetScheme::kFencedRet:       return "fenced-ret";
    }
    return "?";
}

namespace {

/** A register operand: "rN", or "_" for kNoReg. */
struct RegName
{
    Reg reg;
};

void
put(std::string& out, std::string_view text)
{
    out += text;
}

void
put(std::string& out, char c)
{
    out += c;
}

template <std::integral Int>
void
put(std::string& out, Int value)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void
put(std::string& out, RegName r)
{
    if (r.reg == kNoReg) {
        out += '_';
        return;
    }
    out += 'r';
    put(out, r.reg);
}

/** Append every part to `out`, in order. */
template <typename... Parts>
void
append(std::string& out, const Parts&... parts)
{
    (put(out, parts), ...);
}

void
appendArgs(std::string& out, std::span<const Reg> args)
{
    out += '(';
    for (size_t i = 0; i < args.size(); ++i)
        append(out, i ? ", " : "", RegName{args[i]});
    out += ')';
}

void
appendFwdAnnotations(std::string& out, const Instruction& inst)
{
    if (inst.is_asm)
        out += " !asm";
    if (inst.fwd_scheme != FwdScheme::kNone)
        append(out, " !", fwdSchemeName(inst.fwd_scheme));
}

void
appendInstruction(std::string& out, const Module& m, const Function& f,
                  const Instruction& inst)
{
    const RegName dst{inst.dst};
    const RegName a{inst.a};
    const RegName b{inst.b};
    switch (inst.op) {
      case Opcode::kConst:
        append(out, dst, " = const ", inst.imm);
        break;
      case Opcode::kMove:
        append(out, dst, " = move ", a);
        break;
      case Opcode::kBinOp:
        append(out, dst, " = ", binKindName(inst.bin), ' ', a, ", ", b);
        break;
      case Opcode::kFuncAddr:
        append(out, dst, " = funcaddr @", m.func(inst.callee).name);
        break;
      case Opcode::kLoad:
        append(out, dst, " = load @", m.global(inst.global).name, '[', a,
               " + ", inst.imm, ']');
        break;
      case Opcode::kStore:
        append(out, "store @", m.global(inst.global).name, '[', a, " + ",
               inst.imm, "] = ", b);
        break;
      case Opcode::kFrameLoad:
        append(out, dst, " = frame[", inst.imm, ']');
        break;
      case Opcode::kFrameStore:
        append(out, "frame[", inst.imm, "] = ", a);
        break;
      case Opcode::kCall:
        append(out, dst, " = call @", m.func(inst.callee).name);
        appendArgs(out, f.args(inst));
        break;
      case Opcode::kICall:
        append(out, dst, " = icall ", a);
        appendArgs(out, f.args(inst));
        appendFwdAnnotations(out, inst);
        break;
      case Opcode::kRet:
        out += "ret";
        if (inst.a != kNoReg)
            append(out, ' ', a);
        if (inst.ret_scheme != RetScheme::kNone)
            append(out, " !", retSchemeName(inst.ret_scheme));
        break;
      case Opcode::kBr:
        append(out, "br bb", inst.t0);
        break;
      case Opcode::kCondBr:
        append(out, "condbr ", a, ", bb", inst.t0, ", bb", inst.t1);
        break;
      case Opcode::kSwitch:
        append(out, "switch ", a, " default bb", inst.t0);
        for (const SwitchCase& c : f.cases(inst))
            append(out, ", ", c.value, "->bb", c.target);
        appendFwdAnnotations(out, inst);
        break;
      case Opcode::kSink:
        append(out, "sink ", a);
        break;
    }
    if (inst.site_id != kNoSite)
        append(out, " !site ", inst.site_id);
}

void
appendFunction(std::string& out, const Module& m, const Function& f)
{
    append(out, "func @", f.name, "(params=", f.num_params,
           ", regs=", f.num_regs, ", frame=", f.frame_size, ')');
    if (f.hasAttr(kAttrNoInline))
        out += " noinline";
    if (f.hasAttr(kAttrOptNone))
        out += " optnone";
    if (f.hasAttr(kAttrBootSection))
        out += " boot";
    if (f.hasAttr(kAttrExternal))
        out += " external";
    out += " {\n";
    for (BlockId b = 0; b < f.blocks.size(); ++b) {
        append(out, "bb", b, ":\n");
        for (const auto& inst : f.blocks[b].insts) {
            out += "    ";
            appendInstruction(out, m, f, inst);
            out += '\n';
        }
    }
    out += "}\n";
}

} // namespace

std::string
printInstruction(const Module& m, const Function& f,
                 const Instruction& inst)
{
    std::string out;
    appendInstruction(out, m, f, inst);
    return out;
}

std::string
printFunction(const Module& m, const Function& f)
{
    std::string out;
    appendFunction(out, m, f);
    return out;
}

std::string
printModule(const Module& m)
{
    std::string out;
    for (const Global& g : m.globals()) {
        append(out, "global @", g.name, '[', g.init.size(), ']');
        // Sparse initializer dump: only non-zero slots.
        bool any = false;
        for (size_t i = 0; i < g.init.size(); ++i) {
            if (g.init[i] == 0)
                continue;
            append(out, any ? ", " : " { ", i, ": ", g.init[i]);
            any = true;
        }
        if (any)
            out += " }";
        out += '\n';
    }
    for (const Function& f : m.functions())
        appendFunction(out, m, f);
    // Callers keep module text for long (caches, the serve daemon):
    // return it without the slack left by the string's growth.
    out.shrink_to_fit();
    return out;
}

} // namespace pibe::ir
