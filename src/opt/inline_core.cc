#include "opt/inline_core.h"

#include <iterator>

namespace pibe::opt {

namespace {

/** Remap a register from callee space into caller space. */
ir::Reg
remapReg(ir::Reg r, uint32_t reg_base)
{
    return r == ir::kNoReg ? ir::kNoReg : r + reg_base;
}

} // namespace

const char*
inlineRefusalReason(const ir::Module& module, ir::FuncId caller,
                    const ir::Instruction& call)
{
    if (call.op != ir::Opcode::kCall)
        return "not a direct call";
    const ir::Function& caller_f = module.func(caller);
    const ir::Function& callee_f = module.func(call.callee);
    if (callee_f.isDeclaration())
        return "callee is a declaration";
    if (callee_f.id == caller)
        return "self-recursive call";
    if (callee_f.hasAttr(ir::kAttrNoInline))
        return "callee is noinline";
    if (callee_f.hasAttr(ir::kAttrExternal))
        return "callee is external";
    if (callee_f.hasAttr(ir::kAttrOptNone))
        return "callee is optnone";
    if (caller_f.hasAttr(ir::kAttrOptNone))
        return "caller is optnone";
    return nullptr;
}

InlineOutcome
inlineCallSite(ir::Module& module, ir::FuncId caller, ir::SiteId site)
{
    InlineOutcome outcome;
    ir::Function& caller_f = module.func(caller);

    // Locate the call site.
    ir::BlockId call_bb = 0;
    uint32_t call_idx = 0;
    bool found = false;
    for (ir::BlockId b = 0; !found && b < caller_f.blocks.size(); ++b) {
        const auto& insts = caller_f.blocks[b].insts;
        for (uint32_t i = 0; i < insts.size(); ++i) {
            if (insts[i].site_id == site &&
                insts[i].op == ir::Opcode::kCall) {
                call_bb = b;
                call_idx = i;
                found = true;
                break;
            }
        }
    }
    if (!found) {
        outcome.reason = "site not found";
        return outcome;
    }

    // Copy the call instruction before we start rewriting the block.
    const ir::Instruction call = caller_f.blocks[call_bb].insts[call_idx];
    if (const char* reason = inlineRefusalReason(module, caller, call)) {
        outcome.reason = reason;
        return outcome;
    }

    const ir::Function& callee_f = module.func(call.callee);
    const uint32_t reg_base = caller_f.num_regs;
    const uint32_t frame_base = caller_f.frame_size;

    // 1. Continuation block receives everything after the call.
    const ir::BlockId cont_id =
        static_cast<ir::BlockId>(caller_f.blocks.size());
    caller_f.blocks.emplace_back();
    {
        auto& src = caller_f.blocks[call_bb].insts;
        auto& dst = caller_f.blocks[cont_id].insts;
        dst.assign(std::make_move_iterator(src.begin() + call_idx + 1),
                   std::make_move_iterator(src.end()));
        src.resize(call_idx); // drops the call itself as well
    }

    // 2. Copy the callee's blocks, remapping registers, frame slots,
    //    branch targets, and site ids.
    const ir::BlockId block_base =
        static_cast<ir::BlockId>(caller_f.blocks.size());
    for (const ir::BasicBlock& src_bb : callee_f.blocks) {
        ir::BasicBlock copy;
        copy.insts.reserve(src_bb.insts.size());
        for (const ir::Instruction& src : src_bb.insts) {
            ir::Instruction inst = src;
            inst.dst = remapReg(inst.dst, reg_base);
            inst.a = remapReg(inst.a, reg_base);
            inst.b = remapReg(inst.b, reg_base);
            for (ir::Reg& r : inst.args)
                r = remapReg(r, reg_base);
            switch (inst.op) {
              case ir::Opcode::kFrameLoad:
              case ir::Opcode::kFrameStore:
                inst.imm += frame_base;
                break;
              case ir::Opcode::kBr:
                inst.t0 += block_base;
                break;
              case ir::Opcode::kCondBr:
                inst.t0 += block_base;
                inst.t1 += block_base;
                break;
              case ir::Opcode::kSwitch:
                inst.t0 += block_base;
                for (ir::BlockId& t : inst.case_targets)
                    t += block_base;
                break;
              case ir::Opcode::kCall:
              case ir::Opcode::kICall: {
                const bool indirect = inst.op == ir::Opcode::kICall;
                ir::SiteId fresh = module.allocSiteId();
                outcome.inherited.push_back(
                    {fresh, inst.site_id, indirect,
                     indirect ? ir::kInvalidFunc : inst.callee});
                inst.site_id = fresh;
                break;
              }
              case ir::Opcode::kRet: {
                // Return becomes a move of the return value into the
                // call's destination plus a jump to the continuation.
                ir::Instruction res;
                if (call.dst != ir::kNoReg) {
                    if (inst.a != ir::kNoReg) {
                        res.op = ir::Opcode::kMove;
                        res.a = inst.a; // already remapped above
                    } else {
                        res.op = ir::Opcode::kConst;
                        res.imm = 0;
                    }
                    res.dst = call.dst;
                    copy.insts.push_back(res);
                }
                inst = ir::Instruction{};
                inst.op = ir::Opcode::kBr;
                inst.t0 = cont_id;
                break;
              }
              default:
                break;
            }
            copy.insts.push_back(std::move(inst));
        }
        caller_f.blocks.push_back(std::move(copy));
    }

    // 3. Bind arguments and enter the inlined body. Parameters occupy
    //    callee registers [0, num_params), i.e. caller registers
    //    [reg_base, reg_base + num_params).
    {
        auto& insts = caller_f.blocks[call_bb].insts;
        for (uint32_t p = 0; p < callee_f.num_params; ++p) {
            ir::Instruction mv;
            mv.op = ir::Opcode::kMove;
            mv.dst = reg_base + p;
            mv.a = call.args[p];
            insts.push_back(mv);
        }
        ir::Instruction br;
        br.op = ir::Opcode::kBr;
        br.t0 = block_base; // callee entry block is block 0
        insts.push_back(br);
    }

    caller_f.num_regs += callee_f.num_regs;
    caller_f.frame_size += callee_f.frame_size;

    outcome.ok = true;
    return outcome;
}

} // namespace pibe::opt
