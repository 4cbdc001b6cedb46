#include "opt/cleanup.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace pibe::opt {

namespace {

/** Evaluate a binary operator; returns false if undefined (div by 0). */
bool
evalBinOp(ir::BinKind kind, int64_t a, int64_t b, int64_t* out)
{
    using ir::BinKind;
    const auto ua = static_cast<uint64_t>(a);
    const auto ub = static_cast<uint64_t>(b);
    switch (kind) {
      case BinKind::kAdd: *out = static_cast<int64_t>(ua + ub); return true;
      case BinKind::kSub: *out = static_cast<int64_t>(ua - ub); return true;
      case BinKind::kMul: *out = static_cast<int64_t>(ua * ub); return true;
      case BinKind::kDiv:
        if (b == 0)
            return false;
        *out = static_cast<int64_t>(ua / ub);
        return true;
      case BinKind::kRem:
        if (b == 0)
            return false;
        *out = static_cast<int64_t>(ua % ub);
        return true;
      case BinKind::kAnd: *out = a & b; return true;
      case BinKind::kOr:  *out = a | b; return true;
      case BinKind::kXor: *out = a ^ b; return true;
      case BinKind::kShl: *out = static_cast<int64_t>(ua << (ub & 63));
        return true;
      case BinKind::kShr: *out = static_cast<int64_t>(ua >> (ub & 63));
        return true;
      case BinKind::kEq:  *out = (a == b); return true;
      case BinKind::kNe:  *out = (a != b); return true;
      case BinKind::kLt:  *out = (a < b); return true;
      case BinKind::kLe:  *out = (a <= b); return true;
      case BinKind::kGt:  *out = (a > b); return true;
      case BinKind::kGe:  *out = (a >= b); return true;
    }
    return false;
}

} // namespace

bool
constantFold(ir::Function& func)
{
    bool changed = false;
    for (auto& bb : func.blocks) {
        // Facts are block-local: registers are function-scoped, so a
        // value flowing in from another block is unknown here.
        std::unordered_map<ir::Reg, int64_t> known;
        auto lookup = [&](ir::Reg r, int64_t* v) {
            auto it = known.find(r);
            if (it == known.end())
                return false;
            *v = it->second;
            return true;
        };
        auto clobber = [&](const ir::Instruction& inst) {
            if (inst.hasDst())
                known.erase(inst.dst);
        };

        for (auto& inst : bb.insts) {
            switch (inst.op) {
              case ir::Opcode::kConst:
                known[inst.dst] = inst.imm;
                break;
              case ir::Opcode::kFuncAddr:
                known[inst.dst] = ir::funcAddrValue(inst.callee);
                break;
              case ir::Opcode::kMove: {
                int64_t v;
                if (lookup(inst.a, &v)) {
                    inst.op = ir::Opcode::kConst;
                    inst.imm = v;
                    inst.a = ir::kNoReg;
                    known[inst.dst] = v;
                    changed = true;
                } else {
                    clobber(inst);
                }
                break;
              }
              case ir::Opcode::kBinOp: {
                int64_t a, b, v;
                if (lookup(inst.a, &a) && lookup(inst.b, &b) &&
                    evalBinOp(inst.bin, a, b, &v)) {
                    inst.op = ir::Opcode::kConst;
                    inst.imm = v;
                    inst.a = inst.b = ir::kNoReg;
                    known[inst.dst] = v;
                    changed = true;
                } else {
                    clobber(inst);
                }
                break;
              }
              case ir::Opcode::kCondBr: {
                int64_t c;
                if (lookup(inst.a, &c)) {
                    inst.op = ir::Opcode::kBr;
                    inst.t0 = (c != 0) ? inst.t0 : inst.t1;
                    inst.a = ir::kNoReg;
                    inst.t1 = 0;
                    changed = true;
                }
                break;
              }
              case ir::Opcode::kSwitch: {
                int64_t v;
                if (lookup(inst.a, &v)) {
                    ir::BlockId target = inst.t0;
                    for (const ir::SwitchCase& c : func.cases(inst)) {
                        if (c.value == v) {
                            target = c.target;
                            break;
                        }
                    }
                    inst = ir::Instruction{};
                    inst.op = ir::Opcode::kBr;
                    inst.t0 = target;
                    changed = true;
                }
                break;
              }
              default:
                clobber(inst);
                break;
            }
        }
    }
    return changed;
}

bool
copyPropagate(ir::Function& func)
{
    bool changed = false;
    std::unordered_map<ir::Reg, ir::Reg> copy_of;
    auto resolve = [&](ir::Reg r) {
        auto it = copy_of.find(r);
        return it == copy_of.end() ? r : it->second;
    };
    for (auto& bb : func.blocks) {
        copy_of.clear();
        for (auto& inst : bb.insts) {
            // Rewrite operand uses through known copies.
            auto rewrite = [&](ir::Reg& r) {
                if (r == ir::kNoReg)
                    return;
                ir::Reg to = resolve(r);
                if (to != r) {
                    r = to;
                    changed = true;
                }
            };
            rewrite(inst.a);
            rewrite(inst.b);
            for (ir::Reg& r : func.args(inst))
                rewrite(r);

            // Record / invalidate facts for the written register.
            if (inst.hasDst()) {
                copy_of.erase(inst.dst);
                for (auto it = copy_of.begin(); it != copy_of.end();) {
                    if (it->second == inst.dst)
                        it = copy_of.erase(it);
                    else
                        ++it;
                }
                if (inst.op == ir::Opcode::kMove &&
                    inst.a != inst.dst) {
                    copy_of[inst.dst] = inst.a; // a is already resolved
                }
            }
        }
    }
    return changed;
}

bool
deadCodeElim(ir::Function& func)
{
    bool any_change = false;
    bool changed = true;
    while (changed) {
        changed = false;
        std::vector<uint32_t> uses(func.num_regs, 0);
        auto use = [&](ir::Reg r) {
            if (r != ir::kNoReg)
                ++uses[r];
        };
        for (const auto& bb : func.blocks) {
            for (const auto& inst : bb.insts) {
                use(inst.a);
                use(inst.b);
                for (ir::Reg r : func.args(inst))
                    use(r);
            }
        }
        for (auto& bb : func.blocks) {
            auto it = std::remove_if(
                bb.insts.begin(), bb.insts.end(),
                [&](const ir::Instruction& inst) {
                    return inst.hasDst() && uses[inst.dst] == 0 &&
                           !inst.hasSideEffects();
                });
            if (it != bb.insts.end()) {
                bb.insts.erase(it, bb.insts.end());
                changed = true;
                any_change = true;
            }
        }
    }
    return any_change;
}

namespace {

/** Append every successor of `term`, a terminator of `func`, to
 *  `out`. */
void
successors(const ir::Function& func, const ir::Instruction& term,
           std::vector<ir::BlockId>* out)
{
    switch (term.op) {
      case ir::Opcode::kBr:
        out->push_back(term.t0);
        break;
      case ir::Opcode::kCondBr:
        out->push_back(term.t0);
        out->push_back(term.t1);
        break;
      case ir::Opcode::kSwitch:
        out->push_back(term.t0);
        for (const ir::SwitchCase& c : func.cases(term))
            out->push_back(c.target);
        break;
      default:
        break;
    }
}

/** Retarget every successor reference of `term`, a terminator of
 *  `func`, using `map`. Returns true if any target changed. */
bool
retarget(ir::Function& func, ir::Instruction& term,
         const std::vector<ir::BlockId>& map)
{
    bool changed = false;
    auto redirect = [&](ir::BlockId& t) {
        changed |= map[t] != t;
        t = map[t];
    };
    switch (term.op) {
      case ir::Opcode::kBr:
        redirect(term.t0);
        break;
      case ir::Opcode::kCondBr:
        redirect(term.t0);
        redirect(term.t1);
        break;
      case ir::Opcode::kSwitch:
        redirect(term.t0);
        for (ir::SwitchCase& c : func.cases(term))
            redirect(c.target);
        break;
      default:
        break;
    }
    return changed;
}

} // namespace

bool
simplifyCfg(ir::Function& func)
{
    if (func.blocks.empty())
        return false;
    bool any_change = false;

    // 1. Thread jumps through blocks that contain only "br X".
    {
        std::vector<ir::BlockId> forward(func.blocks.size());
        for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
            forward[b] = b;
            const auto& insts = func.blocks[b].insts;
            if (insts.size() == 1 && insts[0].op == ir::Opcode::kBr &&
                insts[0].t0 != b) {
                forward[b] = insts[0].t0;
            }
        }
        // Resolve chains (bounded to avoid cycles of trivial blocks).
        for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
            ir::BlockId t = forward[b];
            for (int hops = 0; hops < 8 && forward[t] != t; ++hops)
                t = forward[t];
            forward[b] = t;
        }
        for (auto& bb : func.blocks) {
            if (bb.insts.empty())
                continue;
            if (retarget(func, bb.insts.back(), forward))
                any_change = true;
        }
    }

    // 2. Merge blocks with a unique predecessor into that predecessor.
    {
        bool merged = true;
        while (merged) {
            merged = false;
            std::vector<uint32_t> preds(func.blocks.size(), 0);
            std::vector<ir::BlockId> succ;
            for (const auto& bb : func.blocks) {
                if (bb.insts.empty())
                    continue;
                succ.clear();
                successors(func, bb.insts.back(), &succ);
                for (ir::BlockId s : succ)
                    ++preds[s];
            }
            for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
                auto& bb = func.blocks[b];
                if (bb.insts.empty())
                    continue;
                const ir::Instruction& term = bb.insts.back();
                if (term.op != ir::Opcode::kBr)
                    continue;
                ir::BlockId t = term.t0;
                if (t == b || t == 0 || preds[t] != 1)
                    continue;
                // Splice t into b.
                bb.insts.pop_back();
                auto& src = func.blocks[t].insts;
                bb.insts.insert(bb.insts.end(),
                                std::make_move_iterator(src.begin()),
                                std::make_move_iterator(src.end()));
                src.clear();
                merged = true;
                any_change = true;
                break; // pred counts are stale; recompute
            }
        }
    }

    // 3. Remove unreachable (and emptied) blocks, renumbering.
    {
        std::vector<bool> reachable(func.blocks.size(), false);
        std::vector<ir::BlockId> work{0};
        reachable[0] = true;
        std::vector<ir::BlockId> succ;
        while (!work.empty()) {
            ir::BlockId b = work.back();
            work.pop_back();
            const auto& bb = func.blocks[b];
            if (bb.insts.empty())
                continue;
            succ.clear();
            successors(func, bb.insts.back(), &succ);
            for (ir::BlockId s : succ) {
                if (!reachable[s]) {
                    reachable[s] = true;
                    work.push_back(s);
                }
            }
        }
        bool all = true;
        for (ir::BlockId b = 0; b < func.blocks.size(); ++b)
            all = all && reachable[b];
        if (!all) {
            std::vector<ir::BlockId> remap(func.blocks.size(), 0);
            std::vector<ir::BasicBlock> kept;
            for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
                if (reachable[b]) {
                    remap[b] = static_cast<ir::BlockId>(kept.size());
                    kept.push_back(std::move(func.blocks[b]));
                }
            }
            for (auto& bb : kept) {
                if (!bb.insts.empty())
                    retarget(func, bb.insts.back(), remap);
            }
            func.blocks = std::move(kept);
            any_change = true;
        }
    }

    return any_change;
}

void
cleanupFunction(ir::Function& func)
{
    if (func.isDeclaration() || func.hasAttr(ir::kAttrOptNone))
        return;
    for (int round = 0; round < 3; ++round) {
        bool changed = false;
        changed |= constantFold(func);
        changed |= copyPropagate(func);
        changed |= deadCodeElim(func);
        changed |= simplifyCfg(func);
        if (!changed)
            break;
    }
}

void
cleanupModule(ir::Module& module)
{
    for (ir::Function& f : module.functions())
        cleanupFunction(f);
}

} // namespace pibe::opt
