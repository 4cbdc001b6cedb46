#include "opt/jump_tables.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "support/logging.h"

namespace pibe::opt {

namespace {

/**
 * Emit a compare tree for cases[lo, hi) into block `bb` of `f`.
 * The block is filled with compares/branches; subtree blocks are
 * appended to the function as needed.
 */
void
emitTree(ir::Function& f, ir::BlockId bb, ir::Reg value,
         const std::vector<ir::SwitchCase>& cases, size_t lo, size_t hi,
         ir::BlockId default_target, uint32_t linear_limit)
{
    auto& insts = f.blocks[bb].insts;
    const size_t n = hi - lo;
    if (n <= linear_limit) {
        // Linear chain: eq-compare each case, fall through to default.
        ir::BlockId cur = bb;
        for (size_t i = lo; i < hi; ++i) {
            ir::Instruction cst;
            cst.op = ir::Opcode::kConst;
            cst.dst = f.num_regs++;
            cst.imm = cases[i].value;

            ir::Instruction cmp;
            cmp.op = ir::Opcode::kBinOp;
            cmp.bin = ir::BinKind::kEq;
            cmp.dst = f.num_regs++;
            cmp.a = value;
            cmp.b = cst.dst;

            const bool last = (i + 1 == hi);
            ir::BlockId next = default_target;
            if (!last) {
                next = static_cast<ir::BlockId>(f.blocks.size());
                f.blocks.emplace_back();
            }

            ir::Instruction br;
            br.op = ir::Opcode::kCondBr;
            br.a = cmp.dst;
            br.t0 = cases[i].target;
            br.t1 = next;

            auto& cur_insts = f.blocks[cur].insts;
            cur_insts.push_back(cst);
            cur_insts.push_back(cmp);
            cur_insts.push_back(br);
            cur = next;
        }
        return;
    }
    (void)insts;

    // Binary search: split at the median case value.
    const size_t mid = lo + n / 2;
    const ir::BlockId left = static_cast<ir::BlockId>(f.blocks.size());
    f.blocks.emplace_back();
    const ir::BlockId right = static_cast<ir::BlockId>(f.blocks.size());
    f.blocks.emplace_back();

    ir::Instruction cst;
    cst.op = ir::Opcode::kConst;
    cst.dst = f.num_regs++;
    cst.imm = cases[mid].value;

    ir::Instruction cmp;
    cmp.op = ir::Opcode::kBinOp;
    cmp.bin = ir::BinKind::kLt;
    cmp.dst = f.num_regs++;
    cmp.a = value;
    cmp.b = cst.dst;

    ir::Instruction br;
    br.op = ir::Opcode::kCondBr;
    br.a = cmp.dst;
    br.t0 = left;
    br.t1 = right;

    auto& bb_insts = f.blocks[bb].insts;
    bb_insts.push_back(cst);
    bb_insts.push_back(cmp);
    bb_insts.push_back(br);

    emitTree(f, left, value, cases, lo, mid, default_target, linear_limit);
    emitTree(f, right, value, cases, mid, hi, default_target, linear_limit);
}

} // namespace

uint32_t
lowerJumpTablesInFunction(ir::Function& f, uint32_t linear_limit)
{
    PIBE_ASSERT(linear_limit >= 1, "linear_limit must be >= 1");
    uint32_t lowered = 0;
    // Block count grows during lowering; only visit originals.
    const size_t original_blocks = f.blocks.size();
    for (size_t b = 0; b < original_blocks; ++b) {
        if (f.blocks[b].insts.empty())
            continue;
        const ir::Instruction term = f.blocks[b].insts.back();
        if (term.op != ir::Opcode::kSwitch || term.is_asm)
            continue;
        // Sort cases by value so the binary search is well-formed. The
        // switch's pool range is dead once it is lowered.
        const std::span<const ir::SwitchCase> arms = f.cases(term);
        std::vector<ir::SwitchCase> cases(arms.begin(), arms.end());
        std::sort(cases.begin(), cases.end(),
                  [](const ir::SwitchCase& x, const ir::SwitchCase& y) {
                      return x.value < y.value;
                  });

        f.blocks[b].insts.pop_back();
        if (cases.empty()) {
            ir::Instruction br;
            br.op = ir::Opcode::kBr;
            br.t0 = term.t0;
            f.blocks[b].insts.push_back(br);
        } else {
            emitTree(f, static_cast<ir::BlockId>(b), term.a, cases, 0,
                     cases.size(), term.t0, linear_limit);
        }
        ++lowered;
    }
    return lowered;
}

uint32_t
lowerJumpTables(ir::Module& module, uint32_t linear_limit)
{
    uint32_t lowered = 0;
    for (ir::Function& f : module.functions())
        lowered += lowerJumpTablesInFunction(f, linear_limit);
    return lowered;
}

uint32_t
countSwitches(const ir::Module& module)
{
    uint32_t count = 0;
    for (const ir::Function& f : module.functions()) {
        for (const auto& bb : f.blocks) {
            for (const auto& inst : bb.insts) {
                if (inst.op == ir::Opcode::kSwitch)
                    ++count;
            }
        }
    }
    return count;
}

} // namespace pibe::opt
