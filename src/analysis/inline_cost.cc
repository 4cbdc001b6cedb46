#include "analysis/inline_cost.h"

namespace pibe::analysis {

int64_t
instructionCost(const ir::Instruction& inst)
{
    using ir::Opcode;
    switch (inst.op) {
      case Opcode::kConst:
      case Opcode::kMove:
        return 0; // Typically folded away by the backend.
      case Opcode::kCall:
      case Opcode::kICall:
        return kInstrCost +
               kInstrCost * static_cast<int64_t>(inst.operand_count);
      case Opcode::kSwitch:
        return kInstrCost +
               2 * static_cast<int64_t>(inst.operand_count);
      default:
        return kInstrCost;
    }
}

int64_t
functionCost(const ir::Function& func)
{
    int64_t total = 0;
    for (const auto& bb : func.blocks) {
        for (const auto& inst : bb.insts)
            total += instructionCost(inst);
    }
    return total;
}

InlineCostCache::InlineCostCache(const ir::Module& module)
    : module_(module), cost_(module.numFunctions(), -1)
{
}

int64_t
InlineCostCache::cost(ir::FuncId f)
{
    PIBE_ASSERT(f < cost_.size(), "InlineCostCache: bad func id");
    if (cost_[f] < 0)
        cost_[f] = functionCost(module_.func(f));
    return cost_[f];
}

void
InlineCostCache::invalidate(ir::FuncId f)
{
    PIBE_ASSERT(f < cost_.size(), "InlineCostCache: bad func id");
    cost_[f] = -1;
}

} // namespace pibe::analysis
