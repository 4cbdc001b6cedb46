#include "analysis/layout.h"

namespace pibe::analysis {

namespace {

/** Extra bytes at the indirect-call site for each forward scheme. */
uint32_t
fwdSchemeBytes(ir::FwdScheme scheme)
{
    switch (scheme) {
      case ir::FwdScheme::kNone:            return 0;
      case ir::FwdScheme::kRetpoline:       return 5;  // call thunk
      case ir::FwdScheme::kLviCfi:          return 5;  // call thunk
      case ir::FwdScheme::kFencedRetpoline: return 8;  // call thunk + setup
      case ir::FwdScheme::kJumpSwitch:      return 24; // inline check slots
    }
    return 0;
}

/** Extra bytes at the return site for each backward scheme. */
uint32_t
retSchemeBytes(ir::RetScheme scheme)
{
    switch (scheme) {
      case ir::RetScheme::kNone:            return 0;
      case ir::RetScheme::kReturnRetpoline: return 15; // inlined thunk
      case ir::RetScheme::kLviRet:          return 7;  // pop+lfence+jmp
      case ir::RetScheme::kFencedRet:       return 21; // Listing 7 tail
    }
    return 0;
}

/** Shared (once-per-image) thunk bodies: retpoline loops etc. */
constexpr uint64_t kSharedThunkBytes = 256;

/** Function alignment in the text section. */
constexpr uint64_t kFuncAlign = 16;

} // namespace

uint32_t
instByteSize(const ir::Instruction& inst)
{
    using ir::Opcode;
    switch (inst.op) {
      case Opcode::kConst:      return 5;  // mov $imm, r
      case Opcode::kMove:       return 3;  // mov r, r
      case Opcode::kBinOp:      return 4;
      case Opcode::kFuncAddr:   return 7;  // lea sym(%rip), r
      case Opcode::kLoad:       return 5;
      case Opcode::kStore:      return 5;
      case Opcode::kFrameLoad:  return 4;
      case Opcode::kFrameStore: return 4;
      case Opcode::kCall:
        return 5 + 2 * inst.operand_count;
      case Opcode::kICall:
        return 3 + 2 * inst.operand_count +
               fwdSchemeBytes(inst.fwd_scheme);
      case Opcode::kRet:
        return 1 + retSchemeBytes(inst.ret_scheme);
      case Opcode::kBr:         return 2;
      case Opcode::kCondBr:     return 4;  // test + jcc
      case Opcode::kSwitch:
        // Bounds check + indexed jump + 8-byte table entries.
        return 10 + 8 * inst.operand_count +
               fwdSchemeBytes(inst.fwd_scheme);
      case Opcode::kSink:       return 3;
    }
    return 4;
}

uint64_t
imageSizeOf(const ir::Module& module)
{
    uint64_t cursor = kSharedThunkBytes;
    for (const ir::Function& f : module.functions()) {
        cursor = (cursor + kFuncAlign - 1) & ~(kFuncAlign - 1);
        for (const ir::BasicBlock& bb : f.blocks) {
            for (const auto& inst : bb.insts)
                cursor += instByteSize(inst);
        }
    }
    return cursor;
}

CodeLayout::CodeLayout(const ir::Module& module)
{
    funcs_.resize(module.numFunctions());
    uint64_t cursor = kSharedThunkBytes;
    for (const ir::Function& f : module.functions()) {
        cursor = (cursor + kFuncAlign - 1) & ~(kFuncAlign - 1);
        FuncLayout& fl = funcs_[f.id];
        fl.base = cursor;
        fl.offsets.reserve(f.instructionCount() + 1);
        fl.block_first.reserve(f.blocks.size() + 1);
        uint32_t offset = 0;
        for (const ir::BasicBlock& bb : f.blocks) {
            fl.block_first.push_back(
                static_cast<uint32_t>(fl.offsets.size()));
            for (const auto& inst : bb.insts) {
                fl.offsets.push_back(offset);
                offset += instByteSize(inst);
            }
        }
        fl.block_first.push_back(
            static_cast<uint32_t>(fl.offsets.size()));
        fl.offsets.push_back(offset); // end-of-function sentinel
        cursor += offset;
    }
    image_size_ = cursor;
}

uint64_t
CodeLayout::funcBase(ir::FuncId f) const
{
    PIBE_ASSERT(f < funcs_.size(), "funcBase: bad func id");
    return funcs_[f].base;
}

uint64_t
CodeLayout::blockStart(ir::FuncId f, ir::BlockId b) const
{
    PIBE_ASSERT(f < funcs_.size() &&
                    b + 1 < funcs_[f].block_first.size(),
                "blockStart: bad ref");
    // A block's first offset; an empty block shares its successor's
    // start, and the trailing offsets entry covers the last block.
    return funcs_[f].base +
           funcs_[f].offsets[funcs_[f].block_first[b]];
}

uint64_t
CodeLayout::blockEnd(ir::FuncId f, ir::BlockId b) const
{
    PIBE_ASSERT(f < funcs_.size() &&
                    b + 1 < funcs_[f].block_first.size(),
                "blockEnd: bad ref");
    return funcs_[f].base +
           funcs_[f].offsets[funcs_[f].block_first[b + 1]];
}

uint64_t
CodeLayout::instAddr(ir::FuncId f, ir::BlockId b, uint32_t idx) const
{
    PIBE_ASSERT(f < funcs_.size() &&
                    b + 1 < funcs_[f].block_first.size() &&
                    funcs_[f].block_first[b] + idx <
                        funcs_[f].block_first[b + 1],
                "instAddr: bad ref");
    return funcs_[f].base +
           funcs_[f].offsets[funcs_[f].block_first[b] + idx];
}

const std::vector<uint32_t>&
CodeLayout::instOffsets(ir::FuncId f) const
{
    PIBE_ASSERT(f < funcs_.size(), "instOffsets: bad func id");
    return funcs_[f].offsets;
}

const std::vector<uint32_t>&
CodeLayout::blockFirstInst(ir::FuncId f) const
{
    PIBE_ASSERT(f < funcs_.size(), "blockFirstInst: bad func id");
    return funcs_[f].block_first;
}

uint64_t
CodeLayout::residentTextSize() const
{
    // Kernel text is mapped at large-page granularity; scaled to
    // 256 KiB for the synthetic kernel's size (Linux uses 2 MiB pages
    // over a ~25 MiB text, a similar page-to-image ratio).
    constexpr uint64_t kLargePage = 256ull << 10;
    return (image_size_ + kLargePage - 1) / kLargePage * kLargePage;
}

} // namespace pibe::analysis
