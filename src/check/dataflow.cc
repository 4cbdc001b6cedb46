#include "check/dataflow.h"

#include <algorithm>
#include <deque>
#include <span>

namespace pibe::check {

DataflowResult
solveDataflow(const Cfg& cfg, Direction dir, Meet meet, size_t universe,
              const std::vector<GenKill>& transfer,
              const BitVector& boundary)
{
    const size_t n = cfg.numBlocks();
    PIBE_ASSERT(transfer.size() == n, "transfer/block count mismatch");

    DataflowResult r;
    const bool intersect = meet == Meet::kIntersect;
    // Interior blocks start at the lattice identity of the meet: empty
    // for union (bottom), full for intersect (top).
    r.in.assign(n, BitVector(universe, intersect));
    r.out.assign(n, BitVector(universe, intersect));

    const std::vector<ir::BlockId>& rpo = cfg.reversePostOrder();
    // Forward problems converge fastest in RPO, backward ones in
    // post-order; seed the worklist accordingly.
    std::deque<ir::BlockId> worklist;
    if (dir == Direction::kForward)
        worklist.assign(rpo.begin(), rpo.end());
    else
        worklist.assign(rpo.rbegin(), rpo.rend());
    std::vector<bool> queued(n, false);
    for (ir::BlockId b : worklist)
        queued[b] = true;

    auto edgesIn = [&](ir::BlockId b) -> const std::vector<ir::BlockId>& {
        return dir == Direction::kForward ? cfg.preds(b) : cfg.succs(b);
    };
    auto edgesOut = [&](ir::BlockId b) -> const std::vector<ir::BlockId>& {
        return dir == Direction::kForward ? cfg.succs(b) : cfg.preds(b);
    };
    auto isBoundary = [&](ir::BlockId b) {
        if (dir == Direction::kForward)
            return b == 0;
        return cfg.succs(b).empty();
    };

    while (!worklist.empty()) {
        const ir::BlockId b = worklist.front();
        worklist.pop_front();
        queued[b] = false;
        ++r.iterations;

        // Meet over incoming edges; boundary blocks meet the seed too.
        BitVector in(universe, intersect);
        bool have_any = false;
        auto meetWith = [&](const BitVector& v) {
            if (!have_any) {
                in = v;
                have_any = true;
            } else if (intersect) {
                in.intersectWith(v);
            } else {
                in.unionWith(v);
            }
        };
        if (isBoundary(b))
            meetWith(boundary);
        for (ir::BlockId e : edgesIn(b)) {
            if (cfg.isReachable(e))
                meetWith(r.out[e]);
        }
        r.in[b] = in;

        BitVector out = in;
        out.transfer(transfer[b].gen, transfer[b].kill);
        if (out == r.out[b])
            continue;
        r.out[b] = std::move(out);
        for (ir::BlockId e : edgesOut(b)) {
            if (!queued[e] && cfg.isReachable(e)) {
                queued[e] = true;
                worklist.push_back(e);
            }
        }
    }
    return r;
}

ir::Reg
instrDef(const ir::Instruction& inst)
{
    switch (inst.op) {
      case ir::Opcode::kConst:
      case ir::Opcode::kMove:
      case ir::Opcode::kBinOp:
      case ir::Opcode::kFuncAddr:
      case ir::Opcode::kLoad:
      case ir::Opcode::kFrameLoad:
      case ir::Opcode::kCall:
      case ir::Opcode::kICall:
        return inst.dst;
      default:
        return ir::kNoReg;
    }
}

void
appendUses(const ir::Function& func, const ir::Instruction& inst,
           std::vector<ir::Reg>& uses)
{
    switch (inst.op) {
      case ir::Opcode::kConst:
      case ir::Opcode::kFuncAddr:
      case ir::Opcode::kFrameLoad:
      case ir::Opcode::kBr:
        break;
      case ir::Opcode::kMove:
      case ir::Opcode::kFrameStore:
      case ir::Opcode::kCondBr:
      case ir::Opcode::kSwitch:
      case ir::Opcode::kSink:
        uses.push_back(inst.a);
        break;
      case ir::Opcode::kBinOp:
      case ir::Opcode::kStore:
        uses.push_back(inst.a);
        uses.push_back(inst.b);
        break;
      case ir::Opcode::kLoad:
        uses.push_back(inst.a);
        break;
      case ir::Opcode::kCall: {
        const std::span<const ir::Reg> args = func.args(inst);
        uses.insert(uses.end(), args.begin(), args.end());
        break;
      }
      case ir::Opcode::kICall: {
        uses.push_back(inst.a);
        const std::span<const ir::Reg> args = func.args(inst);
        uses.insert(uses.end(), args.begin(), args.end());
        break;
      }
      case ir::Opcode::kRet:
        if (inst.a != ir::kNoReg)
            uses.push_back(inst.a);
        break;
    }
}

// --- Liveness -------------------------------------------------------

Liveness::Liveness(const ir::Function& func, const Cfg& cfg)
    : func_(func)
{
    const size_t universe = func.num_regs;
    std::vector<GenKill> transfer(func.blocks.size());
    std::vector<ir::Reg> uses;
    for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
        GenKill& t = transfer[b];
        t.gen = BitVector(universe);
        t.kill = BitVector(universe);
        // Backward transfer composed forward: a use is upward-exposed
        // (gen) only if no earlier def in the block killed it.
        for (const ir::Instruction& inst : func.blocks[b].insts) {
            uses.clear();
            appendUses(func, inst, uses);
            for (ir::Reg r : uses) {
                if (r < universe && !t.kill.test(r))
                    t.gen.set(r);
            }
            const ir::Reg d = instrDef(inst);
            if (d != ir::kNoReg && d < universe)
                t.kill.set(d);
        }
    }
    result_ = solveDataflow(cfg, Direction::kBackward, Meet::kUnion,
                            universe, transfer, BitVector(universe));
}

std::vector<BitVector>
Liveness::perInstLiveOut(ir::BlockId b) const
{
    const auto& insts = func_.blocks[b].insts;
    std::vector<BitVector> out(insts.size(), liveOut(b));
    BitVector live = liveOut(b);
    std::vector<ir::Reg> uses;
    for (size_t i = insts.size(); i-- > 0;) {
        out[i] = live;
        const ir::Reg d = instrDef(insts[i]);
        if (d != ir::kNoReg && d < live.size())
            live.clear(d);
        uses.clear();
        appendUses(func_, insts[i], uses);
        for (ir::Reg r : uses)
            if (r < live.size())
                live.set(r);
    }
    return out;
}

void
Liveness::perInstLiveOut(ir::BlockId b, FactMatrix& out) const
{
    const auto& insts = func_.blocks[b].insts;
    out.reset(insts.size(), func_.num_regs);
    BitVector live = liveOut(b);
    std::vector<ir::Reg> uses;
    for (size_t i = insts.size(); i-- > 0;) {
        std::copy(live.words(), live.words() + live.numWords(),
                  out.row(i));
        const ir::Reg d = instrDef(insts[i]);
        if (d != ir::kNoReg && d < live.size())
            live.clear(d);
        uses.clear();
        appendUses(func_, insts[i], uses);
        for (ir::Reg r : uses)
            if (r < live.size())
                live.set(r);
    }
}

// --- FrameLiveness --------------------------------------------------

FrameLiveness::FrameLiveness(const ir::Function& func, const Cfg& cfg)
    : func_(func)
{
    const size_t universe = func.frame_size;
    std::vector<GenKill> transfer(func.blocks.size());
    for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
        GenKill& t = transfer[b];
        t.gen = BitVector(universe);
        t.kill = BitVector(universe);
        for (const ir::Instruction& inst : func.blocks[b].insts) {
            if (inst.op == ir::Opcode::kFrameLoad) {
                const auto slot = static_cast<size_t>(inst.imm);
                if (slot < universe && !t.kill.test(slot))
                    t.gen.set(slot);
            } else if (inst.op == ir::Opcode::kFrameStore) {
                const auto slot = static_cast<size_t>(inst.imm);
                if (slot < universe)
                    t.kill.set(slot);
            }
        }
    }
    // Frame slots are per-activation: nothing is live past a return.
    result_ = solveDataflow(cfg, Direction::kBackward, Meet::kUnion,
                            universe, transfer, BitVector(universe));
}

std::vector<BitVector>
FrameLiveness::perInstLiveOut(ir::BlockId b) const
{
    const auto& insts = func_.blocks[b].insts;
    std::vector<BitVector> out(insts.size(), liveOut(b));
    BitVector live = liveOut(b);
    for (size_t i = insts.size(); i-- > 0;) {
        out[i] = live;
        if (insts[i].op == ir::Opcode::kFrameStore) {
            const auto slot = static_cast<size_t>(insts[i].imm);
            if (slot < live.size())
                live.clear(slot);
        } else if (insts[i].op == ir::Opcode::kFrameLoad) {
            const auto slot = static_cast<size_t>(insts[i].imm);
            if (slot < live.size())
                live.set(slot);
        }
    }
    return out;
}

void
FrameLiveness::perInstLiveOut(ir::BlockId b, FactMatrix& out) const
{
    const auto& insts = func_.blocks[b].insts;
    out.reset(insts.size(), func_.frame_size);
    BitVector live = liveOut(b);
    for (size_t i = insts.size(); i-- > 0;) {
        std::copy(live.words(), live.words() + live.numWords(),
                  out.row(i));
        if (insts[i].op == ir::Opcode::kFrameStore) {
            const auto slot = static_cast<size_t>(insts[i].imm);
            if (slot < live.size())
                live.clear(slot);
        } else if (insts[i].op == ir::Opcode::kFrameLoad) {
            const auto slot = static_cast<size_t>(insts[i].imm);
            if (slot < live.size())
                live.set(slot);
        }
    }
}

// --- ReachingDefs ---------------------------------------------------

ReachingDefs::ReachingDefs(const ir::Function& func, const Cfg& cfg)
    : func_(func)
{
    defs_by_reg_.resize(func.num_regs);
    // Parameters are pseudo-defs flowing in at the entry boundary.
    for (uint32_t p = 0; p < func.num_params; ++p) {
        defs_by_reg_[p].push_back(defs_.size());
        defs_.push_back(Def{p, true, 0, p});
    }
    first_def_in_block_.resize(func.blocks.size(), 0);
    for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
        first_def_in_block_[b] = defs_.size();
        const auto& insts = func.blocks[b].insts;
        for (uint32_t i = 0; i < insts.size(); ++i) {
            const ir::Reg d = instrDef(insts[i]);
            if (d != ir::kNoReg && d < func.num_regs) {
                defs_by_reg_[d].push_back(defs_.size());
                defs_.push_back(Def{d, false, b, i});
            }
        }
    }

    const size_t universe = defs_.size();
    std::vector<GenKill> transfer(func.blocks.size());
    for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
        GenKill& t = transfer[b];
        t.gen = BitVector(universe);
        t.kill = BitVector(universe);
        const auto& insts = func.blocks[b].insts;
        for (uint32_t i = 0; i < insts.size(); ++i) {
            const ir::Reg d = instrDef(insts[i]);
            if (d == ir::kNoReg || d >= func.num_regs)
                continue;
            // A def kills every other def of the same register and
            // generates itself (later defs in the block overwrite
            // earlier gen bits via the kill set).
            for (size_t other : defs_by_reg_[d]) {
                t.gen.clear(other);
                t.kill.set(other);
            }
            size_t self = SIZE_MAX;
            for (size_t id : defs_by_reg_[d]) {
                const Def& def = defs_[id];
                if (!def.is_param && def.block == b && def.index == i) {
                    self = id;
                    break;
                }
            }
            PIBE_ASSERT(self != SIZE_MAX, "def site not indexed");
            t.gen.set(self);
            t.kill.clear(self);
        }
    }

    BitVector boundary(universe);
    for (uint32_t p = 0; p < func.num_params; ++p)
        boundary.set(p); // param pseudo-defs occupy the first ids
    result_ = solveDataflow(cfg, Direction::kForward, Meet::kUnion,
                            universe, transfer, boundary);
}

std::vector<size_t>
ReachingDefs::defsOfRegAt(ir::BlockId b, uint32_t index,
                          ir::Reg reg) const
{
    // Replay the block forward to the instruction, tracking which def
    // of `reg` is current; before any in-block def, fall back to the
    // block-entry fact.
    const auto& insts = func_.blocks[b].insts;
    size_t local_def = SIZE_MAX;
    for (uint32_t i = 0; i < index && i < insts.size(); ++i) {
        if (instrDef(insts[i]) == reg) {
            for (size_t id : defs_by_reg_[reg]) {
                const Def& def = defs_[id];
                if (!def.is_param && def.block == b && def.index == i)
                    local_def = id;
            }
        }
    }
    std::vector<size_t> out;
    if (local_def != SIZE_MAX) {
        out.push_back(local_def);
        return out;
    }
    if (reg < defs_by_reg_.size()) {
        for (size_t id : defs_by_reg_[reg])
            if (result_.in[b].test(id))
                out.push_back(id);
    }
    return out;
}

void
ReachingDefs::Cursor::startBlock(ir::BlockId b)
{
    for (ir::Reg r : touched_)
        local_def_[r] = SIZE_MAX;
    touched_.clear();
    block_ = b;
    next_id_ = rd_.first_def_in_block_[b];
}

void
ReachingDefs::Cursor::advance(const ir::Instruction& inst)
{
    const ir::Reg d = instrDef(inst);
    if (d != ir::kNoReg && d < local_def_.size()) {
        if (local_def_[d] == SIZE_MAX)
            touched_.push_back(d);
        local_def_[d] = next_id_++;
    }
}

void
ReachingDefs::Cursor::defsOf(ir::Reg reg, std::vector<size_t>& out) const
{
    out.clear();
    if (reg >= local_def_.size())
        return;
    if (local_def_[reg] != SIZE_MAX) {
        out.push_back(local_def_[reg]);
        return;
    }
    const BitVector& in = rd_.result_.in[block_];
    for (size_t id : rd_.defs_by_reg_[reg])
        if (in.test(id))
            out.push_back(id);
}

// --- DefiniteAssignment ---------------------------------------------

DefiniteAssignment::DefiniteAssignment(const ir::Function& func,
                                       const Cfg& cfg)
    : func_(func)
{
    const size_t universe = func.num_regs;
    std::vector<GenKill> transfer(func.blocks.size());
    for (ir::BlockId b = 0; b < func.blocks.size(); ++b) {
        GenKill& t = transfer[b];
        t.gen = BitVector(universe);
        t.kill = BitVector(universe);
        for (const ir::Instruction& inst : func.blocks[b].insts) {
            const ir::Reg d = instrDef(inst);
            if (d != ir::kNoReg && d < universe)
                t.gen.set(d);
        }
    }
    BitVector boundary(universe);
    for (uint32_t p = 0; p < func.num_params; ++p)
        boundary.set(p);
    result_ = solveDataflow(cfg, Direction::kForward, Meet::kIntersect,
                            universe, transfer, boundary);
}

BitVector
DefiniteAssignment::assignedBefore(ir::BlockId b, uint32_t index) const
{
    BitVector assigned = result_.in[b];
    const auto& insts = func_.blocks[b].insts;
    for (uint32_t i = 0; i < index && i < insts.size(); ++i) {
        const ir::Reg d = instrDef(insts[i]);
        if (d != ir::kNoReg && d < assigned.size())
            assigned.set(d);
    }
    return assigned;
}

} // namespace pibe::check
