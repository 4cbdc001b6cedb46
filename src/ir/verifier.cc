#include "ir/verifier.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace pibe::ir {

namespace {

class FunctionVerifier
{
  public:
    FunctionVerifier(const Module& module, const Function& func)
        : module_(module), func_(func)
    {
    }

    std::vector<std::string>
    run()
    {
        if (func_.isDeclaration())
            return problems_;
        for (BlockId b = 0; b < func_.blocks.size(); ++b)
            checkBlock(b);
        return problems_;
    }

  private:
    std::unordered_set<SiteId> func_sites_;

    template <typename... Args>
    void
    problem(BlockId b, size_t idx, Args&&... args)
    {
        std::ostringstream os;
        os << func_.name << " bb" << b << "[" << idx << "]: ";
        (os << ... << args);
        problems_.push_back(os.str());
    }

    void
    checkReg(BlockId b, size_t idx, Reg r, const char* what)
    {
        if (r == kNoReg || r >= func_.num_regs)
            problem(b, idx, "bad ", what, " register ", r);
    }

    void
    checkTarget(BlockId b, size_t idx, BlockId t)
    {
        if (t >= func_.blocks.size())
            problem(b, idx, "branch target bb", t, " out of range");
    }

    void
    checkBlock(BlockId b)
    {
        const BasicBlock& bb = func_.blocks[b];
        if (bb.insts.empty()) {
            problem(b, 0, "empty block");
            return;
        }
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction& inst = bb.insts[i];
            const bool last = (i == bb.insts.size() - 1);
            if (inst.isTerminator() != last) {
                problem(b, i, last ? "block does not end in terminator"
                                   : "terminator mid-block");
            }
            checkInst(b, i, inst);
        }
    }

    void
    checkSite(BlockId b, size_t i, const Instruction& inst,
              const char* what)
    {
        if (inst.site_id == kNoSite) {
            problem(b, i, what, " without site id");
            return;
        }
        if (!func_sites_.insert(inst.site_id).second)
            problem(b, i, "duplicate site id ", inst.site_id,
                    " within function");
    }

    /** True if `inst`'s operand range lies inside the pool its opcode
     *  reads (the empty range for opcodes that take no list). */
    bool
    checkOperandRange(BlockId b, size_t i, const Instruction& inst)
    {
        size_t pool = 0;
        if (inst.isCall()) {
            pool = func_.operands.args.size();
        } else if (inst.op == Opcode::kSwitch) {
            pool = func_.operands.cases.size();
        } else if (inst.operand_count != 0) {
            problem(b, i, "operand count ", inst.operand_count,
                    " on an opcode that takes no operand list");
            return false;
        }
        if (size_t{inst.operand_offset} + inst.operand_count > pool) {
            problem(b, i, "operand range [", inst.operand_offset, ", ",
                    size_t{inst.operand_offset} + inst.operand_count,
                    ") leaves the function's pool of ", pool);
            return false;
        }
        return true;
    }

    void
    checkInst(BlockId b, size_t i, const Instruction& inst)
    {
        if (!checkOperandRange(b, i, inst))
            return;
        switch (inst.op) {
          case Opcode::kConst:
            checkReg(b, i, inst.dst, "dst");
            break;
          case Opcode::kMove:
            checkReg(b, i, inst.dst, "dst");
            checkReg(b, i, inst.a, "src");
            break;
          case Opcode::kBinOp:
            checkReg(b, i, inst.dst, "dst");
            checkReg(b, i, inst.a, "lhs");
            checkReg(b, i, inst.b, "rhs");
            break;
          case Opcode::kFuncAddr:
            checkReg(b, i, inst.dst, "dst");
            if (inst.callee >= module_.numFunctions())
                problem(b, i, "funcaddr of unknown function");
            break;
          case Opcode::kLoad:
            checkReg(b, i, inst.dst, "dst");
            checkReg(b, i, inst.a, "index");
            if (inst.global >= module_.numGlobals())
                problem(b, i, "load from unknown global");
            break;
          case Opcode::kStore:
            checkReg(b, i, inst.a, "index");
            checkReg(b, i, inst.b, "value");
            if (inst.global >= module_.numGlobals())
                problem(b, i, "store to unknown global");
            break;
          case Opcode::kFrameLoad:
            checkReg(b, i, inst.dst, "dst");
            if (inst.imm < 0 ||
                inst.imm >= static_cast<int64_t>(func_.frame_size))
                problem(b, i, "frame load slot ", inst.imm, " out of range");
            break;
          case Opcode::kFrameStore:
            checkReg(b, i, inst.a, "value");
            if (inst.imm < 0 ||
                inst.imm >= static_cast<int64_t>(func_.frame_size))
                problem(b, i, "frame store slot ", inst.imm, " out of range");
            break;
          case Opcode::kCall: {
            checkReg(b, i, inst.dst, "dst");
            if (inst.callee >= module_.numFunctions()) {
                problem(b, i, "call to unknown function");
                break;
            }
            const Function& callee = module_.func(inst.callee);
            if (inst.operand_count != callee.num_params) {
                problem(b, i, "call to ", callee.name, " with ",
                        inst.operand_count, " args, expected ",
                        callee.num_params);
            }
            for (Reg r : func_.args(inst))
                checkReg(b, i, r, "arg");
            checkSite(b, i, inst, "call");
            break;
          }
          case Opcode::kICall:
            checkReg(b, i, inst.dst, "dst");
            checkReg(b, i, inst.a, "target");
            for (Reg r : func_.args(inst))
                checkReg(b, i, r, "arg");
            checkSite(b, i, inst, "icall");
            break;
          case Opcode::kRet:
            if (inst.a != kNoReg)
                checkReg(b, i, inst.a, "value");
            checkSite(b, i, inst, "ret");
            break;
          case Opcode::kBr:
            checkTarget(b, i, inst.t0);
            break;
          case Opcode::kCondBr:
            checkReg(b, i, inst.a, "cond");
            checkTarget(b, i, inst.t0);
            checkTarget(b, i, inst.t1);
            break;
          case Opcode::kSwitch: {
            checkReg(b, i, inst.a, "value");
            checkTarget(b, i, inst.t0);
            const std::span<const SwitchCase> cases = func_.cases(inst);
            for (const SwitchCase& c : cases)
                checkTarget(b, i, c.target);
            std::unordered_set<int64_t> values;
            for (const SwitchCase& c : cases) {
                if (!values.insert(c.value).second)
                    problem(b, i, "duplicate switch case value ", c.value);
            }
            break;
          }
          case Opcode::kSink:
            checkReg(b, i, inst.a, "value");
            break;
        }
    }

    const Module& module_;
    const Function& func_;
    std::vector<std::string> problems_;
};

} // namespace

std::vector<std::string>
verifyFunction(const Module& module, const Function& func)
{
    return FunctionVerifier(module, func).run();
}

std::vector<std::string>
verifyModuleSiteIds(const Module& module)
{
    std::vector<std::string> problems;
    const SiteId bound = module.siteIdBound();
    // One bit per id below the bound, unless a hostile text claims a
    // bound far beyond the module's size; a set takes the other ids.
    size_t insts = 0;
    for (const Function& f : module.functions())
        insts += f.instructionCount();
    std::vector<bool> seen(std::min<size_t>(bound, 4 * insts + 4096));
    std::unordered_set<SiteId> seen_sparse;
    for (const Function& f : module.functions()) {
        for (const auto& bb : f.blocks) {
            for (const auto& inst : bb.insts) {
                if (inst.site_id == kNoSite)
                    continue;
                if (inst.site_id >= bound) {
                    problems.push_back(f.name + ": site id " +
                                       std::to_string(inst.site_id) +
                                       " beyond module bound");
                }
                bool duplicate;
                if (inst.site_id < seen.size()) {
                    duplicate = seen[inst.site_id];
                    seen[inst.site_id] = true;
                } else {
                    duplicate = !seen_sparse.insert(inst.site_id).second;
                }
                if (duplicate) {
                    problems.push_back(f.name + ": duplicate site id " +
                                       std::to_string(inst.site_id));
                }
            }
        }
    }
    return problems;
}

std::vector<std::string>
verifyModule(const Module& module)
{
    std::vector<std::string> problems;
    for (FuncId id = 0; id < module.numFunctions(); ++id) {
        const Function& f = module.func(id);
        if (f.id != id) {
            problems.push_back(f.name + ": function id " +
                               std::to_string(f.id) +
                               " does not match its table index " +
                               std::to_string(id));
        }
        if (module.findFunction(f.name) != id) {
            problems.push_back(f.name +
                               ": by-name lookup does not round-trip");
        }
        auto p = verifyFunction(module, f);
        problems.insert(problems.end(), p.begin(), p.end());
    }
    auto sites = verifyModuleSiteIds(module);
    problems.insert(problems.end(), sites.begin(), sites.end());
    return problems;
}

void
verifyOrDie(const Module& module, const std::string& context)
{
    auto problems = verifyModule(module);
    if (!problems.empty()) {
        PIBE_FATAL("module verification failed (", context, "): ",
                   problems.front(), " [", problems.size(), " problem(s)]");
    }
}

} // namespace pibe::ir
