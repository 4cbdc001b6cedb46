#include "harden/harden.h"

#include "opt/jump_tables.h"

namespace pibe::harden {

DefenseConfig
DefenseConfig::retpolinesOnly()
{
    DefenseConfig c;
    c.retpoline = true;
    return c;
}

DefenseConfig
DefenseConfig::retRetpolinesOnly()
{
    DefenseConfig c;
    c.ret_retpoline = true;
    return c;
}

DefenseConfig
DefenseConfig::lviOnly()
{
    DefenseConfig c;
    c.lvi_cfi = true;
    return c;
}

DefenseConfig
DefenseConfig::all()
{
    DefenseConfig c;
    c.retpoline = true;
    c.lvi_cfi = true;
    c.ret_retpoline = true;
    return c;
}

DefenseConfig
DefenseConfig::jumpSwitches()
{
    DefenseConfig c;
    c.retpoline = true;
    c.jump_switches = true;
    return c;
}

std::string
DefenseConfig::name() const
{
    if (!any())
        return "none";
    std::string s;
    auto append = [&s](const char* part) {
        if (!s.empty())
            s += "+";
        s += part;
    };
    if (retpoline)
        append(jump_switches ? "jumpswitches" : "retpolines");
    if (lvi_cfi)
        append("lvi-cfi");
    if (ret_retpoline)
        append("ret-retpolines");
    return s;
}

std::optional<DefenseConfig>
defenseByName(const std::string& name)
{
    if (name == "none")
        return DefenseConfig::none();
    if (name == "retpolines")
        return DefenseConfig::retpolinesOnly();
    if (name == "ret-retpolines")
        return DefenseConfig::retRetpolinesOnly();
    if (name == "lvi")
        return DefenseConfig::lviOnly();
    if (name == "all")
        return DefenseConfig::all();
    if (name == "jumpswitches")
        return DefenseConfig::jumpSwitches();
    return std::nullopt;
}

ir::FwdScheme
forwardSchemeFor(const DefenseConfig& config)
{
    if (config.retpoline && config.jump_switches)
        return ir::FwdScheme::kJumpSwitch;
    if (config.retpoline && config.lvi_cfi)
        return ir::FwdScheme::kFencedRetpoline;
    if (config.retpoline)
        return ir::FwdScheme::kRetpoline;
    if (config.lvi_cfi)
        return ir::FwdScheme::kLviCfi;
    return ir::FwdScheme::kNone;
}

ir::RetScheme
returnSchemeFor(const DefenseConfig& config)
{
    if (config.ret_retpoline && config.lvi_cfi)
        return ir::RetScheme::kFencedRet;
    if (config.ret_retpoline)
        return ir::RetScheme::kReturnRetpoline;
    if (config.lvi_cfi)
        return ir::RetScheme::kLviRet;
    return ir::RetScheme::kNone;
}

namespace {

/**
 * Tag the indirect branches of one function with the schemes implied
 * by `config` and lower its jump tables. Returns the number of
 * switches lowered.
 */
uint32_t
hardenOneFunction(ir::Function& f, const DefenseConfig& config)
{
    const uint32_t lowered = opt::lowerJumpTablesInFunction(f);

    const ir::FwdScheme fwd = forwardSchemeFor(config);
    const ir::RetScheme bwd = returnSchemeFor(config);
    const bool boot = f.hasAttr(ir::kAttrBootSection);
    for (auto& bb : f.blocks) {
        for (auto& inst : bb.insts) {
            switch (inst.op) {
              case ir::Opcode::kICall:
                if (!inst.is_asm) // cannot rewrite inline assembly
                    inst.fwd_scheme = fwd;
                break;
              case ir::Opcode::kRet:
                if (!boot) // boot-only returns stay plain
                    inst.ret_scheme = bwd;
                break;
              default:
                break;
            }
        }
    }
    return lowered;
}

} // namespace

CoverageReport
applyDefenses(ir::Module& module, const DefenseConfig& config,
              std::vector<ir::FuncId>* touched)
{
    CoverageReport report;
    if (!config.any())
        return analyzeCoverage(module);

    // Jump tables are disabled whenever transient defenses are on
    // (the default LLVM behaviour under retpolines/LVI, §5.1).
    for (ir::Function& f : module.functions()) {
        const uint32_t lowered = hardenOneFunction(f, config);
        report.lowered_switches += lowered;
        if (lowered > 0 && touched)
            touched->push_back(f.id);
    }
    CoverageReport final_report = analyzeCoverage(module);
    final_report.lowered_switches = report.lowered_switches;
    return final_report;
}

CoverageReport
analyzeCoverage(const ir::Module& module)
{
    CoverageReport report;
    for (const ir::Function& f : module.functions()) {
        const bool boot = f.hasAttr(ir::kAttrBootSection);
        for (const auto& bb : f.blocks) {
            for (const auto& inst : bb.insts) {
                switch (inst.op) {
                  case ir::Opcode::kICall:
                    if (inst.fwd_scheme == ir::FwdScheme::kNone)
                        ++report.vulnerable_icalls;
                    else
                        ++report.protected_icalls;
                    break;
                  case ir::Opcode::kSwitch:
                    // A surviving switch is an indexed indirect jump.
                    ++report.vulnerable_ijumps;
                    break;
                  case ir::Opcode::kRet:
                    if (inst.ret_scheme != ir::RetScheme::kNone)
                        ++report.protected_rets;
                    else if (boot)
                        ++report.boot_only_rets;
                    break;
                  default:
                    break;
                }
            }
        }
    }
    return report;
}

} // namespace pibe::harden
