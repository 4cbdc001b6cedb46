#include "check/analysis_manager.h"

#include "ir/verifier.h"

namespace pibe::check {

const Cfg&
AnalysisManager::cfg(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.cfg) {
        e.cfg = std::make_unique<Cfg>(module_.func(f));
        count(computations_);
    } else {
        count(hits_);
    }
    return *e.cfg;
}

const DomTree&
AnalysisManager::domTree(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.dom) {
        e.dom = std::make_unique<DomTree>(cfg(f));
        count(computations_);
    } else {
        count(hits_);
    }
    return *e.dom;
}

const Liveness&
AnalysisManager::liveness(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.live) {
        e.live = std::make_unique<Liveness>(module_.func(f), cfg(f));
        count(computations_);
    } else {
        count(hits_);
    }
    return *e.live;
}

const FrameLiveness&
AnalysisManager::frameLiveness(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.frame_live) {
        e.frame_live =
            std::make_unique<FrameLiveness>(module_.func(f), cfg(f));
        count(computations_);
    } else {
        count(hits_);
    }
    return *e.frame_live;
}

const ReachingDefs&
AnalysisManager::reachingDefs(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.reaching) {
        e.reaching =
            std::make_unique<ReachingDefs>(module_.func(f), cfg(f));
        count(computations_);
    } else {
        count(hits_);
    }
    return *e.reaching;
}

const DefiniteAssignment&
AnalysisManager::definiteAssignment(ir::FuncId f)
{
    Entry& e = entry(f);
    if (!e.assigned) {
        e.assigned = std::make_unique<DefiniteAssignment>(module_.func(f),
                                                          cfg(f));
        count(computations_);
    } else {
        count(hits_);
    }
    return *e.assigned;
}

std::span<const Diagnostic>
AnalysisManager::verifyFindings(ir::FuncId f)
{
    const ir::Function& func = module_.func(f);
    if (func.isDeclaration())
        return {};
    Entry& e = entry(f);
    if (!e.verified) {
        for (std::string& p : ir::verifyFunction(module_, func)) {
            Diagnostic& d = e.findings.emplace_back();
            d.check_id = "verify.function";
            d.severity = Severity::kError;
            d.message = std::move(p);
            d.func = f;
            d.func_name = func.name;
        }
        e.num_verify = static_cast<uint32_t>(e.findings.size());
        e.verified = true;
    }
    return {e.findings.data(), e.num_verify};
}

std::optional<std::span<const Diagnostic>>
AnalysisManager::lintFindings(ir::FuncId f)
{
    const Entry& e = entry(f);
    if (!e.linted)
        return std::nullopt;
    return std::span<const Diagnostic>(e.findings).subspan(e.num_verify);
}

void
AnalysisManager::storeLintFindings(ir::FuncId f,
                                   std::vector<Diagnostic> diags)
{
    Entry& e = entry(f);
    PIBE_ASSERT(e.verified && e.num_verify == 0 && !e.linted,
                "lint findings of ", module_.func(f).name,
                " stored out of order");
    e.findings = std::move(diags);
    e.linted = true;
    // Only the lint sweep reads these, and it will not run on `f`
    // again until `f` changes; the findings stand in for them.
    e.live.reset();
    e.frame_live.reset();
    e.reaching.reset();
    e.assigned.reset();
}

void
AnalysisManager::syncShape()
{
    bool same = shape_globals_ == module_.numGlobals() &&
                shape_params_.size() == module_.numFunctions();
    for (ir::FuncId f = 0; same && f < shape_params_.size(); ++f)
        same = shape_params_[f] == module_.func(f).num_params;
    if (same)
        return;
    for (Entry& e : entries_) {
        e.findings = {};
        e.num_verify = 0;
        e.verified = e.linted = false;
    }
    entries_.resize(module_.numFunctions());
    shape_globals_ = module_.numGlobals();
    shape_params_.resize(module_.numFunctions());
    for (ir::FuncId f = 0; f < shape_params_.size(); ++f)
        shape_params_[f] = module_.func(f).num_params;
}

} // namespace pibe::check
