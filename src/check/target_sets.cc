/**
 * @file
 * Andersen-style function-pointer points-to analysis (target sets).
 *
 * See target_sets.h for the abstraction and DESIGN.md §10 for the
 * constraint rules and the soundness argument; DESIGN.md §11 covers
 * the solver. solve() is one worklist fixpoint: a popped node sends
 * its whole set along every out-edge. Sets are immutable and shared
 * through handles, so a set flowing along a copy edge costs a
 * reference count, and a union allocates a new set only when neither
 * side covers the other. Static edges are recorded in flat CSR arrays
 * and send nothing when recorded: every node that holds something
 * starts on the worklist, and every node that gains something is
 * pushed again.
 *
 * Icall argument/return edges are added dynamically as the pointer's
 * set grows, and send at once, because their source may already have
 * been popped for the last time. Sites that share a representative
 * pointer and an arity go through one call hub, so each target is
 * wired once per hub rather than once per site. Because the system is
 * monotone and the worklist runs to the least fixpoint, the solution
 * is independent of processing order.
 */
#include "check/target_sets.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <numeric>
#include <span>
#include <sstream>
#include <unordered_map>

#include "check/diagnostic.h"
#include "harden/harden.h"
#include "runtime/thread_pool.h"

namespace pibe::check {

namespace {

using Clock = std::chrono::steady_clock;

/** Functions per parallelFor chunk of summary extraction (the audit
 *  sweeps' chunk). */
constexpr size_t kFuncsPerChunk = 16;

/** Steps a site's pointer walks back to find its call hub's
 *  representative. Any node on the walk is a correct representative,
 *  so the bound trades only sharing for time. */
constexpr uint32_t kMaxRepresentativeWalk = 64;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/**
 * The out-edges of every node in compressed sparse row form, built in
 * three steps: count() each edge's source, allocate(), then add() the
 * same edges in the same order, so each node keeps its edges in
 * insertion order.
 */
class Csr
{
  public:
    explicit Csr(uint32_t nodes = 0) : begin_(nodes + 2, 0) {}

    // Counting at from + 2 makes the prefix sum leave begin_[v + 1] at
    // the start of v's edges; add() advances it to the start of v + 1.
    void count(uint32_t from) { ++begin_[from + 2]; }

    void
    allocate()
    {
        std::partial_sum(begin_.begin(), begin_.end(), begin_.begin());
        to_.resize(begin_.back());
    }

    void add(uint32_t from, uint32_t to) { to_[begin_[from + 1]++] = to; }

    std::span<const uint32_t>
    out(uint32_t node) const
    {
        return std::span(to_).subspan(begin_[node],
                                      begin_[node + 1] - begin_[node]);
    }

    size_t size() const { return to_.size(); }

  private:
    std::vector<uint32_t> begin_;
    std::vector<uint32_t> to_;
};

/** Conventional module entry points (matches checks.cc roots). */
const char* const kDefaultRoots[] = {"kernel_init", "sys_dispatch",
                                     "main"};

bool
isComparison(ir::BinKind k)
{
    return k >= ir::BinKind::kEq;
}

/** The elements of a shared target set; a null handle is empty. */
const std::vector<ir::FuncId>&
elements(const std::shared_ptr<const std::vector<ir::FuncId>>& set)
{
    static const std::vector<ir::FuncId> kEmpty;
    return set ? *set : kEmpty;
}

} // namespace

TargetSetAnalysis::TargetSetAnalysis(const ir::Module& module,
                                     std::vector<std::string> roots)
    : module_(module), roots_(std::move(roots))
{
}

void
TargetSetAnalysis::invalidateFunction(ir::FuncId f)
{
    if (f < summaries_.size())
        summaries_[f].dirty = true;
    solved_ = false;
}

void
TargetSetAnalysis::invalidateAll()
{
    for (FuncSummary& s : summaries_)
        s.dirty = true;
    solved_ = false;
    resolve_all_ = true;
}

uint32_t
TargetSetAnalysis::regNode(ir::FuncId f, ir::Reg r) const
{
    return reg_base_[f] + r;
}

uint32_t
TargetSetAnalysis::retNode(ir::FuncId f) const
{
    return ret_node_[f];
}

uint32_t
TargetSetAnalysis::globalNode(ir::GlobalId g) const
{
    return global_base_ + g;
}

void
TargetSetAnalysis::extractSummary(ir::FuncId f,
                                  std::vector<Constraint>& scratch)
{
    FuncSummary& sum = summaries_[f];
    scratch.clear();
    sum.icalls.clear();
    sum.dirty = false;

    const ir::Function& fn = module_.func(f);
    sum.num_params = fn.num_params;
    sum.num_regs = fn.num_regs;
    sum.declaration = fn.isDeclaration();
    const uint32_t nregs = fn.num_regs;
    auto reg_ok = [nregs](ir::Reg r) { return r < nregs; };

    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
        const auto& insts = fn.blocks[b].insts;
        for (uint32_t i = 0; i < insts.size(); ++i) {
            const ir::Instruction& in = insts[i];
            Constraint c;
            switch (in.op) {
              case ir::Opcode::kConst:
                if (ir::isFuncAddrValue(in.imm) && reg_ok(in.dst)) {
                    ir::FuncId t = ir::funcAddrTarget(in.imm);
                    if (t < module_.numFunctions()) {
                        c.kind = Constraint::Kind::kSeed;
                        c.dst = in.dst;
                        c.target = t;
                    } else {
                        // Address of a nonexistent function: an
                        // unresolvable value (lint.call-target flags
                        // the call site).
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                    }
                    scratch.push_back(c);
                }
                break;
              case ir::Opcode::kFuncAddr:
                if (reg_ok(in.dst)) {
                    if (in.callee < module_.numFunctions()) {
                        c.kind = Constraint::Kind::kSeed;
                        c.dst = in.dst;
                        c.target = in.callee;
                    } else {
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                    }
                    scratch.push_back(c);
                }
                break;
              case ir::Opcode::kMove:
                if (reg_ok(in.dst) && reg_ok(in.a)) {
                    c.kind = Constraint::Kind::kCopy;
                    c.dst = in.dst;
                    c.src = in.a;
                    scratch.push_back(c);
                }
                break;
              case ir::Opcode::kBinOp:
                // Comparisons yield 0/1, never a pointer. Arithmetic
                // on a possible pointer escapes the abstraction: the
                // result is incomplete (we do not model forged
                // addresses), but carries no targets.
                if (!isComparison(in.bin) && reg_ok(in.dst)) {
                    for (ir::Reg src : {in.a, in.b}) {
                        if (!reg_ok(src))
                            continue;
                        c.kind = Constraint::Kind::kTaint;
                        c.dst = in.dst;
                        c.src = src;
                        scratch.push_back(c);
                    }
                }
                break;
              case ir::Opcode::kLoad:
                if (reg_ok(in.dst)) {
                    if (in.global < module_.numGlobals()) {
                        // Field-insensitive: any slot may flow out.
                        c.kind = Constraint::Kind::kLoadGlobal;
                        c.dst = in.dst;
                        c.src = in.global;
                    } else {
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                    }
                    scratch.push_back(c);
                }
                break;
              case ir::Opcode::kStore:
                if (reg_ok(in.b) && in.global < module_.numGlobals()) {
                    c.kind = Constraint::Kind::kStoreGlobal;
                    c.dst = in.global;
                    c.src = in.b;
                    scratch.push_back(c);
                }
                break;
              case ir::Opcode::kFrameLoad:
                if (reg_ok(in.dst)) {
                    if (in.imm >= 0 &&
                        in.imm < static_cast<int64_t>(fn.frame_size)) {
                        c.kind = Constraint::Kind::kFrameLoad;
                        c.dst = in.dst;
                        c.src = static_cast<uint32_t>(in.imm);
                    } else {
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                    }
                    scratch.push_back(c);
                }
                break;
              case ir::Opcode::kFrameStore:
                if (reg_ok(in.a) && in.imm >= 0 &&
                    in.imm < static_cast<int64_t>(fn.frame_size)) {
                    c.kind = Constraint::Kind::kFrameStore;
                    c.dst = static_cast<uint32_t>(in.imm);
                    c.src = in.a;
                    scratch.push_back(c);
                }
                break;
              case ir::Opcode::kCall: {
                if (in.callee >= module_.numFunctions()) {
                    if (in.dst != ir::kNoReg && reg_ok(in.dst)) {
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                        scratch.push_back(c);
                    }
                    break;
                }
                const ir::Function& callee = module_.func(in.callee);
                if (!callee.isDeclaration()) {
                    // Arguments flow into parameter registers.
                    uint32_t np = std::min(callee.num_params,
                                           callee.num_regs);
                    const std::span<const ir::Reg> args = fn.args(in);
                    for (uint32_t ai = 0; ai < args.size() && ai < np;
                         ++ai) {
                        if (!reg_ok(args[ai]))
                            continue;
                        c.kind = Constraint::Kind::kCallArg;
                        c.dst = ai;
                        c.src = args[ai];
                        c.callee = in.callee;
                        scratch.push_back(c);
                    }
                }
                if (in.dst != ir::kNoReg && reg_ok(in.dst)) {
                    // Declarations' return nodes are seeded
                    // incomplete, so this stays sound for them.
                    c = Constraint{};
                    c.kind = Constraint::Kind::kCallRet;
                    c.dst = in.dst;
                    c.callee = in.callee;
                    scratch.push_back(c);
                }
                break;
              }
              case ir::Opcode::kICall: {
                IcallRecord rec;
                rec.site = in.site_id;
                rec.block = b;
                rec.index = i;
                rec.ptr = in.a;
                rec.dst = in.dst;
                const std::span<const ir::Reg> args = fn.args(in);
                rec.args.assign(args.begin(), args.end());
                rec.is_asm = in.is_asm;
                sum.icalls.push_back(std::move(rec));
                break;
              }
              case ir::Opcode::kRet:
                if (in.a != ir::kNoReg && reg_ok(in.a)) {
                    c.kind = Constraint::Kind::kRet;
                    c.src = in.a;
                    scratch.push_back(c);
                }
                break;
              default:
                break; // kBr/kCondBr/kSwitch/kSink move no values.
            }
        }
    }
    sum.constraints.assign(scratch.begin(), scratch.end());
}

bool
TargetSetAnalysis::sameFixpoint(const FuncSummary& before,
                                const FuncSummary& now)
{
    if (before.constraints != now.constraints ||
        before.icalls != now.icalls ||
        before.num_params != now.num_params ||
        before.declaration != now.declaration)
        return false;
    // The fixpoint also tests registers against num_regs (parameters,
    // icall operands); a change in range must re-solve.
    const uint32_t regs = std::min(before.num_regs, now.num_regs);
    if (now.num_params > regs)
        return false;
    for (const IcallRecord& rec : now.icalls) {
        if (rec.ptr >= regs || (rec.dst != ir::kNoReg && rec.dst >= regs))
            return false;
        for (ir::Reg a : rec.args)
            if (a >= regs)
                return false;
    }
    return true;
}

void
TargetSetAnalysis::relayoutNodes()
{
    const std::vector<uint32_t> old_reg = std::move(reg_base_);
    const std::vector<uint32_t> old_frame = std::move(frame_base_);
    const std::vector<uint32_t> old_ret = std::move(ret_node_);
    const uint32_t old_global = global_base_;
    layoutNodes();
    if (reg_base_ == old_reg && frame_base_ == old_frame)
        return;
    std::vector<SetHandle> pts(num_nodes_);
    std::vector<bool> incomplete(num_nodes_, false);
    auto move = [&](uint32_t from, uint32_t to, uint32_t count) {
        for (uint32_t i = 0; i < count; ++i) {
            pts[to + i] = std::move(pts_[from + i]);
            incomplete[to + i] = incomplete_[from + i];
        }
    };
    for (ir::FuncId f = 0; f < reg_base_.size(); ++f) {
        move(old_reg[f], reg_base_[f],
             std::min(old_frame[f] - old_reg[f],
                      frame_base_[f] - reg_base_[f]));
        move(old_frame[f], frame_base_[f],
             std::min(old_ret[f] - old_frame[f],
                      ret_node_[f] - frame_base_[f]));
        move(old_ret[f], ret_node_[f], 1);
    }
    move(old_global, global_base_,
         static_cast<uint32_t>(module_.numGlobals()));
    pts_ = std::move(pts);
    incomplete_ = std::move(incomplete);
    stats_.nodes = num_nodes_;
}

void
TargetSetAnalysis::layoutNodes()
{
    // Rebuilt per solve: passes may grow regs.
    const size_t nf = module_.numFunctions();
    reg_base_.assign(nf, 0);
    frame_base_.assign(nf, 0);
    ret_node_.assign(nf, 0);
    uint32_t n = 0;
    for (ir::FuncId f = 0; f < nf; ++f) {
        const ir::Function& fn = module_.func(f);
        reg_base_[f] = n;
        n += fn.num_regs;
        frame_base_[f] = n;
        n += fn.frame_size;
        ret_node_[f] = n;
        n += 1;
    }
    global_base_ = n;
    n += static_cast<uint32_t>(module_.numGlobals());
    num_nodes_ = n;
}

bool
TargetSetAnalysis::extractDirty(bool keep)
{
    std::vector<ir::FuncId> dirty;
    uint64_t insts = 0;
    for (ir::FuncId f = 0; f < summaries_.size(); ++f) {
        if (summaries_[f].dirty) {
            dirty.push_back(f);
            insts += module_.func(f).instructionCount();
        }
    }
    std::vector<FuncSummary> before;
    if (keep)
        for (ir::FuncId f : dirty)
            before.push_back(std::move(summaries_[f]));
    const auto t0 = Clock::now();
    stats_.extract_work_ms = runtime::parallelFor(
        dirty.size(), kFuncsPerChunk, insts / runtime::kInstsPerHelper,
        [&](size_t begin, size_t end) {
            std::vector<Constraint> scratch;
            for (size_t i = begin; i < end; ++i)
                extractSummary(dirty[i], scratch);
        });
    stats_.extract_ms = msSince(t0);
    summaries_extracted_ += dirty.size();
    for (size_t i = 0; i < before.size() && keep; ++i)
        keep = sameFixpoint(before[i], summaries_[dirty[i]]);
    return keep;
}

void
TargetSetAnalysis::solve()
{
    const size_t nf = module_.numFunctions();
    // Keep the last fixpoint if the module kept its functions and
    // globals and no summary it was built from changed.
    bool keep = !resolve_all_ && summaries_.size() == nf &&
                num_nodes_ - global_base_ == module_.numGlobals();
    resolve_all_ = false;
    if (summaries_.size() < nf)
        summaries_.resize(nf);
    keep = extractDirty(keep);
    ++solves_;
    if (keep) {
        relayoutNodes();
        ++solutions_kept_;
        solved_ = true;
        return;
    }
    layoutNodes();
    const auto t0 = Clock::now();

    const uint32_t n = num_nodes_;
    stats_.nodes = n;
    stats_.dynamic_edges = 0;
    stats_.pops = 0;
    // Call hubs take at most arity + 1 nodes per site, laid out past
    // the n abstract locations and dropped before publishing.
    size_t hub_bound = 0;
    for (const FuncSummary& sum : summaries_)
        for (const IcallRecord& rec : sum.icalls)
            hub_bound += rec.args.size() + 1;
    const size_t all_nodes = n + hub_bound;
    pts_.assign(all_nodes, nullptr);
    incomplete_.assign(all_nodes, false);
    sites_.clear();
    bad_slots_.clear();

    // Solve-only state, released when the fixpoint is reached.
    // Dynamic edges by source: dynamic_list[node] indexes the source's
    // list in dynamic_edges, so a node without any costs four bytes.
    constexpr uint32_t kNoList = ~0u;
    std::vector<uint32_t> dynamic_list(all_nodes, kNoList);
    std::vector<std::vector<uint32_t>> dynamic_edges;
    std::vector<uint32_t> worklist;
    std::vector<bool> on_worklist(all_nodes, false);

    auto push = [&](uint32_t node) {
        if (on_worklist[node])
            return;
        on_worklist[node] = true;
        worklist.push_back(node);
    };
    auto markIncomplete = [&](uint32_t node) {
        if (incomplete_[node])
            return false;
        incomplete_[node] = true;
        return true;
    };
    // pts(node) ∪= add. Shares `add` when it covers pts(node); a merged
    // set is allocated only when each side holds something the other
    // lacks.
    auto unionInto = [&](uint32_t node, const SetHandle& add) {
        if (!add || add->empty())
            return false;
        SetHandle& dst = pts_[node];
        if (!dst) {
            dst = add;
            return true;
        }
        if (dst == add ||
            std::includes(dst->begin(), dst->end(), add->begin(),
                          add->end()))
            return false;
        if (std::includes(add->begin(), add->end(), dst->begin(),
                          dst->end())) {
            dst = add;
            return true;
        }
        auto merged = std::make_shared<std::vector<ir::FuncId>>();
        merged->reserve(dst->size() + add->size());
        std::set_union(dst->begin(), dst->end(), add->begin(), add->end(),
                       std::back_inserter(*merged));
        dst = std::move(merged);
        return true;
    };
    // Send pts(from) and its incomplete bit along the edge from -> to.
    auto send = [&](uint32_t from, uint32_t to) {
        bool changed = unionInto(to, pts_[from]);
        if (incomplete_[from])
            changed = markIncomplete(to) || changed;
        if (changed)
            push(to);
    };
    auto seed = [&](uint32_t node, std::vector<ir::FuncId> targets) {
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()),
                      targets.end());
        unionInto(node, std::make_shared<const std::vector<ir::FuncId>>(
                            std::move(targets)));
    };

    std::vector<ir::FuncId> taken;

    // --- seeds: global initializers ---
    for (ir::GlobalId g = 0; g < module_.numGlobals(); ++g) {
        const ir::Global& gl = module_.global(g);
        std::vector<ir::FuncId> slots;
        for (size_t slot = 0; slot < gl.init.size(); ++slot) {
            int64_t v = gl.init[slot];
            if (!ir::isFuncAddrValue(v))
                continue;
            ir::FuncId t = ir::funcAddrTarget(v);
            if (t < nf) {
                slots.push_back(t);
                taken.push_back(t);
            } else {
                bad_slots_.push_back(BadGlobalSlot{g, slot, v});
                markIncomplete(globalNode(g));
            }
        }
        seed(globalNode(g), std::move(slots));
    }

    // --- seeds: root parameters come from outside the module ---
    auto seedRoot = [&](const std::string& name) {
        ir::FuncId f = module_.findFunction(name);
        if (f == ir::kInvalidFunc)
            return;
        const ir::Function& fn = module_.func(f);
        uint32_t np = std::min(fn.num_params, fn.num_regs);
        for (uint32_t p = 0; p < np; ++p)
            markIncomplete(regNode(f, p));
    };
    if (roots_.empty()) {
        for (const char* name : kDefaultRoots)
            seedRoot(name);
    } else {
        for (const std::string& name : roots_)
            seedRoot(name);
    }

    // --- static constraints: seeds, subset edges and taint edges ---
    // Calls edge(from, to, taint) for each subset or taint edge of f's
    // summary and node(c, dst) for each seed or incomplete constraint.
    // Edges only record: the fixpoint pops every node that holds
    // something, and that pop sends.
    auto visit = [&](ir::FuncId f, auto&& edge, auto&& node) {
        const uint32_t regs = reg_base_[f];
        const uint32_t frame = frame_base_[f];
        const uint32_t ret = ret_node_[f];
        for (const Constraint& c : summaries_[f].constraints) {
            switch (c.kind) {
              case Constraint::Kind::kCopy:
                edge(regs + c.src, regs + c.dst, false);
                break;
              case Constraint::Kind::kTaint:
                edge(regs + c.src, regs + c.dst, true);
                break;
              case Constraint::Kind::kLoadGlobal:
                edge(globalNode(c.src), regs + c.dst, false);
                break;
              case Constraint::Kind::kStoreGlobal:
                edge(regs + c.src, globalNode(c.dst), false);
                break;
              case Constraint::Kind::kFrameLoad:
                edge(frame + c.src, regs + c.dst, false);
                break;
              case Constraint::Kind::kFrameStore:
                edge(regs + c.src, frame + c.dst, false);
                break;
              case Constraint::Kind::kCallArg:
                edge(regs + c.src, regNode(c.callee, c.dst), false);
                break;
              case Constraint::Kind::kCallRet:
                edge(retNode(c.callee), regs + c.dst, false);
                break;
              case Constraint::Kind::kRet:
                edge(regs + c.src, ret, false);
                break;
              case Constraint::Kind::kSeed:
              case Constraint::Kind::kIncomplete:
                node(c, regs + c.dst);
                break;
            }
        }
    };
    Csr edges(n);
    Csr taint_edges(n);
    for (ir::FuncId f = 0; f < nf; ++f) {
        if (module_.func(f).isDeclaration())
            markIncomplete(retNode(f)); // Body unknown.
        visit(
            f,
            [&](uint32_t from, uint32_t, bool taint) {
                (taint ? taint_edges : edges).count(from);
            },
            [&](const Constraint& c, uint32_t dst) {
                if (c.kind == Constraint::Kind::kIncomplete) {
                    markIncomplete(dst);
                } else {
                    seed(dst, {c.target});
                    taken.push_back(c.target);
                }
            });
    }
    edges.allocate();
    taint_edges.allocate();
    // The fill pass also records each node's static in-degree (a taint
    // edge counts 2, saturating at 2) and its last copy source, which
    // the call hubs below walk back along.
    std::vector<uint8_t> inflow(n, 0);
    std::vector<uint32_t> inflow_source(n);
    for (ir::FuncId f = 0; f < nf; ++f)
        visit(
            f,
            [&](uint32_t from, uint32_t to, bool taint) {
                (taint ? taint_edges : edges).add(from, to);
                inflow[to] = static_cast<uint8_t>(
                    std::min(2, inflow[to] + (taint ? 2 : 1)));
                inflow_source[to] = from;
            },
            [](const Constraint&, uint32_t) {});
    stats_.static_edges = static_cast<uint32_t>(edges.size());

    std::sort(taken.begin(), taken.end());
    taken.erase(std::unique(taken.begin(), taken.end()), taken.end());
    address_taken_ = std::move(taken);

    // --- icall sites, grouped into call hubs ---
    struct SiteState
    {
        ir::FuncId func;
        const IcallRecord* rec;
        bool bad_ptr = false;
    };
    std::vector<SiteState> states;
    for (ir::FuncId f = 0; f < nf; ++f) {
        const ir::Function& fn = module_.func(f);
        for (const IcallRecord& rec : summaries_[f].icalls)
            states.push_back({f, &rec, rec.ptr >= fn.num_regs});
    }
    constexpr uint32_t kNoNode = ~0u;
    auto dstNode = [&](const SiteState& st) {
        const ir::Reg dst = st.rec->dst;
        return dst != ir::kNoReg && dst < module_.func(st.func).num_regs
                   ? regNode(st.func, dst)
                   : kNoNode;
    };

    // A node is single-inflow when one static copy edge is all that
    // can ever reach it: it has no other in-edge, no seed or
    // incomplete bit, is no parameter of an address-taken function
    // (dynamic argument edges and taintAddressTakenParams land there)
    // and no icall result (dynamic return edges land there). At the
    // fixpoint it holds exactly its source's set and bit. Pin the last
    // two kinds; seeds show in pts_ and incomplete_ already.
    for (ir::FuncId a : address_taken_) {
        const ir::Function& fa = module_.func(a);
        const uint32_t np = std::min(fa.num_params, fa.num_regs);
        for (uint32_t p = 0; p < np; ++p)
            inflow[regNode(a, p)] = 2;
    }
    for (const SiteState& st : states)
        if (dstNode(st) != kNoNode)
            inflow[dstNode(st)] = 2;
    // Walk a pointer back through single-inflow nodes. Every node on
    // the walk reaches the same fixpoint, so stopping early is sound;
    // the bound ends walks around a single-inflow cycle, whose nodes
    // stay empty forever.
    auto representative = [&](uint32_t node) {
        for (uint32_t step = 0; step < kMaxRepresentativeWalk &&
                                inflow[node] == 1 && !pts_[node] &&
                                !incomplete_[node];
             ++step)
            node = inflow_source[node];
        return node;
    };

    // An icall through an unresolved pointer may invoke any
    // address-taken function: its parameters then hold unknown values.
    bool unresolved_icall_handled = false;
    auto taintAddressTakenParams = [&]() {
        if (unresolved_icall_handled)
            return;
        unresolved_icall_handled = true;
        for (ir::FuncId a : address_taken_) {
            const ir::Function& fa = module_.func(a);
            uint32_t np = std::min(fa.num_params, fa.num_regs);
            for (uint32_t p = 0; p < np; ++p)
                if (markIncomplete(regNode(a, p)))
                    push(regNode(a, p));
        }
    };

    // A wired edge sends at once: its source may already have been
    // popped for the last time.
    auto addDynamicEdge = [&](uint32_t from, uint32_t to) {
        if (dynamic_list[from] == kNoList) {
            dynamic_list[from] = static_cast<uint32_t>(dynamic_edges.size());
            dynamic_edges.emplace_back();
        }
        dynamic_edges[dynamic_list[from]].push_back(to);
        send(from, to);
        ++stats_.dynamic_edges;
    };

    // Sites with one (representative, arity) share a hub: arity
    // argument nodes, then one return node. Each site copies its
    // arguments into the hub and the hub's return into its result;
    // the hub alone is wired to the targets, so edges grow as
    // hubs × targets, not sites × targets. The sends made here change
    // only hub nodes (a return hub is still empty), and the taint of a
    // bad pointer lands on pinned parameters, so each later walk still
    // sees the seeded state.
    struct Hub
    {
        uint32_t rep;   // Representative pointer node.
        uint32_t arity;
        uint32_t base;  // Argument i at base + i, return at base + arity.
        bool has_ret = false;
        SetHandle wired = nullptr; // Targets already wired.
        bool incomplete_handled = false;
    };
    std::vector<Hub> hubs;
    std::unordered_map<uint64_t, uint32_t> hub_of;
    uint32_t next_hub_node = n;
    for (const SiteState& st : states) {
        if (st.bad_ptr) {
            // An out-of-range pointer register is permanently
            // unresolved (the verifier reports the broken function).
            taintAddressTakenParams();
            continue;
        }
        const uint32_t arity = static_cast<uint32_t>(st.rec->args.size());
        const uint32_t rep = representative(regNode(st.func, st.rec->ptr));
        auto [it, added] = hub_of.try_emplace(
            (static_cast<uint64_t>(rep) << 32) | arity,
            static_cast<uint32_t>(hubs.size()));
        if (added) {
            hubs.push_back({rep, arity, next_hub_node});
            next_hub_node += arity + 1;
        }
        Hub& hub = hubs[it->second];
        const uint32_t regs = module_.func(st.func).num_regs;
        for (uint32_t i = 0; i < arity; ++i)
            if (st.rec->args[i] < regs)
                addDynamicEdge(regNode(st.func, st.rec->args[i]),
                               hub.base + i);
        if (dstNode(st) != kNoNode) {
            hub.has_ret = true;
            addDynamicEdge(hub.base + arity, dstNode(st));
        }
    }
    inflow = {};
    inflow_source = {};
    stats_.call_hubs = static_cast<uint32_t>(hubs.size());
    // The hubs that call through each representative node.
    Csr hubs_by_node(n);
    for (const Hub& hub : hubs)
        hubs_by_node.count(hub.rep);
    hubs_by_node.allocate();
    for (uint32_t h = 0; h < hubs.size(); ++h)
        hubs_by_node.add(hubs[h].rep, h);

    // Wire the hub to the targets its representative gained since the
    // last visit: argument i to parameter i of each arity-matched body,
    // and every target's return to the hub's. Hold the current set:
    // wiring can grow pts(rep) itself (self-referential icalls), which
    // re-queues the node and re-runs this diff.
    auto processHub = [&](uint32_t h) {
        Hub& hub = hubs[h];
        const uint32_t ret_hub = hub.base + hub.arity;
        const SetHandle cur = pts_[hub.rep];
        const std::vector<ir::FuncId>& now = elements(cur);
        const std::vector<ir::FuncId>& wired = elements(hub.wired);
        if (now.size() != wired.size()) {
            std::vector<ir::FuncId> fresh;
            std::set_difference(now.begin(), now.end(), wired.begin(),
                                wired.end(), std::back_inserter(fresh));
            hub.wired = cur;
            for (ir::FuncId t : fresh) {
                const ir::Function& tf = module_.func(t);
                if (!tf.isDeclaration() && tf.num_params == hub.arity) {
                    const uint32_t np = std::min(tf.num_params, tf.num_regs);
                    for (uint32_t i = 0; i < np; ++i)
                        addDynamicEdge(hub.base + i, regNode(t, i));
                }
                if (hub.has_ret)
                    addDynamicEdge(retNode(t), ret_hub);
            }
        }
        if (incomplete_[hub.rep] && !hub.incomplete_handled) {
            hub.incomplete_handled = true;
            if (hub.has_ret && markIncomplete(ret_hub))
                push(ret_hub);
            taintAddressTakenParams();
        }
    };

    // --- fixpoint ---
    // A node that holds nothing sends nothing, so only the seeded
    // nodes start on the worklist; every later change pushes its node.
    for (uint32_t nd = 0; nd < n; ++nd)
        if (pts_[nd] || incomplete_[nd])
            push(nd);
    while (!worklist.empty()) {
        uint32_t nd = worklist.back();
        worklist.pop_back();
        on_worklist[nd] = false;
        ++stats_.pops;
        if (dynamic_list[nd] != kNoList)
            for (uint32_t to : dynamic_edges[dynamic_list[nd]])
                send(nd, to);
        if (nd >= n)
            continue; // A hub node has only dynamic edges.
        for (uint32_t to : edges.out(nd))
            send(nd, to);
        for (uint32_t to : taint_edges.out(nd))
            if (markIncomplete(to))
                push(to);
        for (uint32_t h : hubs_by_node.out(nd))
            processHub(h);
    }

    // --- publish per-site results ---
    // Free the solve-only state first, so the published target lists
    // reuse its memory instead of growing the heap past it.
    edges = Csr();
    taint_edges = Csr();
    hubs_by_node = Csr();
    dynamic_list = {};
    dynamic_edges = {};
    pts_.resize(n);
    incomplete_.resize(n);
    for (const SiteState& st : states) {
        const IcallRecord& rec = *st.rec;
        SiteTargets out;
        out.site = rec.site;
        out.func = st.func;
        out.block = rec.block;
        out.index = rec.index;
        out.ptr = rec.ptr;
        out.is_asm = rec.is_asm;
        if (st.bad_ptr) {
            out.incomplete = true;
        } else {
            uint32_t pnode = regNode(st.func, rec.ptr);
            out.incomplete = incomplete_[pnode];
            out.targets = elements(pts_[pnode]);
        }
        if (out.site != ir::kNoSite)
            sites_.emplace(out.site, std::move(out));
    }

    stats_.solve_ms = msSince(t0);
    solved_ = true;
}

const std::map<ir::SiteId, SiteTargets>&
TargetSetAnalysis::sites()
{
    if (!solved_ || summaries_.size() < module_.numFunctions())
        solve();
    return sites_;
}

const SiteTargets*
TargetSetAnalysis::site(ir::SiteId s)
{
    const auto& m = sites();
    auto it = m.find(s);
    return it == m.end() ? nullptr : &it->second;
}

TargetSet
TargetSetAnalysis::regTargets(ir::FuncId f, ir::Reg r)
{
    sites(); // Ensure solved.
    TargetSet ts;
    if (f >= module_.numFunctions() || r >= module_.func(f).num_regs) {
        ts.incomplete = true;
        return ts;
    }
    uint32_t nd = regNode(f, r);
    ts.targets = elements(pts_[nd]);
    ts.incomplete = incomplete_[nd];
    return ts;
}

const std::vector<ir::FuncId>&
TargetSetAnalysis::addressTaken()
{
    sites();
    return address_taken_;
}

const std::vector<BadGlobalSlot>&
TargetSetAnalysis::badGlobalSlots()
{
    sites();
    return bad_slots_;
}

opt::FeasibilityMap
feasibilityMap(TargetSetAnalysis& analysis)
{
    opt::FeasibilityMap out;
    for (const auto& [sid, st] : analysis.sites()) {
        opt::SiteFeasibility f;
        f.complete = st.complete();
        f.targets = st.targets;
        out.emplace(sid, std::move(f));
    }
    return out;
}

// --- residual-attack-surface report ---

SurfaceReport
buildSurfaceReport(TargetSetAnalysis& analysis, uint32_t max_targets)
{
    SurfaceReport rep;
    const ir::Module& m = analysis.module();
    rep.functions = static_cast<uint32_t>(m.numFunctions());
    rep.address_taken =
        static_cast<uint32_t>(analysis.addressTaken().size());
    rep.max_targets = max_targets;

    const auto& sites = analysis.sites();
    uint64_t size_sum = 0;
    for (const auto& [sid, st] : sites) {
        ++rep.icall_sites;
        if (st.is_asm)
            ++rep.asm_sites;
        if (st.complete()) {
            ++rep.complete_sites;
            uint32_t sz = static_cast<uint32_t>(st.targets.size());
            ++rep.set_size_hist[sz];
            size_sum += sz;
            if (!st.is_asm && sz > 0 && sz <= max_targets)
                ++rep.switchpoline_eligible;
        } else {
            ++rep.incomplete_sites;
        }
    }
    if (rep.complete_sites > 0)
        rep.avg_targets = static_cast<double>(size_sum) /
                          static_cast<double>(rep.complete_sites);

    // The pool an unconstrained indirect branch ranges over.
    const double pool =
        static_cast<double>(std::max<uint32_t>(1, rep.address_taken));

    const harden::DefenseConfig configs[] = {
        harden::DefenseConfig::none(),
        harden::DefenseConfig::retpolinesOnly(),
        harden::DefenseConfig::retRetpolinesOnly(),
        harden::DefenseConfig::lviOnly(),
        harden::DefenseConfig::all(),
        harden::DefenseConfig::jumpSwitches(),
    };
    for (const harden::DefenseConfig& cfg : configs) {
        SurfaceDefenseRow row;
        row.defense = cfg.name();
        bool fwd_protected =
            harden::forwardSchemeFor(cfg) != ir::FwdScheme::kNone;
        double allowed_sum = 0;
        for (const auto& [sid, st] : sites) {
            bool prot = fwd_protected && !st.is_asm;
            if (prot)
                ++row.protected_icalls;
            else
                ++row.unprotected_icalls;
            // A protected, complete site is architecturally confined
            // to its static set; anything else may speculatively
            // reach the whole address-taken pool.
            double allowed =
                (prot && st.complete())
                    ? static_cast<double>(st.targets.size())
                    : pool;
            allowed_sum += allowed;
            row.residual_target_pairs +=
                static_cast<uint64_t>(allowed);
        }
        row.air = sites.empty()
                      ? 1.0
                      : 1.0 - allowed_sum /
                                  (pool * static_cast<double>(
                                              sites.size()));
        rep.defenses.push_back(std::move(row));
    }
    return rep;
}

std::string
renderSurfaceText(const SurfaceReport& rep)
{
    std::ostringstream os;
    os << "== residual attack surface: " << rep.module_name << " ==\n";
    os << "functions:            " << rep.functions << "\n";
    os << "address-taken pool:   " << rep.address_taken << "\n";
    os << "icall sites:          " << rep.icall_sites << " ("
       << rep.asm_sites << " asm)\n";
    os << "complete sites:       " << rep.complete_sites << "\n";
    os << "incomplete sites:     " << rep.incomplete_sites << "\n";
    os << "avg targets/site:     " << std::fixed << std::setprecision(2)
       << rep.avg_targets << " (complete sites)\n";
    os << "switchpoline-eligible:" << std::setw(6)
       << rep.switchpoline_eligible << " (complete, 1.."
       << rep.max_targets << " targets)\n";
    os << "\nset-size distribution (complete sites):\n";
    for (const auto& [sz, count] : rep.set_size_hist)
        os << "  |set| = " << std::setw(4) << sz << " : " << count
           << " sites\n";
    os << "\nper-defense residual surface:\n";
    os << "  " << std::left << std::setw(34) << "defense"
       << std::right << std::setw(10) << "protected"
       << std::setw(12) << "unprotected"
       << std::setw(16) << "target pairs"
       << std::setw(8) << "AIR" << "\n";
    for (const SurfaceDefenseRow& row : rep.defenses) {
        os << "  " << std::left << std::setw(34) << row.defense
           << std::right << std::setw(10) << row.protected_icalls
           << std::setw(12) << row.unprotected_icalls
           << std::setw(16) << row.residual_target_pairs
           << std::setw(8) << std::fixed << std::setprecision(4)
           << row.air << "\n";
    }
    return os.str();
}

std::string
renderSurfaceJson(const SurfaceReport& rep)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": \"surface\",\n";
    os << "  \"module\": \"" << jsonEscape(rep.module_name) << "\",\n";
    os << "  \"functions\": " << rep.functions << ",\n";
    os << "  \"address_taken\": " << rep.address_taken << ",\n";
    os << "  \"icall_sites\": " << rep.icall_sites << ",\n";
    os << "  \"asm_sites\": " << rep.asm_sites << ",\n";
    os << "  \"complete_sites\": " << rep.complete_sites << ",\n";
    os << "  \"incomplete_sites\": " << rep.incomplete_sites << ",\n";
    os << "  \"avg_targets\": " << std::fixed << std::setprecision(3)
       << rep.avg_targets << ",\n";
    os << "  \"max_targets\": " << rep.max_targets << ",\n";
    os << "  \"switchpoline_eligible\": " << rep.switchpoline_eligible
       << ",\n";
    os << "  \"set_size_hist\": {";
    bool first = true;
    for (const auto& [sz, count] : rep.set_size_hist) {
        os << (first ? "" : ", ") << "\"" << sz << "\": " << count;
        first = false;
    }
    os << "},\n";
    os << "  \"defenses\": [\n";
    for (size_t i = 0; i < rep.defenses.size(); ++i) {
        const SurfaceDefenseRow& row = rep.defenses[i];
        os << "    {\"defense\": \"" << jsonEscape(row.defense) << "\", "
           << "\"protected_icalls\": " << row.protected_icalls << ", "
           << "\"unprotected_icalls\": " << row.unprotected_icalls
           << ", "
           << "\"residual_target_pairs\": " << row.residual_target_pairs
           << ", "
           << "\"air\": " << std::fixed << std::setprecision(6)
           << row.air << "}"
           << (i + 1 < rep.defenses.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

} // namespace pibe::check
