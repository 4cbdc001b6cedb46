/**
 * @file
 * Andersen-style function-pointer points-to analysis (target sets).
 *
 * See target_sets.h for the abstraction and DESIGN.md §10 for the
 * constraint rules and the soundness argument; DESIGN.md §11 covers
 * the solvers. Two engines compute the same least fixpoint:
 *
 *  - solveReference(): the original naive worklist — whole sets
 *    travel along every edge on every visit. O(E · |sets|) set
 *    unions; kept as the differential-testing oracle.
 *  - solveFast(): SCC condensation of the subset-edge graph
 *    (iterative Tarjan before propagation, lazy cycle detection for
 *    cycles formed by dynamically wired icall edges), difference
 *    propagation (only the delta since the last visit travels), and
 *    a hash-consed interned set pool with memoized unions (op-table
 *    seeding makes thousands of nodes share a handful of sets).
 *
 * Icall argument/return edges are added dynamically as the pointer's
 * set grows. Because the system is monotone and both engines run to
 * the least fixpoint, the solution is independent of processing order
 * and of engine — fast and reference runs produce bit-identical sets.
 */
#include "check/target_sets.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "harden/harden.h"

namespace pibe::check {

namespace {

/** Conventional module entry points (matches checks.cc roots). */
const char* const kDefaultRoots[] = {"kernel_init", "sys_dispatch",
                                     "main"};

bool
isComparison(ir::BinKind k)
{
    return k >= ir::BinKind::kEq;
}

SolverMode
defaultSolverMode()
{
    const char* env = std::getenv("PIBE_TARGET_SOLVER");
    if (env != nullptr &&
        (std::strcmp(env, "reference") == 0 ||
         std::strcmp(env, "naive") == 0))
        return SolverMode::kReference;
    return SolverMode::kFast;
}

} // namespace

TargetSetAnalysis::TargetSetAnalysis(const ir::Module& module,
                                     std::vector<std::string> roots)
    : module_(module), roots_(std::move(roots)),
      mode_(defaultSolverMode())
{
}

void
TargetSetAnalysis::setSolverMode(SolverMode m)
{
    if (mode_ == m)
        return;
    mode_ = m;
    solved_ = false;
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
}

uint32_t
TargetSetAnalysis::regNode(ir::FuncId f, ir::Reg r) const
{
    return reg_base_[f] + r;
}

uint32_t
TargetSetAnalysis::frameNode(ir::FuncId f, uint32_t slot) const
{
    return frame_base_[f] + slot;
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
TargetSetAnalysis::extractSummary(ir::FuncId f)
{
    FuncSummary& sum = summaries_[f];
    sum.constraints.clear();
    sum.icalls.clear();
    sum.dirty = false;
    ++summaries_extracted_;

    const ir::Function& fn = module_.func(f);
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
                    sum.constraints.push_back(c);
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
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kMove:
                if (reg_ok(in.dst) && reg_ok(in.a)) {
                    c.kind = Constraint::Kind::kCopy;
                    c.dst = in.dst;
                    c.src = in.a;
                    sum.constraints.push_back(c);
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
                        sum.constraints.push_back(c);
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
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kStore:
                if (reg_ok(in.b) && in.global < module_.numGlobals()) {
                    c.kind = Constraint::Kind::kStoreGlobal;
                    c.dst = in.global;
                    c.src = in.b;
                    sum.constraints.push_back(c);
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
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kFrameStore:
                if (reg_ok(in.a) && in.imm >= 0 &&
                    in.imm < static_cast<int64_t>(fn.frame_size)) {
                    c.kind = Constraint::Kind::kFrameStore;
                    c.dst = static_cast<uint32_t>(in.imm);
                    c.src = in.a;
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kCall: {
                if (in.callee >= module_.numFunctions()) {
                    if (in.dst != ir::kNoReg && reg_ok(in.dst)) {
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                        sum.constraints.push_back(c);
                    }
                    break;
                }
                const ir::Function& callee = module_.func(in.callee);
                if (!callee.isDeclaration()) {
                    // Arguments flow into parameter registers.
                    uint32_t np = std::min(callee.num_params,
                                           callee.num_regs);
                    for (uint32_t ai = 0;
                         ai < in.args.size() && ai < np; ++ai) {
                        if (!reg_ok(in.args[ai]))
                            continue;
                        c.kind = Constraint::Kind::kCallArg;
                        c.dst = ai;
                        c.src = in.args[ai];
                        c.callee = in.callee;
                        sum.constraints.push_back(c);
                    }
                }
                if (in.dst != ir::kNoReg && reg_ok(in.dst)) {
                    // Declarations' return nodes are seeded
                    // incomplete, so this stays sound for them.
                    c = Constraint{};
                    c.kind = Constraint::Kind::kCallRet;
                    c.dst = in.dst;
                    c.callee = in.callee;
                    sum.constraints.push_back(c);
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
                rec.args = in.args;
                rec.is_asm = in.is_asm;
                sum.icalls.push_back(std::move(rec));
                break;
              }
              case ir::Opcode::kRet:
                if (in.a != ir::kNoReg && reg_ok(in.a)) {
                    c.kind = Constraint::Kind::kRet;
                    c.src = in.a;
                    sum.constraints.push_back(c);
                }
                break;
              default:
                break; // kBr/kCondBr/kSwitch/kSink move no values.
            }
        }
    }
}

void
TargetSetAnalysis::addEdge(uint32_t from, uint32_t to)
{
    edges_[from].push_back(to);
    bool changed = unionInto(to, pts_[from]);
    if (incomplete_[from])
        changed = markIncomplete(to) || changed;
    if (changed)
        push(to);
}

void
TargetSetAnalysis::addTaintEdge(uint32_t from, uint32_t to)
{
    taint_edges_[from].push_back(to);
    if (!pts_[from].empty() || incomplete_[from])
        if (markIncomplete(to))
            push(to);
}

bool
TargetSetAnalysis::unionInto(uint32_t node,
                             const std::vector<ir::FuncId>& add)
{
    if (add.empty())
        return false;
    std::vector<ir::FuncId>& dst = pts_[node];
    if (dst.empty()) {
        dst = add;
        return true;
    }
    std::vector<ir::FuncId> merged;
    merged.reserve(dst.size() + add.size());
    std::set_union(dst.begin(), dst.end(), add.begin(), add.end(),
                   std::back_inserter(merged));
    if (merged.size() == dst.size())
        return false;
    dst = std::move(merged);
    return true;
}

bool
TargetSetAnalysis::markIncomplete(uint32_t node)
{
    if (incomplete_[node])
        return false;
    incomplete_[node] = true;
    return true;
}

void
TargetSetAnalysis::push(uint32_t node)
{
    if (on_worklist_[node])
        return;
    on_worklist_[node] = true;
    worklist_.push_back(node);
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

void
TargetSetAnalysis::prepareSolve()
{
    const size_t nf = module_.numFunctions();
    if (summaries_.size() < nf)
        summaries_.resize(nf);
    for (ir::FuncId f = 0; f < nf; ++f)
        if (summaries_[f].dirty)
            extractSummary(f);
    ++solves_;
    layoutNodes();
}

void
TargetSetAnalysis::solve()
{
    prepareSolve();
    stats_ = SolverStats{};
    stats_.mode = mode_;
    stats_.nodes = num_nodes_;
    auto t0 = std::chrono::steady_clock::now();
    if (mode_ == SolverMode::kReference)
        solveReference();
    else
        solveFast();
    stats_.solve_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    solved_ = true;
}

const std::vector<ir::FuncId>&
TargetSetAnalysis::nodePts(uint32_t node) const
{
    if (mode_ == SolverMode::kReference)
        return pts_[node];
    return pool_sets_[node_set_[node]];
}

void
TargetSetAnalysis::solveReference()
{
    const size_t nf = module_.numFunctions();
    const uint32_t n = num_nodes_;
    pool_sets_.clear();
    node_set_.clear();

    pts_.assign(n, {});
    incomplete_.assign(n, false);
    edges_.assign(n, {});
    taint_edges_.assign(n, {});
    worklist_.clear();
    on_worklist_.assign(n, false);
    sites_.clear();
    bad_slots_.clear();

    std::vector<ir::FuncId> taken;

    // --- seeds: global initializers ---
    for (ir::GlobalId g = 0; g < module_.numGlobals(); ++g) {
        const ir::Global& gl = module_.global(g);
        for (size_t slot = 0; slot < gl.init.size(); ++slot) {
            int64_t v = gl.init[slot];
            if (!ir::isFuncAddrValue(v))
                continue;
            ir::FuncId t = ir::funcAddrTarget(v);
            if (t < nf) {
                unionInto(globalNode(g), {t});
                taken.push_back(t);
            } else {
                bad_slots_.push_back(BadGlobalSlot{g, slot, v});
                markIncomplete(globalNode(g));
            }
        }
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

    // --- static constraints ---
    for (ir::FuncId f = 0; f < nf; ++f) {
        const ir::Function& fn = module_.func(f);
        if (fn.isDeclaration())
            markIncomplete(retNode(f)); // Body unknown.
        for (const Constraint& c : summaries_[f].constraints) {
            switch (c.kind) {
              case Constraint::Kind::kSeed:
                unionInto(regNode(f, c.dst), {c.target});
                taken.push_back(c.target);
                break;
              case Constraint::Kind::kCopy:
                addEdge(regNode(f, c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kTaint:
                addTaintEdge(regNode(f, c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kLoadGlobal:
                addEdge(globalNode(c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kStoreGlobal:
                addEdge(regNode(f, c.src), globalNode(c.dst));
                break;
              case Constraint::Kind::kFrameLoad:
                addEdge(frameNode(f, c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kFrameStore:
                addEdge(regNode(f, c.src), frameNode(f, c.dst));
                break;
              case Constraint::Kind::kCallArg:
                addEdge(regNode(f, c.src), regNode(c.callee, c.dst));
                break;
              case Constraint::Kind::kCallRet:
                addEdge(retNode(c.callee), regNode(f, c.dst));
                break;
              case Constraint::Kind::kRet:
                addEdge(regNode(f, c.src), retNode(f));
                break;
              case Constraint::Kind::kIncomplete:
                markIncomplete(regNode(f, c.dst));
                break;
            }
        }
    }

    std::sort(taken.begin(), taken.end());
    taken.erase(std::unique(taken.begin(), taken.end()), taken.end());
    address_taken_ = std::move(taken);

    // --- icall sites: dynamic edges as pts(ptr) grows ---
    struct SiteState
    {
        ir::FuncId func;
        const IcallRecord* rec;
        std::vector<ir::FuncId> wired; // Targets already wired.
        bool incomplete_handled = false;
        bool bad_ptr = false;
    };
    std::vector<SiteState> states;
    std::vector<std::vector<uint32_t>> sites_by_node(num_nodes_);
    for (ir::FuncId f = 0; f < nf; ++f) {
        const ir::Function& fn = module_.func(f);
        for (const IcallRecord& rec : summaries_[f].icalls) {
            SiteState st;
            st.func = f;
            st.rec = &rec;
            st.bad_ptr = rec.ptr >= fn.num_regs;
            if (!st.bad_ptr)
                sites_by_node[regNode(f, rec.ptr)].push_back(
                    static_cast<uint32_t>(states.size()));
            states.push_back(std::move(st));
        }
    }

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

    auto processSite = [&](uint32_t idx) {
        SiteState& st = states[idx];
        const IcallRecord& rec = *st.rec;
        const ir::Function& fn = module_.func(st.func);
        uint32_t pnode = regNode(st.func, rec.ptr);
        // Wire newly discovered targets. Copy the current set: wiring
        // can grow pts_[pnode] itself (self-referential icalls), which
        // re-queues the node and re-runs this diff.
        std::vector<ir::FuncId> cur = pts_[pnode];
        if (cur.size() != st.wired.size()) {
            std::vector<ir::FuncId> fresh;
            std::set_difference(cur.begin(), cur.end(),
                                st.wired.begin(), st.wired.end(),
                                std::back_inserter(fresh));
            st.wired = cur;
            for (ir::FuncId t : fresh) {
                const ir::Function& tf = module_.func(t);
                if (!tf.isDeclaration() &&
                    tf.num_params == rec.args.size()) {
                    uint32_t np = std::min(tf.num_params, tf.num_regs);
                    for (uint32_t ai = 0; ai < np; ++ai)
                        if (rec.args[ai] < fn.num_regs)
                            addEdge(regNode(st.func, rec.args[ai]),
                                    regNode(t, ai));
                }
                if (rec.dst != ir::kNoReg && rec.dst < fn.num_regs)
                    addEdge(retNode(t), regNode(st.func, rec.dst));
            }
        }
        if (incomplete_[pnode] && !st.incomplete_handled) {
            st.incomplete_handled = true;
            if (rec.dst != ir::kNoReg && rec.dst < fn.num_regs)
                if (markIncomplete(regNode(st.func, rec.dst)))
                    push(regNode(st.func, rec.dst));
            taintAddressTakenParams();
        }
    };

    // Sites whose pointer register is out of range are permanently
    // unresolved (the verifier reports the broken function).
    for (uint32_t i = 0; i < states.size(); ++i)
        if (states[i].bad_ptr)
            taintAddressTakenParams();

    // --- fixpoint ---
    for (uint32_t nd = 0; nd < num_nodes_; ++nd)
        push(nd);
    while (!worklist_.empty()) {
        uint32_t nd = worklist_.back();
        worklist_.pop_back();
        on_worklist_[nd] = false;
        ++stats_.pops;
        for (uint32_t to : edges_[nd]) {
            bool changed = unionInto(to, pts_[nd]);
            if (incomplete_[nd])
                changed = markIncomplete(to) || changed;
            if (changed)
                push(to);
        }
        if (!pts_[nd].empty() || incomplete_[nd])
            for (uint32_t to : taint_edges_[nd])
                if (markIncomplete(to))
                    push(to);
        for (uint32_t sidx : sites_by_node[nd])
            processSite(sidx);
    }

    // --- publish per-site results ---
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
            out.targets = pts_[pnode];
        }
        if (out.site != ir::kNoSite)
            sites_.emplace(out.site, std::move(out));
    }
}

void
TargetSetAnalysis::solveFast()
{
    const size_t nf = module_.numFunctions();
    const uint32_t n = num_nodes_;

    // Reference-solver storage is unused in this mode.
    pts_.clear();
    edges_.clear();
    taint_edges_.clear();
    worklist_.clear();
    on_worklist_.clear();
    sites_.clear();
    bad_slots_.clear();

    // --- hash-consed interned set pool ---
    // Sets live once in pool_sets_ and are named by id; equal content
    // implies equal id, so set comparison is O(1) and the op-table
    // seeding (thousands of loads of the same table) shares storage.
    pool_sets_.clear();
    pool_sets_.emplace_back(); // id 0: the empty set
    std::unordered_map<uint64_t, std::vector<uint32_t>> intern_buckets;
    std::unordered_map<uint64_t, uint32_t> union_memo;
    auto hashSet = [](const std::vector<ir::FuncId>& v) {
        uint64_t h = 1469598103934665603ull;
        for (ir::FuncId f : v) {
            h ^= static_cast<uint64_t>(f) + 0x9e3779b97f4a7c15ull;
            h *= 1099511628211ull;
        }
        return h;
    };
    auto intern = [&](std::vector<ir::FuncId>&& v) -> uint32_t {
        if (v.empty())
            return 0;
        std::vector<uint32_t>& bucket = intern_buckets[hashSet(v)];
        for (uint32_t id : bucket)
            if (pool_sets_[id] == v)
                return id;
        uint32_t id = static_cast<uint32_t>(pool_sets_.size());
        pool_sets_.push_back(std::move(v));
        bucket.push_back(id);
        return id;
    };
    auto singleton = [&](ir::FuncId t) {
        return intern(std::vector<ir::FuncId>{t});
    };
    auto unionSets = [&](uint32_t a, uint32_t b) -> uint32_t {
        if (a == b || b == 0)
            return a;
        if (a == 0)
            return b;
        uint64_t key = a < b ? (static_cast<uint64_t>(a) << 32) | b
                             : (static_cast<uint64_t>(b) << 32) | a;
        auto it = union_memo.find(key);
        if (it != union_memo.end()) {
            ++stats_.union_memo_hits;
            return it->second;
        }
        const std::vector<ir::FuncId>& sa = pool_sets_[a];
        const std::vector<ir::FuncId>& sb = pool_sets_[b];
        std::vector<ir::FuncId> merged;
        merged.reserve(sa.size() + sb.size());
        std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                       std::back_inserter(merged));
        uint32_t id;
        if (merged.size() == sa.size())
            id = a;
        else if (merged.size() == sb.size())
            id = b;
        else
            id = intern(std::move(merged));
        union_memo.emplace(key, id);
        return id;
    };

    // --- union-find: SCC members share a representative ---
    std::vector<uint32_t> uf(n);
    for (uint32_t i = 0; i < n; ++i)
        uf[i] = i;
    auto find = [&](uint32_t x) {
        while (uf[x] != x) {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        return x;
    };

    // Per-node solver state; only representatives are authoritative.
    std::vector<uint32_t> cur(n, 0);  // interned points-to set
    std::vector<uint32_t> prop(n, 0); // part already sent to succs
    std::vector<bool> inc(n, false), inc_prop(n, false);
    std::vector<bool> taint_fired(n, false);
    std::vector<std::vector<uint32_t>> succ(n), taint(n);
    std::vector<std::vector<uint32_t>> site_of(n);

    std::vector<uint32_t> wl;
    std::vector<bool> on_wl(n, false);
    auto pushNode = [&](uint32_t nd) {
        if (!on_wl[nd]) {
            on_wl[nd] = true;
            wl.push_back(nd);
        }
    };
    auto markInc = [&](uint32_t nd) {
        uint32_t r = find(nd);
        if (!inc[r]) {
            inc[r] = true;
            pushNode(r);
        }
    };
    // Collapse `other` into `rep` (both must be representatives).
    // Resetting prop/inc_prop re-propagates the merged set to the
    // merged successor list — idempotent, so correct.
    auto mergeInto = [&](uint32_t rep, uint32_t other) {
        uf[other] = rep;
        cur[rep] = unionSets(cur[rep], cur[other]);
        inc[rep] = inc[rep] || inc[other];
        prop[rep] = 0;
        inc_prop[rep] = false;
        taint_fired[rep] = false;
        auto append = [](std::vector<uint32_t>& dst,
                         std::vector<uint32_t>& src) {
            dst.insert(dst.end(), src.begin(), src.end());
            std::vector<uint32_t>().swap(src);
        };
        append(succ[rep], succ[other]);
        append(taint[rep], taint[other]);
        append(site_of[rep], site_of[other]);
    };

    // --- seeds and static constraints (no propagation yet) ---
    std::vector<ir::FuncId> taken;
    for (ir::GlobalId g = 0; g < module_.numGlobals(); ++g) {
        const ir::Global& gl = module_.global(g);
        for (size_t slot = 0; slot < gl.init.size(); ++slot) {
            int64_t v = gl.init[slot];
            if (!ir::isFuncAddrValue(v))
                continue;
            ir::FuncId t = ir::funcAddrTarget(v);
            if (t < nf) {
                cur[globalNode(g)] =
                    unionSets(cur[globalNode(g)], singleton(t));
                taken.push_back(t);
            } else {
                bad_slots_.push_back(BadGlobalSlot{g, slot, v});
                inc[globalNode(g)] = true;
            }
        }
    }
    auto seedRoot = [&](const std::string& name) {
        ir::FuncId f = module_.findFunction(name);
        if (f == ir::kInvalidFunc)
            return;
        const ir::Function& fn = module_.func(f);
        uint32_t np = std::min(fn.num_params, fn.num_regs);
        for (uint32_t p = 0; p < np; ++p)
            inc[regNode(f, p)] = true;
    };
    if (roots_.empty()) {
        for (const char* name : kDefaultRoots)
            seedRoot(name);
    } else {
        for (const std::string& name : roots_)
            seedRoot(name);
    }

    auto addStaticEdge = [&](uint32_t from, uint32_t to) {
        succ[from].push_back(to);
        ++stats_.static_edges;
    };
    for (ir::FuncId f = 0; f < nf; ++f) {
        const ir::Function& fn = module_.func(f);
        if (fn.isDeclaration())
            inc[retNode(f)] = true; // Body unknown.
        for (const Constraint& c : summaries_[f].constraints) {
            switch (c.kind) {
              case Constraint::Kind::kSeed:
                cur[regNode(f, c.dst)] = unionSets(
                    cur[regNode(f, c.dst)], singleton(c.target));
                taken.push_back(c.target);
                break;
              case Constraint::Kind::kCopy:
                addStaticEdge(regNode(f, c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kTaint:
                taint[regNode(f, c.src)].push_back(
                    regNode(f, c.dst));
                break;
              case Constraint::Kind::kLoadGlobal:
                addStaticEdge(globalNode(c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kStoreGlobal:
                addStaticEdge(regNode(f, c.src), globalNode(c.dst));
                break;
              case Constraint::Kind::kFrameLoad:
                addStaticEdge(frameNode(f, c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kFrameStore:
                addStaticEdge(regNode(f, c.src), frameNode(f, c.dst));
                break;
              case Constraint::Kind::kCallArg:
                addStaticEdge(regNode(f, c.src),
                              regNode(c.callee, c.dst));
                break;
              case Constraint::Kind::kCallRet:
                addStaticEdge(retNode(c.callee), regNode(f, c.dst));
                break;
              case Constraint::Kind::kRet:
                addStaticEdge(regNode(f, c.src), retNode(f));
                break;
              case Constraint::Kind::kIncomplete:
                inc[regNode(f, c.dst)] = true;
                break;
            }
        }
    }

    std::sort(taken.begin(), taken.end());
    taken.erase(std::unique(taken.begin(), taken.end()), taken.end());
    address_taken_ = std::move(taken);

    // --- icall sites (dynamic edges wired as pts(ptr) grows) ---
    struct SiteState
    {
        ir::FuncId func;
        const IcallRecord* rec;
        uint32_t wired = 0; // Interned set of already-wired targets.
        bool incomplete_handled = false;
        bool bad_ptr = false;
    };
    std::vector<SiteState> states;
    for (ir::FuncId f = 0; f < nf; ++f) {
        const ir::Function& fn = module_.func(f);
        for (const IcallRecord& rec : summaries_[f].icalls) {
            SiteState st;
            st.func = f;
            st.rec = &rec;
            st.bad_ptr = rec.ptr >= fn.num_regs;
            if (!st.bad_ptr)
                site_of[regNode(f, rec.ptr)].push_back(
                    static_cast<uint32_t>(states.size()));
            states.push_back(st);
        }
    }

    // --- offline SCC condensation ---
    // Collapsing copy cycles up front turns the deep-chain /
    // op-table-cycle shapes into single nodes before any set moves.
    // Two phases: a cheap Kahn peel strips the (usually dominant)
    // acyclic portion and yields a topological order for the peeled
    // nodes; iterative Tarjan then condenses only the unpeeled
    // residue, which is exactly the cycles plus what they reach. On
    // an acyclic graph the residue is empty and Tarjan never runs.
    std::vector<uint32_t> topo; // Peeled nodes, topological order.
    {
        std::vector<uint32_t> indeg(n, 0);
        for (uint32_t v = 0; v < n; ++v)
            for (uint32_t w : succ[v])
                ++indeg[w];
        topo.reserve(n);
        for (uint32_t v = 0; v < n; ++v)
            if (indeg[v] == 0)
                topo.push_back(v);
        for (size_t i = 0; i < topo.size(); ++i)
            for (uint32_t w : succ[topo[i]])
                if (--indeg[w] == 0)
                    topo.push_back(w);

        if (topo.size() < n) {
            // Residue exists: condense it with iterative Tarjan.
            // Peeled nodes are marked visited-off-stack so the DFS
            // treats edges into them as cross edges.
            constexpr uint32_t kDone = 0xffffffffu;
            std::vector<uint32_t> index(n, 0), low(n, 0);
            for (uint32_t v : topo)
                index[v] = kDone;
            std::vector<bool> on_stack(n, false);
            std::vector<uint32_t> scc_stack;
            struct Frame
            {
                uint32_t node;
                uint32_t child;
            };
            std::vector<Frame> dfs;
            std::vector<uint32_t> members;
            uint32_t next_index = 1;
            for (uint32_t root = 0; root < n; ++root) {
                if (index[root] != 0)
                    continue;
                dfs.push_back(Frame{root, 0});
                while (!dfs.empty()) {
                    Frame& fr = dfs.back();
                    uint32_t v = fr.node;
                    if (fr.child == 0) {
                        index[v] = low[v] = next_index++;
                        scc_stack.push_back(v);
                        on_stack[v] = true;
                    }
                    if (fr.child < succ[v].size()) {
                        uint32_t w = succ[v][fr.child++];
                        if (index[w] == 0) {
                            dfs.push_back(Frame{w, 0});
                        } else if (on_stack[w]) {
                            low[v] = std::min(low[v], index[w]);
                        }
                        continue;
                    }
                    if (low[v] == index[v]) {
                        members.clear();
                        while (true) {
                            uint32_t w = scc_stack.back();
                            scc_stack.pop_back();
                            on_stack[w] = false;
                            members.push_back(w);
                            if (w == v)
                                break;
                        }
                        if (members.size() > 1) {
                            uint32_t rep = *std::min_element(
                                members.begin(), members.end());
                            for (uint32_t w : members)
                                if (w != rep)
                                    mergeInto(rep, w);
                            stats_.scc_collapsed +=
                                static_cast<uint32_t>(
                                    members.size() - 1);
                        }
                    }
                    dfs.pop_back();
                    if (!dfs.empty()) {
                        uint32_t p = dfs.back().node;
                        low[p] = std::min(low[p], low[v]);
                    }
                }
            }
        }
    }

    // Normalize representative edge lists after collapsing: remap
    // through find, dedup, drop subset self-loops (taint self-loops
    // stay: an active node with a taint edge onto itself is
    // incomplete). With no SCCs the lists are already canonical
    // enough — duplicates are harmless (propagation is idempotent).
    if (stats_.scc_collapsed > 0) {
        for (uint32_t nd = 0; nd < n; ++nd) {
            if (find(nd) != nd)
                continue;
            auto norm = [&](std::vector<uint32_t>& es,
                            bool drop_self) {
                for (uint32_t& e : es)
                    e = find(e);
                std::sort(es.begin(), es.end());
                es.erase(std::unique(es.begin(), es.end()),
                         es.end());
                if (drop_self)
                    es.erase(std::remove(es.begin(), es.end(), nd),
                             es.end());
            };
            norm(succ[nd], true);
            norm(taint[nd], false);
        }
    }

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
                markInc(regNode(a, p));
        }
    };

    auto addDynEdge = [&](uint32_t from, uint32_t to) {
        uint32_t rf = find(from);
        uint32_t rt = find(to);
        if (rf == rt)
            return;
        succ[rf].push_back(rt);
        ++stats_.dynamic_edges;
        // New edges carry the source's full current set immediately;
        // later visits of rf send deltas only.
        uint32_t ns = unionSets(cur[rt], cur[rf]);
        bool changed = ns != cur[rt];
        cur[rt] = ns;
        if (inc[rf] && !inc[rt]) {
            inc[rt] = true;
            changed = true;
        }
        if (changed)
            pushNode(rt);
    };

    auto processSite = [&](uint32_t idx) {
        SiteState& st = states[idx];
        const IcallRecord& rec = *st.rec;
        const ir::Function& fn = module_.func(st.func);
        if (st.bad_ptr)
            return;
        uint32_t pn = find(regNode(st.func, rec.ptr));
        uint32_t c = cur[pn];
        if (c != st.wired) {
            // Equal content implies equal id, so the diff is exactly
            // the targets discovered since the last visit.
            std::vector<ir::FuncId> fresh;
            {
                const std::vector<ir::FuncId>& cs = pool_sets_[c];
                const std::vector<ir::FuncId>& ws =
                    pool_sets_[st.wired];
                std::set_difference(cs.begin(), cs.end(), ws.begin(),
                                    ws.end(),
                                    std::back_inserter(fresh));
            }
            st.wired = c;
            for (ir::FuncId t : fresh) {
                const ir::Function& tf = module_.func(t);
                if (!tf.isDeclaration() &&
                    tf.num_params == rec.args.size()) {
                    uint32_t np = std::min(tf.num_params, tf.num_regs);
                    for (uint32_t ai = 0; ai < np; ++ai)
                        if (rec.args[ai] < fn.num_regs)
                            addDynEdge(
                                regNode(st.func, rec.args[ai]),
                                regNode(t, ai));
                }
                if (rec.dst != ir::kNoReg && rec.dst < fn.num_regs)
                    addDynEdge(retNode(t),
                               regNode(st.func, rec.dst));
            }
        }
        if (inc[pn] && !st.incomplete_handled) {
            st.incomplete_handled = true;
            if (rec.dst != ir::kNoReg && rec.dst < fn.num_regs)
                markInc(regNode(st.func, rec.dst));
            taintAddressTakenParams();
        }
    };

    // Sites whose pointer register is out of range are permanently
    // unresolved (the verifier reports the broken function).
    for (const SiteState& st : states)
        if (st.bad_ptr)
            taintAddressTakenParams();

    // --- lazy cycle detection ---
    // Dynamically wired icall edges can close new cycles the offline
    // pass never saw. When a propagation leaves src and dst with the
    // same non-empty set, suspect a cycle and run one bounded search
    // for a back path; collapse it if found (Hardekopf-Lin LCD).
    std::unordered_set<uint64_t> lcd_attempted;
    std::vector<std::pair<uint32_t, uint32_t>> lcd_pending;
    constexpr size_t kLcdVisitCap = 4096;
    auto lcdTry = [&](uint32_t xraw, uint32_t yraw) {
        uint32_t x = find(xraw);
        uint32_t y = find(yraw);
        if (x == y)
            return;
        uint64_t key = (static_cast<uint64_t>(x) << 32) | y;
        if (!lcd_attempted.insert(key).second)
            return;
        std::unordered_map<uint32_t, uint32_t> parent;
        std::vector<uint32_t> stack{y};
        parent.emplace(y, y);
        bool found = false;
        size_t visited = 0;
        while (!stack.empty() && !found) {
            uint32_t v = stack.back();
            stack.pop_back();
            if (++visited > kLcdVisitCap)
                break;
            for (uint32_t wraw : succ[v]) {
                uint32_t w = find(wraw);
                if (w == v || !parent.emplace(w, v).second)
                    continue;
                if (w == x) {
                    found = true;
                    break;
                }
                // Cycle members converge to the same set; restricting
                // the search keeps it near the suspected cycle.
                if (cur[w] == cur[x])
                    stack.push_back(w);
            }
        }
        if (!found)
            return;
        uint32_t rep = x;
        uint32_t v = parent.at(x);
        while (true) {
            uint32_t rv = find(v);
            if (rv != rep) {
                mergeInto(rep, rv);
                ++stats_.lcd_collapsed;
            }
            if (v == y)
                break;
            v = parent.at(v);
        }
        pushNode(rep);
    };

    // --- difference-propagation fixpoint ---
    // Only active nodes (a seeded set or an incompleteness bit) can
    // contribute anything; everything else waits to be woken by a
    // predecessor. The reference solver pushes every node instead —
    // same fixpoint, monotonicity makes the seeds sufficient.
    // Seeding in reverse topological order makes the LIFO worklist
    // drain the acyclic portion downstream in near one pass.
    if (topo.size() < n) {
        std::vector<bool> peeled(n, false);
        for (uint32_t v : topo)
            peeled[v] = true;
        for (uint32_t nd = 0; nd < n; ++nd)
            if (!peeled[nd] && find(nd) == nd &&
                (cur[nd] != 0 || inc[nd]))
                pushNode(nd);
    }
    for (size_t i = topo.size(); i-- > 0;) {
        uint32_t nd = topo[i];
        if (find(nd) == nd && (cur[nd] != 0 || inc[nd]))
            pushNode(nd);
    }

    while (!wl.empty()) {
        uint32_t nd = wl.back();
        wl.pop_back();
        on_wl[nd] = false;
        if (find(nd) != nd)
            continue; // Merged away while queued.
        ++stats_.pops;

        if ((cur[nd] != 0 || inc[nd]) && !taint_fired[nd]) {
            taint_fired[nd] = true;
            for (size_t i = 0; i < taint[nd].size(); ++i)
                markInc(taint[nd][i]);
        }

        uint32_t c = cur[nd];
        uint32_t delta = 0;
        if (c != prop[nd]) {
            if (prop[nd] == 0) {
                delta = c;
            } else {
                std::vector<ir::FuncId> d;
                const std::vector<ir::FuncId>& cs = pool_sets_[c];
                const std::vector<ir::FuncId>& ps =
                    pool_sets_[prop[nd]];
                std::set_difference(cs.begin(), cs.end(), ps.begin(),
                                    ps.end(), std::back_inserter(d));
                delta = intern(std::move(d));
            }
        }
        bool push_inc = inc[nd] && !inc_prop[nd];
        if (delta != 0 || push_inc) {
            for (size_t i = 0; i < succ[nd].size(); ++i) {
                uint32_t s = find(succ[nd][i]);
                if (s == nd)
                    continue;
                uint32_t ns = unionSets(cur[s], delta);
                bool changed = ns != cur[s];
                cur[s] = ns;
                if (push_inc && !inc[s]) {
                    inc[s] = true;
                    changed = true;
                }
                if (changed)
                    pushNode(s);
                else if (delta != 0 && c != 0 && cur[s] == c)
                    lcd_pending.emplace_back(nd, s);
            }
            prop[nd] = c;
            inc_prop[nd] = inc[nd];
        }

        for (size_t i = 0; i < site_of[nd].size(); ++i)
            processSite(site_of[nd][i]);

        if (!lcd_pending.empty()) {
            for (auto [x, y] : lcd_pending)
                lcdTry(x, y);
            lcd_pending.clear();
        }
    }

    stats_.interned_sets =
        static_cast<uint32_t>(pool_sets_.size() - 1);

    // --- publish per-node and per-site results ---
    node_set_.assign(n, 0);
    incomplete_.assign(n, false);
    for (uint32_t nd = 0; nd < n; ++nd) {
        uint32_t r = find(nd);
        node_set_[nd] = cur[r];
        incomplete_[nd] = inc[r];
    }

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
            uint32_t pn = regNode(st.func, rec.ptr);
            out.incomplete = incomplete_[pn];
            out.targets = nodePts(pn);
        }
        if (out.site != ir::kNoSite)
            sites_.emplace(out.site, std::move(out));
    }
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
    ts.targets = nodePts(nd);
    ts.incomplete = nodeIncomplete(nd);
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
    os << "  \"module\": \"" << rep.module_name << "\",\n";
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
        os << "    {\"defense\": \"" << row.defense << "\", "
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
