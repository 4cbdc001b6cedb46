/**
 * @file
 * pibe — command-line driver for the PIBE toolkit.
 *
 * Mirrors the paper's build workflow (LLVM bitcode + opt passes) over
 * PIR text files:
 *
 *   pibe kernel   -o kernel.pir [--drivers N] [--seed S]
 *   pibe profile  -m kernel.pir -o prof.txt [--workload W] [--iters N]
 *   pibe optimize -m kernel.pir -p prof.txt -o image.pir
 *                 [--icp-budget F] [--inline-budget F] [--lax]
 *                 [--inliner pibe|default|none]
 *                 [--defense none|retpolines|ret-retpolines|lvi|all|
 *                            jumpswitches] [--report]
 *   pibe measure  -m image.pir [--baseline base.pir] [--test NAME]
 *                 [--jobs N] [--cache-dir DIR] [--decode-stats]
 *                 [--decode-stats-json FILE]
 *   pibe attack   -m image.pir [--kind spectre-v2|ret2spec|lvi]
 *   pibe stats    -m file.pir
 *   pibe check    -m file.pir [-p prof.txt] [--defense NAME]
 *                 [--checks verify,lint,coverage,profile,targets]
 *                 [--json] [--fail-on note|warn|error] [--roots a,b,c]
 *                 [--allow-func f,g] [--allow-site 1,2] [--timing]
 *   pibe surface  -m file.pir [-p prof.txt] [--json FILE]
 *                 [--max-targets N] [--fail-on note|warn|error]
 *                 [--roots a,b,c]
 *   pibe serve    [--socket PATH] [--tcp PORT] [--jobs N]
 *                 [--cache-dir DIR] [--cache-budget BYTES]
 *                 [--drivers N] [--seed S] [--profile-iters N]
 *                 [--max-inflight N] [--defense NAME]
 *                 [--fail-on note|warn|error] [--auth-token T]
 *   pibe loadgen  [--socket PATH] [--tcp PORT] [--requests N]
 *                 [--clients N] [--seed S] [--variants N]
 *                 [--verify N] [--out FILE] [--auth-token T]
 *   pibe client   --op NAME [--params JSON] [--socket PATH]
 *                 [--tcp PORT] [--save-text FILE] [--auth-token T]
 *
 * --auth-token defaults to $PIBE_SERVE_TOKEN; when the daemon has a
 * token, TCP connections must authenticate before any other op.
 *   pibe genkernel -o big.pir [--insts N] [--seed S]
 *                 [--profile prof.txt] [--depth N] [--fanout F]
 *                 [--icalls-per-kinst F] [--ops-per-table N]
 *                 [--entry-points N] [--mix core,fs,net,drivers]
 *   pibe scalebench [--sizes N,N,...] [--seed S]
 *                 [--out BENCH_scale.json]
 *   pibe selftest            (end-to-end smoke of all subcommands)
 *
 * `check` and `scalebench` reject options they do not know.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/checks.h"
#include "check/target_sets.h"
#include "harden/harden.h"
#include "ir/parser.h"
#include "pibe/engine.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "kernel/kernel.h"
#include "pibe/experiment.h"
#include "pibe/pipeline.h"
#include "profile/serialize.h"
#include "runtime/artifact_cache.h"
#include "runtime/job_graph.h"
#include "runtime/thread_pool.h"
#include "scale/parallel_pipeline.h"
#include "scale/scale_builder.h"
#include "scale/synthetic_profile.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "support/stats.h"
#include "support/table.h"
#include "uarch/simulator.h"
#include "uarch/speculation.h"

namespace pibe::cli {
namespace {

/** Minimal argv option scanner. */
class Args
{
  public:
    Args(int argc, char** argv)
    {
        for (int i = 0; i < argc; ++i)
            args_.emplace_back(argv[i]);
    }

    std::string
    get(const std::string& flag, const std::string& fallback = "")
    {
        const std::string eq = flag + "=";
        for (size_t i = 0; i < args_.size(); ++i) {
            if (args_[i] == flag && i + 1 < args_.size()) {
                used_[i] = used_[i + 1] = true;
                return args_[i + 1];
            }
            if (args_[i].rfind(eq, 0) == 0) {
                used_[i] = true;
                return args_[i].substr(eq.size());
            }
        }
        return fallback;
    }

    bool
    has(const std::string& flag)
    {
        for (size_t i = 0; i < args_.size(); ++i) {
            if (args_[i] == flag) {
                used_[i] = true;
                return true;
            }
        }
        return false;
    }

    /** Die on the first argument no get()/has() call consumed. */
    void
    rejectUnused(const std::string& cmd)
    {
        for (size_t i = 0; i < args_.size(); ++i)
            if (!used_[i])
                PIBE_FATAL(cmd, ": unknown option '", args_[i], "'");
    }

  private:
    std::vector<std::string> args_;
    std::map<size_t, bool> used_;
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        PIBE_FATAL("cannot open ", path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        PIBE_FATAL("cannot write ", path);
    out << contents;
}

/**
 * The one verification choke point for module input: every subcommand
 * that consumes PIR text funnels through here (or through check::
 * runChecks, which subsumes the verifier).
 */
ir::Module
parseAndVerify(const std::string& text, const std::string& context)
{
    ir::Module m = ir::parseModule(text);
    ir::verifyOrDie(m, context);
    return m;
}

ir::Module
loadModule(const std::string& path)
{
    return parseAndVerify(readFile(path), path);
}

/** Split a comma-separated list; empty input yields an empty list. */
std::vector<std::string>
splitList(const std::string& s)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(s);
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** PIBE_SERVE_TOKEN, the fallback for every --auth-token flag. */
std::string
envAuthToken()
{
    const char* token = std::getenv("PIBE_SERVE_TOKEN");
    return token ? token : "";
}

harden::DefenseConfig
defenseByName(const std::string& name)
{
    // The library's registry is the one source of truth; the CLI only
    // adds the fatal-on-typo policy.
    if (std::optional<harden::DefenseConfig> defense =
            harden::defenseByName(name))
        return *defense;
    PIBE_FATAL("unknown defense '", name, "'");
}

std::vector<std::unique_ptr<workload::Workload>>
workloadByName(const std::string& name)
{
    std::vector<std::unique_ptr<workload::Workload>> suite;
    if (name == "lmbench") {
        suite = workload::makeLmbenchSuite();
    } else if (name == "apache") {
        suite.push_back(workload::makeApacheWorkload());
    } else if (name == "nginx") {
        suite.push_back(workload::makeNginxWorkload());
    } else if (name == "dbench") {
        suite.push_back(workload::makeDbenchWorkload());
    } else {
        suite.push_back(workload::makeLmbenchTest(name));
    }
    return suite;
}

int
cmdKernel(Args& args)
{
    kernel::KernelConfig cfg;
    cfg.num_drivers = static_cast<uint32_t>(
        std::stoul(args.get("--drivers", "448")));
    cfg.seed = std::stoull(args.get("--seed", "42"));
    kernel::KernelImage k = kernel::buildKernel(cfg);
    std::string out = args.get("-o", "kernel.pir");
    writeFile(out, ir::printModule(k.module));
    std::printf("wrote %s (%zu functions)\n", out.c_str(),
                k.module.numFunctions());
    return 0;
}

int
cmdProfile(Args& args)
{
    ir::Module m = loadModule(args.get("-m", "kernel.pir"));
    kernel::KernelInfo info = kernel::kernelInfoFromModule(m);
    uint32_t iters = static_cast<uint32_t>(
        std::stoul(args.get("--iters", "120")));
    profile::EdgeProfile profile;
    if (args.has("--train")) {
        // The canonical scaled training profile — the exact profile
        // the experiment engine and the serve daemon build from, so a
        // CLI run is byte-comparable with their cached artifacts.
        profile = core::collectLmbenchProfile(m, info, iters);
    } else {
        auto suite = workloadByName(args.get("--workload", "lmbench"));
        profile = core::collectProfile(m, info, suite, iters);
    }
    std::string out = args.get("-o", "profile.txt");
    writeFile(out, profile::serializeProfile(m, profile));
    std::printf("wrote %s (%zu direct sites, %zu indirect sites)\n",
                out.c_str(), profile.numDirectSites(),
                profile.numIndirectSites());
    return 0;
}

int
cmdOptimize(Args& args)
{
    ir::Module m = loadModule(args.get("-m", "kernel.pir"));
    auto profile =
        profile::liftProfile(m, readFile(args.get("-p", "profile.txt")));

    core::OptConfig opt;
    opt.icp_budget = std::stod(args.get("--icp-budget", "0.99999"));
    opt.inline_budget =
        std::stod(args.get("--inline-budget", "0.999999"));
    opt.lax_heuristics = args.has("--lax");
    std::string inliner = args.get("--inliner", "pibe");
    if (inliner == "pibe")
        opt.inliner = core::InlinerKind::kPibe;
    else if (inliner == "default")
        opt.inliner = core::InlinerKind::kDefaultLlvm;
    else if (inliner == "none")
        opt.inliner = core::InlinerKind::kNone;
    else
        PIBE_FATAL("unknown inliner '", inliner, "'");

    harden::DefenseConfig defense =
        defenseByName(args.get("--defense", "all"));

    core::BuildReport report;
    ir::Module image =
        core::buildImage(m, profile, opt, defense, &report);
    std::string out = args.get("-o", "image.pir");
    writeFile(out, ir::printModule(image));
    std::printf("wrote %s\n", out.c_str());
    if (args.has("--report")) {
        std::printf("  promoted: %u targets at %u sites\n",
                    report.icp.promoted_targets,
                    report.icp.promoted_sites);
        std::printf("  inlined:  %u sites (%llu weight)\n",
                    report.inlining.inlined_sites,
                    static_cast<unsigned long long>(
                        report.inlining.inlined_weight));
        std::printf("  coverage: %u protected icalls, %u vulnerable "
                    "icalls, %u vulnerable ijumps\n",
                    report.coverage.protected_icalls,
                    report.coverage.vulnerable_icalls,
                    report.coverage.vulnerable_ijumps);
        std::printf("  size:     %llu -> %llu bytes\n",
                    static_cast<unsigned long long>(
                        report.baseline_image_size),
                    static_cast<unsigned long long>(report.image_size));
    }
    return 0;
}

int
cmdMeasure(Args& args)
{
    const std::string image_path = args.get("-m", "image.pir");
    const std::string image_text = readFile(image_path);
    ir::Module m = parseAndVerify(image_text, image_path);
    kernel::KernelInfo info = kernel::kernelInfoFromModule(m);
    std::string test = args.get("--test", "all");
    std::string baseline_path = args.get("--baseline");
    unsigned jobs = static_cast<unsigned>(
        std::stoul(args.get("--jobs", "1")));
    std::string cache_dir = args.get("--cache-dir");
    const std::string decode_stats_json =
        args.get("--decode-stats-json");
    const bool decode_stats =
        args.has("--decode-stats") || !decode_stats_json.empty();

    using Clock = std::chrono::steady_clock;
    const Clock::time_point decode_t0 = Clock::now();
    const auto decoded = std::make_shared<const uarch::DecodedModule>(m);
    const double decode_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  decode_t0)
            .count();

    runtime::ArtifactCache cache;
    if (!cache_dir.empty())
        cache.setDiskDir(cache_dir);

    std::vector<std::string> tests;
    if (test == "all") {
        for (const auto& wl : workload::makeLmbenchSuite())
            tests.push_back(wl->name());
    } else {
        tests.push_back(test);
    }

    std::string base_text;
    std::unique_ptr<ir::Module> base_mod;
    kernel::KernelInfo base_info;
    std::shared_ptr<const uarch::DecodedModule> base_decoded;
    if (!baseline_path.empty()) {
        base_text = readFile(baseline_path);
        base_mod = std::make_unique<ir::Module>(
            parseAndVerify(base_text, baseline_path));
        base_info = kernel::kernelInfoFromModule(*base_mod);
        base_decoded =
            std::make_shared<const uarch::DecodedModule>(*base_mod);
    }

    // One job per (image, test), each writing its own pre-sized slot;
    // results are position-addressed so --jobs N output is identical
    // to serial.
    const core::MeasureConfig config;
    std::vector<double> lat(tests.size());
    std::vector<double> base_lat(tests.size());
    std::vector<uint64_t> run_insts(tests.size());
    std::vector<double> run_ms(tests.size());
    std::vector<std::array<uint64_t, uarch::kNumFusedFamilies>>
        run_fused(tests.size());
    runtime::JobGraph graph;
    for (size_t i = 0; i < tests.size(); ++i) {
        graph.add("measure:" + tests[i],
                  [&, i](const runtime::JobContext&) {
                      const Clock::time_point t0 = Clock::now();
                      const core::Measurement meas =
                          core::measureWorkloadCached(
                              image_text, decoded, info, tests[i],
                              config, &cache);
                      run_ms[i] = std::chrono::duration<double,
                                                        std::milli>(
                                      Clock::now() - t0)
                                      .count();
                      lat[i] = meas.latency_us;
                      run_insts[i] = meas.stats.instructions;
                      run_fused[i] = meas.stats.fused;
                  });
        if (base_mod) {
            graph.add("baseline:" + tests[i],
                      [&, i](const runtime::JobContext&) {
                          base_lat[i] =
                              core::measureWorkloadCached(
                                  base_text, base_decoded, base_info,
                                  tests[i], config, &cache)
                                  .latency_us;
                      });
        }
    }
    runtime::ThreadPool pool(std::max(1u, jobs));
    graph.run(pool);
    pool.shutdown();

    Table t(baseline_path.empty()
                ? std::vector<std::string>{"Test", "latency (us)"}
                : std::vector<std::string>{"Test", "latency (us)",
                                           "overhead"});
    std::vector<double> overheads;
    for (size_t i = 0; i < tests.size(); ++i) {
        std::vector<std::string> row{tests[i], fixedStr(lat[i], 3)};
        if (base_mod) {
            double o = overhead(lat[i], base_lat[i]);
            overheads.push_back(o);
            row.push_back(percent(o));
        }
        t.addRow(row);
    }
    if (overheads.size() > 1) {
        t.addSeparator();
        t.addRow({"Geometric Mean", "-",
                  percent(geomeanOverhead(overheads))});
    }
    std::printf("%s", t.render().c_str());

    if (decode_stats) {
        // Host-side interpreter throughput: simulated instructions per
        // host second of each measurement run (warmup + measured
        // phases). A cache hit replays stored counters without
        // interpreting, which shows up as an absurd rate — run with a
        // cold cache for meaningful numbers.
        Table dt({"Test", "sim insts", "run (ms)", "MIPS"});
        for (size_t i = 0; i < tests.size(); ++i) {
            const double mips =
                run_ms[i] > 0 ? static_cast<double>(run_insts[i]) /
                                    (run_ms[i] * 1e3)
                              : 0;
            dt.addRow({tests[i], std::to_string(run_insts[i]),
                       fixedStr(run_ms[i], 2), fixedStr(mips, 1)});
        }
        dt.addSeparator();
        dt.addRow({"decode time (ms)", "-", fixedStr(decode_ms, 2),
                   "-"});
        dt.addRow({"decoded stream",
                   std::to_string(decoded->decodedBytes()) + " bytes",
                   "-", "-"});
        dt.addRow({"decoded insts",
                   std::to_string(decoded->code().size()), "-", "-"});
        std::printf("\ndecode stats:\n%s", dt.render().c_str());

        // The evidence the superinstruction set was selected from:
        // static opcode and intra-block digram histograms, plus how
        // often each fusion family fired statically (rewritten sites)
        // and dynamically (superinstruction executions summed over
        // the measured workloads).
        const uarch::DecodeStats& ds = decoded->decodeStats();
        Table ot({"opcode", "static count"});
        for (size_t o = 0; o < uarch::kNumIrOpcodes; ++o) {
            if (ds.op_count[o] == 0)
                continue;
            ot.addRow({ir::opcodeName(static_cast<ir::Opcode>(o)),
                       std::to_string(ds.op_count[o])});
        }
        std::printf("\nopcode histogram:\n%s", ot.render().c_str());

        struct Digram
        {
            uint64_t n;
            size_t a, b;
        };
        std::vector<Digram> digrams;
        for (size_t a = 0; a < uarch::kNumIrOpcodes; ++a)
            for (size_t b = 0; b < uarch::kNumIrOpcodes; ++b)
                if (ds.digram[a][b] > 0)
                    digrams.push_back({ds.digram[a][b], a, b});
        std::sort(digrams.begin(), digrams.end(),
                  [](const Digram& x, const Digram& y) {
                      return x.n > y.n;
                  });
        Table gt({"digram", "static count"});
        for (size_t i = 0; i < digrams.size() && i < 12; ++i) {
            gt.addRow(
                {std::string(ir::opcodeName(
                     static_cast<ir::Opcode>(digrams[i].a))) +
                     "+" +
                     ir::opcodeName(
                         static_cast<ir::Opcode>(digrams[i].b)),
                 std::to_string(digrams[i].n)});
        }
        std::printf("\ntop intra-block digrams:\n%s",
                    gt.render().c_str());

        std::array<uint64_t, uarch::kNumFusedFamilies> fused_execs{};
        for (const auto& per_test : run_fused)
            for (size_t f = 0; f < uarch::kNumFusedFamilies; ++f)
                fused_execs[f] += per_test[f];
        Table ft({"fused family", "static sites", "dynamic execs"});
        for (size_t f = 0; f < uarch::kNumFusedFamilies; ++f) {
            ft.addRow({uarch::fusedFamilyName(
                           static_cast<uarch::FusedFamily>(f)),
                       std::to_string(ds.fused_sites[f]),
                       std::to_string(fused_execs[f])});
        }
        ft.addSeparator();
        ft.addRow({"total pairs", std::to_string(ds.fused_pairs),
                   "-"});
        std::printf("\nsuperinstruction fusion:\n%s",
                    ft.render().c_str());

        if (!decode_stats_json.empty()) {
            std::FILE* out = std::fopen(decode_stats_json.c_str(),
                                        "w");
            if (!out)
                PIBE_FATAL("cannot write ", decode_stats_json);
            std::fprintf(out, "{\n");
            std::fprintf(out, "  \"decode_ms\": %.3f,\n", decode_ms);
            std::fprintf(out, "  \"decoded_insts\": %zu,\n",
                         decoded->code().size());
            std::fprintf(out, "  \"decoded_bytes\": %zu,\n",
                         decoded->decodedBytes());
            std::fprintf(out, "  \"opcodes\": {");
            bool first = true;
            for (size_t o = 0; o < uarch::kNumIrOpcodes; ++o) {
                if (ds.op_count[o] == 0)
                    continue;
                std::fprintf(
                    out, "%s\n    \"%s\": %llu", first ? "" : ",",
                    ir::opcodeName(static_cast<ir::Opcode>(o)),
                    static_cast<unsigned long long>(ds.op_count[o]));
                first = false;
            }
            std::fprintf(out, "\n  },\n");
            std::fprintf(out, "  \"digrams\": {");
            first = true;
            for (const Digram& d : digrams) {
                std::fprintf(
                    out, "%s\n    \"%s+%s\": %llu", first ? "" : ",",
                    ir::opcodeName(static_cast<ir::Opcode>(d.a)),
                    ir::opcodeName(static_cast<ir::Opcode>(d.b)),
                    static_cast<unsigned long long>(d.n));
                first = false;
            }
            std::fprintf(out, "\n  },\n");
            std::fprintf(out, "  \"fused_families\": [\n");
            for (size_t f = 0; f < uarch::kNumFusedFamilies; ++f) {
                std::fprintf(
                    out,
                    "    {\"family\": \"%s\", \"static_sites\": "
                    "%llu, \"dynamic_execs\": %llu}%s\n",
                    uarch::fusedFamilyName(
                        static_cast<uarch::FusedFamily>(f)),
                    static_cast<unsigned long long>(
                        ds.fused_sites[f]),
                    static_cast<unsigned long long>(fused_execs[f]),
                    f + 1 < uarch::kNumFusedFamilies ? "," : "");
            }
            std::fprintf(out, "  ],\n");
            std::fprintf(out, "  \"fused_static_pairs\": %llu\n",
                         static_cast<unsigned long long>(
                             ds.fused_pairs));
            std::fprintf(out, "}\n");
            std::fclose(out);
            std::printf("decode stats json -> %s\n",
                        decode_stats_json.c_str());
        }
    }
    return 0;
}

int
cmdAttack(Args& args)
{
    ir::Module m = loadModule(args.get("-m", "image.pir"));
    kernel::KernelInfo info = kernel::kernelInfoFromModule(m);
    std::string kind_name = args.get("--kind", "all");
    std::vector<uarch::AttackKind> kinds;
    if (kind_name == "all") {
        kinds = {uarch::AttackKind::kSpectreV2,
                 uarch::AttackKind::kRet2spec, uarch::AttackKind::kLvi};
    } else if (kind_name == "spectre-v2") {
        kinds = {uarch::AttackKind::kSpectreV2};
    } else if (kind_name == "ret2spec") {
        kinds = {uarch::AttackKind::kRet2spec};
    } else if (kind_name == "lvi") {
        kinds = {uarch::AttackKind::kLvi};
    } else {
        PIBE_FATAL("unknown attack kind '", kind_name, "'");
    }
    for (uarch::AttackKind kind : kinds) {
        uarch::Simulator sim(m);
        sim.setTimingEnabled(false);
        ir::FuncId gadget = m.findFunction("drv0_h0");
        if (gadget == ir::kInvalidFunc)
            gadget = info.kernel_init;
        uarch::TransientAttacker attacker(
            kind, sim.layout().funcBase(gadget));
        workload::KernelHandle handle(sim, info);
        handle.boot();
        auto wl = workload::makeLmbenchTest("read");
        wl->setup(handle);
        sim.setObserver(&attacker);
        for (uint64_t i = 0; i < 300; ++i)
            wl->iteration(handle, i);
        std::printf("%-12s %llu gadget hits over %llu events -> %s\n",
                    uarch::attackKindName(kind),
                    static_cast<unsigned long long>(
                        attacker.gadgetHits()),
                    static_cast<unsigned long long>(
                        attacker.eventsObserved()),
                    attacker.gadgetHits() == 0 ? "blocked"
                                               : "VULNERABLE");
    }
    return 0;
}

int
cmdStats(Args& args)
{
    ir::Module m = loadModule(args.get("-m", "image.pir"));
    uint32_t icalls = 0, rets = 0, switches = 0, asm_sites = 0,
             hardened = 0;
    size_t insts = 0;
    for (const auto& f : m.functions()) {
        insts += f.instructionCount();
        for (const auto& bb : f.blocks) {
            for (const auto& inst : bb.insts) {
                switch (inst.op) {
                  case ir::Opcode::kICall:
                    ++icalls;
                    asm_sites += inst.is_asm;
                    hardened +=
                        inst.fwd_scheme != ir::FwdScheme::kNone;
                    break;
                  case ir::Opcode::kRet:
                    ++rets;
                    hardened +=
                        inst.ret_scheme != ir::RetScheme::kNone;
                    break;
                  case ir::Opcode::kSwitch:
                    ++switches;
                    asm_sites += inst.is_asm;
                    break;
                  default:
                    break;
                }
            }
        }
    }
    analysis::CodeLayout layout(m);
    std::printf("functions:        %zu\n", m.numFunctions());
    std::printf("instructions:     %zu\n", insts);
    std::printf("indirect calls:   %u\n", icalls);
    std::printf("returns:          %u\n", rets);
    std::printf("switches:         %u\n", switches);
    std::printf("asm sites:        %u\n", asm_sites);
    std::printf("hardened sites:   %u\n", hardened);
    std::printf("image size:       %llu bytes\n",
                static_cast<unsigned long long>(layout.imageSize()));
    return 0;
}

int
cmdCheck(Args& args)
{
    const std::string path = args.get("-m", "kernel.pir");
    // Deliberately no parseAndVerify: the suite reports verifier
    // findings as diagnostics instead of dying on the first one.
    ir::Module m = ir::parseModule(readFile(path));

    check::CheckOptions opts;
    // Feasible-target validation is on by default: it needs no extra
    // inputs and is the translation-validation layer for ICP guard
    // chains and op-table entries.
    opts.targets = true;
    profile::EdgeProfile prof;
    const std::string prof_path = args.get("-p");
    if (!prof_path.empty()) {
        prof = profile::liftProfile(m, readFile(prof_path));
        opts.profile = &prof;
        opts.profile_flow = true;
    }
    const std::string defense_name = args.get("--defense");
    if (!defense_name.empty()) {
        opts.defense = defenseByName(defense_name);
        opts.coverage = true;
    }
    const std::string checks = args.get("--checks");
    if (!checks.empty()) {
        opts.verify = opts.lint = opts.coverage = opts.profile_flow =
            opts.targets = false;
        for (const std::string& c : splitList(checks)) {
            if (c == "verify")
                opts.verify = true;
            else if (c == "lint")
                opts.lint = true;
            else if (c == "coverage")
                opts.coverage = true;
            else if (c == "profile")
                opts.profile_flow = true;
            else if (c == "targets")
                opts.targets = true;
            else
                PIBE_FATAL("unknown check group '", c,
                           "' (expected verify, lint, coverage, "
                           "profile, targets)");
        }
        if (opts.profile_flow && !opts.profile)
            PIBE_FATAL("--checks profile requires -p <profile>");
        if (opts.coverage && defense_name.empty())
            PIBE_FATAL("--checks coverage requires --defense <name>");
    }
    opts.roots = splitList(args.get("--roots"));
    opts.allowed_funcs = splitList(args.get("--allow-func"));
    for (const std::string& s : splitList(args.get("--allow-site")))
        opts.allowed_sites.push_back(
            static_cast<ir::SiteId>(std::stoul(s)));

    const std::string fail_on = args.get("--fail-on", "error");
    std::optional<check::Severity> threshold =
        check::severityFromName(fail_on);
    if (!threshold)
        PIBE_FATAL("unknown --fail-on '", fail_on,
                   "' (expected note, warn, or error)");

    const bool timing = args.has("--timing");
    const bool json = args.has("--json");
    args.rejectUnused("check");

    // The shared policy gate: CLI, in-process engine callers, and the
    // serve daemon all decide pass/fail through runChecksWithPolicy,
    // so --fail-on semantics cannot drift between entry points.
    check::AnalysisManager am(m);
    check::CheckOutcome outcome =
        check::runChecksWithPolicy(m, opts, *threshold, &am);
    // Canonical emission order: checkers append group-by-group, so
    // without this the order would depend on which groups ran.
    check::sortDiagnostics(outcome.report.diags);
    const check::CheckReport& report = outcome.report;

    // --timing: per-checker wall times plus the target-set solver
    // counters, as one JSON object (merged into BENCH_scale.json by
    // tools/run_all_tables.sh when requested).
    std::string timing_json;
    if (timing) {
        std::ostringstream t;
        t << "{\"groups\":[";
        for (size_t i = 0; i < report.group_ms.size(); ++i) {
            if (i)
                t << ",";
            t << "{\"name\":\"" << report.group_ms[i].first
              << "\",\"ms\":" << std::fixed << std::setprecision(2)
              << report.group_ms[i].second << "}";
        }
        t << "]";
        if (opts.targets) {
            const check::SolverStats& ss =
                am.targetSets(opts.roots).solverStats();
            t << ",\"solver\":{\"mode\":\""
              << (ss.mode == check::SolverMode::kFast ? "fast"
                                                      : "reference")
              << "\",\"nodes\":" << ss.nodes
              << ",\"static_edges\":" << ss.static_edges
              << ",\"dynamic_edges\":" << ss.dynamic_edges
              << ",\"scc_collapsed\":" << ss.scc_collapsed
              << ",\"lcd_collapsed\":" << ss.lcd_collapsed
              << ",\"interned_sets\":" << ss.interned_sets
              << ",\"union_memo_hits\":" << ss.union_memo_hits
              << ",\"pops\":" << ss.pops << ",\"solve_ms\":"
              << std::fixed << std::setprecision(2) << ss.solve_ms
              << "}";
        }
        t << "}";
        timing_json = t.str();
    }

    if (json) {
        std::printf("{\"module\":\"%s\",\"errors\":%zu,"
                    "\"warnings\":%zu,\"notes\":%zu,"
                    "\"passed\":%s,%s\"diagnostics\":%s}\n",
                    path.c_str(), report.errors(), report.warnings(),
                    report.notes(), outcome.passed ? "true" : "false",
                    timing_json.empty()
                        ? ""
                        : ("\"timing\":" + timing_json + ",").c_str(),
                    check::renderJson(report.diags).c_str());
    } else {
        std::printf("%s", check::renderText(report.diags).c_str());
        if (!timing_json.empty())
            std::printf("timing: %s\n", timing_json.c_str());
        std::printf("%s: %zu error(s), %zu warning(s), %zu note(s)\n",
                    path.c_str(), report.errors(), report.warnings(),
                    report.notes());
    }
    return outcome.passed ? 0 : 1;
}

/**
 * `pibe surface` — run the interprocedural target-set analysis and
 * report the residual attack surface per defense configuration: how
 * many indirect call sites each forward-edge scheme leaves reachable,
 * the feasible-set size distribution, and the AIR-style score. The
 * structural verifiers and target-set checkers gate the report, so a
 * module that fails translation validation exits nonzero.
 */
int
cmdSurface(Args& args)
{
    const std::string path = args.get("-m", "kernel.pir");
    ir::Module m = ir::parseModule(readFile(path));

    check::CheckOptions opts;
    opts.lint = false; // style findings are noise for an audit report
    opts.targets = true;
    profile::EdgeProfile prof;
    const std::string prof_path = args.get("-p");
    if (!prof_path.empty()) {
        // With a profile, coverage.targets additionally proves every
        // observed target lies inside its site's static set.
        prof = profile::liftProfile(m, readFile(prof_path));
        opts.profile = &prof;
    }
    opts.roots = splitList(args.get("--roots"));

    const std::string fail_on = args.get("--fail-on", "error");
    std::optional<check::Severity> threshold =
        check::severityFromName(fail_on);
    if (!threshold)
        PIBE_FATAL("unknown --fail-on '", fail_on,
                   "' (expected note, warn, or error)");
    const uint32_t max_targets = static_cast<uint32_t>(
        std::stoul(args.get("--max-targets", "8")));

    // Share one AnalysisManager between the checkers and the report so
    // the points-to solve runs once.
    check::AnalysisManager am(m);
    check::CheckOutcome outcome =
        check::runChecksWithPolicy(m, opts, *threshold, &am);
    check::sortDiagnostics(outcome.report.diags);
    if (!outcome.report.diags.empty())
        std::printf("%s",
                    check::renderText(outcome.report.diags).c_str());

    check::SurfaceReport rep =
        check::buildSurfaceReport(am.targetSets(opts.roots), max_targets);
    rep.module_name = path;
    std::printf("%s", check::renderSurfaceText(rep).c_str());

    const std::string json_path = args.get("--json");
    if (!json_path.empty()) {
        writeFile(json_path, check::renderSurfaceJson(rep));
        std::printf("wrote %s\n", json_path.c_str());
    }
    return outcome.passed ? 0 : 1;
}

int
cmdGenkernel(Args& args)
{
    scale::ScaleConfig cfg;
    cfg.target_insts = std::stoull(args.get("--insts", "100000"));
    cfg.seed = std::stoull(args.get("--seed", "42"));
    cfg.depth =
        static_cast<uint32_t>(std::stoul(args.get("--depth", "10")));
    cfg.fanout = std::stod(args.get("--fanout", "2.5"));
    cfg.icalls_per_kinst =
        std::stod(args.get("--icalls-per-kinst", "7.0"));
    cfg.ops_per_table = static_cast<uint32_t>(
        std::stoul(args.get("--ops-per-table", "7")));
    cfg.num_entry_points = static_cast<uint32_t>(
        std::stoul(args.get("--entry-points", "32")));
    const std::string mix = args.get("--mix");
    if (!mix.empty()) {
        std::vector<std::string> parts = splitList(mix);
        if (parts.size() != 4)
            PIBE_FATAL("--mix wants four fractions "
                       "(core,fs,net,drivers), got '",
                       mix, "'");
        cfg.frac_core = std::stod(parts[0]);
        cfg.frac_fs = std::stod(parts[1]);
        cfg.frac_net = std::stod(parts[2]);
        cfg.frac_drivers = std::stod(parts[3]);
    }

    scale::ScaleStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    ir::Module m = scale::buildScaleModule(cfg, &stats);
    const auto t1 = std::chrono::steady_clock::now();

    const std::string out = args.get("-o", "scale_kernel.pir");
    writeFile(out, ir::printModule(m));

    const std::string prof_path = args.get("--profile");
    if (!prof_path.empty()) {
        scale::SyntheticProfileConfig pcfg;
        pcfg.seed = cfg.seed;
        pcfg.root_invocations = std::stoull(
            args.get("--root-invocations", "1048576"));
        profile::EdgeProfile prof = scale::synthesizeProfile(m, pcfg);
        writeFile(prof_path, profile::serializeProfile(m, prof));
    }

    const double gen_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::printf("wrote %s (%.0f ms)\n", out.c_str(), gen_ms);
    std::printf("functions:      %llu\n",
                static_cast<unsigned long long>(stats.num_functions));
    std::printf("instructions:   %llu\n",
                static_cast<unsigned long long>(stats.num_insts));
    std::printf("call sites:     %llu\n",
                static_cast<unsigned long long>(stats.call_sites));
    std::printf("icall sites:    %llu (%llu asm)\n",
                static_cast<unsigned long long>(stats.icall_sites),
                static_cast<unsigned long long>(stats.asm_icall_sites));
    std::printf("return sites:   %llu\n",
                static_cast<unsigned long long>(stats.ret_sites));
    std::printf("switches:       %llu\n",
                static_cast<unsigned long long>(stats.switch_sites));
    std::printf("op tables:      %llu (%llu globals)\n",
                static_cast<unsigned long long>(stats.num_tables),
                static_cast<unsigned long long>(stats.num_globals));
    if (!prof_path.empty())
        std::printf("profile:        %s\n", prof_path.c_str());
    return 0;
}

/**
 * One fork-isolated scalebench measurement: generate a module of
 * `insts` instructions, synthesize its profile, build the hardened
 * image with core::buildImage at `pibe optimize`'s defaults, and write
 * one JSON object with timings, the image digest, and audit counters
 * to `fd`. Runs in the child so the parent can read peak RSS from
 * wait4().
 */
void
runScalebenchChild(uint64_t insts, uint64_t seed, int fd)
{
    using Clock = std::chrono::steady_clock;
    auto ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a)
            .count();
    };

    scale::ScaleConfig cfg;
    cfg.target_insts = insts;
    cfg.seed = seed;
    scale::ScaleStats stats;
    const Clock::time_point t0 = Clock::now();
    ir::Module m = scale::buildScaleModule(cfg, &stats);
    const Clock::time_point t1 = Clock::now();

    scale::SyntheticProfileConfig pcfg;
    pcfg.seed = seed;
    profile::EdgeProfile prof = scale::synthesizeProfile(m, pcfg);
    const Clock::time_point t2 = Clock::now();

    core::OptConfig opt;
    opt.icp_budget = 0.99999;
    opt.inline_budget = 0.999999;
    core::BuildReport rep;
    const ir::Module image = core::buildImage(
        m, prof, opt, harden::DefenseConfig::all(), &rep);
    const Clock::time_point t3 = Clock::now();
    const std::string digest = scale::moduleDigest(image);

    dprintf(
        fd,
        "{\"target_insts\":%llu,\"insts\":%llu,\"functions\":%llu,"
        "\"icall_sites\":%llu,"
        "\"gen_ms\":%.1f,\"profile_ms\":%.1f,\"build_ms\":%.1f,"
        "\"promoted_targets\":%u,\"inlined_sites\":%u,"
        "\"analyses_computed\":%llu,\"analyses_reused\":%llu,"
        "\"sandwich_errors\":%llu,"
        "\"baseline_image_size\":%llu,\"image_size\":%llu,"
        "\"digest\":\"%s\"}",
        static_cast<unsigned long long>(insts),
        static_cast<unsigned long long>(stats.num_insts),
        static_cast<unsigned long long>(stats.num_functions),
        static_cast<unsigned long long>(stats.icall_sites),
        ms(t0, t1), ms(t1, t2), ms(t2, t3),
        rep.icp.promoted_targets, rep.inlining.inlined_sites,
        static_cast<unsigned long long>(rep.analyses_computed),
        static_cast<unsigned long long>(rep.analyses_reused),
        static_cast<unsigned long long>(
            check::countSeverity(rep.sandwich, check::Severity::kError)),
        static_cast<unsigned long long>(rep.baseline_image_size),
        static_cast<unsigned long long>(rep.image_size),
        digest.c_str());
}

int
cmdScalebench(Args& args)
{
    const std::string out = args.get("--out", "BENCH_scale.json");
    const uint64_t seed = std::stoull(args.get("--seed", "42"));
    std::vector<uint64_t> sizes;
    for (const std::string& s : splitList(
             args.get("--sizes", "10000,32000,100000,320000,1000000")))
        sizes.push_back(std::stoull(s));
    args.rejectUnused("scalebench");
    if (sizes.size() < 2)
        PIBE_FATAL("scalebench needs at least two --sizes");

    struct Row
    {
        serve::Json json;
        long maxrss_kb = 0;
    };
    std::vector<Row> rows;
    bool clean = true;
    for (uint64_t n : sizes) {
        int fds[2];
        if (pipe(fds) != 0)
            PIBE_FATAL("pipe() failed");
        const pid_t pid = fork();
        if (pid < 0)
            PIBE_FATAL("fork() failed");
        if (pid == 0) {
            close(fds[0]);
            runScalebenchChild(n, seed, fds[1]);
            close(fds[1]);
            _exit(0);
        }
        close(fds[1]);
        std::string text;
        char buf[4096];
        ssize_t got;
        while ((got = read(fds[0], buf, sizeof buf)) > 0)
            text.append(buf, static_cast<size_t>(got));
        close(fds[0]);
        int status = 0;
        struct rusage ru = {};
        if (wait4(pid, &status, 0, &ru) != pid ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            PIBE_FATAL("scalebench child for ", n, " insts failed");
        std::optional<serve::Json> json = serve::Json::parse(text);
        if (!json || !json->isObject())
            PIBE_FATAL("scalebench child emitted bad JSON: ", text);

        Row row;
        row.json = *json;
        row.maxrss_kb = ru.ru_maxrss; // Linux reports KiB
        const int64_t errors = row.json["sandwich_errors"].asInt();
        clean = clean && errors == 0;
        std::printf("  %8llu insts: gen %6.0f ms, build %7.0f ms, "
                    "rss %ld MiB, errors %lld, digest %s\n",
                    static_cast<unsigned long long>(n),
                    row.json["gen_ms"].asDouble(),
                    row.json["build_ms"].asDouble(),
                    row.maxrss_kb / 1024,
                    static_cast<long long>(errors),
                    row.json["digest"].asString().c_str());
        rows.push_back(std::move(row));
    }

    // Scaling exponents between consecutive sizes: e in t ~ n^e. An
    // exponent meaningfully above 1 flags a superlinear blow-up.
    double max_time_exp = 0;
    double max_rss_exp = 0;
    std::vector<double> time_exps(rows.size(), 0);
    std::vector<double> rss_exps(rows.size(), 0);
    for (size_t i = 1; i < rows.size(); ++i) {
        const double n_ratio =
            rows[i].json["insts"].asDouble() /
            std::max(1.0, rows[i - 1].json["insts"].asDouble());
        if (n_ratio <= 1)
            continue;
        const double t_ratio =
            rows[i].json["build_ms"].asDouble() /
            std::max(1.0, rows[i - 1].json["build_ms"].asDouble());
        const double r_ratio =
            static_cast<double>(rows[i].maxrss_kb) /
            std::max(1.0, static_cast<double>(rows[i - 1].maxrss_kb));
        time_exps[i] = std::log(std::max(t_ratio, 1e-9)) /
                       std::log(n_ratio);
        rss_exps[i] = std::log(std::max(r_ratio, 1e-9)) /
                      std::log(n_ratio);
        max_time_exp = std::max(max_time_exp, time_exps[i]);
        max_rss_exp = std::max(max_rss_exp, rss_exps[i]);
    }

    std::FILE* f = std::fopen(out.c_str(), "w");
    if (!f)
        PIBE_FATAL("cannot write ", out);
    std::fprintf(f,
                 "{\n  \"bench\": \"scale\",\n  \"seed\": %llu,\n"
                 "  \"nproc\": %u,\n"
                 "  \"max_time_scaling_exponent\": %.2f,\n"
                 "  \"max_rss_scaling_exponent\": %.2f,\n"
                 "  \"sizes\": [\n",
                 static_cast<unsigned long long>(seed),
                 std::thread::hardware_concurrency(), max_time_exp,
                 max_rss_exp);
    for (size_t i = 0; i < rows.size(); ++i) {
        serve::Json j = rows[i].json;
        std::string dumped = j.dump();
        // Graft the parent-side measurements into the child's object:
        // strip the closing brace and append.
        dumped.pop_back();
        std::fprintf(f,
                     "    %s,\"maxrss_kb\":%ld,"
                     "\"time_scaling_exponent\":%.2f,"
                     "\"rss_scaling_exponent\":%.2f}%s\n",
                     dumped.c_str(), rows[i].maxrss_kb, time_exps[i],
                     rss_exps[i], i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    std::printf("wrote %s (max time exponent %.2f, max rss exponent "
                "%.2f, %s)\n",
                out.c_str(), max_time_exp, max_rss_exp,
                clean ? "sandwich clean" : "SANDWICH ERRORS");
    return clean ? 0 : 1;
}

/** Signal target of `pibe serve` (one daemon per process). */
serve::Server* g_server = nullptr;

void
handleStopSignal(int)
{
    if (g_server)
        g_server->requestStopFromSignal(); // atomic store only
}

int
cmdServe(Args& args)
{
    serve::ServeOptions opts;
    opts.socket_path = args.get("--socket", "/tmp/pibe-serve.sock");
    const std::string tcp = args.get("--tcp");
    if (!tcp.empty())
        opts.tcp_port = std::stoi(tcp);
    opts.jobs = static_cast<unsigned>(
        std::stoul(args.get("--jobs", "0")));
    opts.cache_dir = args.get("--cache-dir");
    opts.cache_budget = std::stoull(args.get("--cache-budget", "0"));
    opts.kernel.num_drivers = static_cast<uint32_t>(
        std::stoul(args.get("--drivers", "448")));
    opts.kernel.seed = std::stoull(args.get("--seed", "42"));
    opts.profile_base_iters = static_cast<uint32_t>(
        std::stoul(args.get("--profile-iters", "120")));
    opts.max_inflight = static_cast<unsigned>(
        std::stoul(args.get("--max-inflight", "0")));
    opts.default_defense = args.get("--defense", "all");
    opts.fail_on = args.get("--fail-on", "error");
    opts.auth_token = args.get("--auth-token", envAuthToken());

    serve::Server server(std::move(opts));
    if (!server.start())
        return 1;
    g_server = &server;
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    server.wait();
    g_server = nullptr;
    return 0;
}

int
cmdLoadgen(Args& args)
{
    serve::LoadgenOptions opts;
    opts.socket_path = args.get("--socket", "/tmp/pibe-serve.sock");
    const std::string tcp = args.get("--tcp");
    if (!tcp.empty()) {
        opts.tcp_port = std::stoi(tcp);
        opts.socket_path = args.get("--socket");
    }
    opts.requests = static_cast<uint32_t>(
        std::stoul(args.get("--requests", "500")));
    opts.clients = std::max(1u, static_cast<uint32_t>(std::stoul(
                                    args.get("--clients", "8"))));
    opts.seed = std::stoull(args.get("--seed", "1"));
    opts.image_variants = static_cast<uint32_t>(
        std::stoul(args.get("--variants", "2")));
    opts.verify =
        static_cast<uint32_t>(std::stoul(args.get("--verify", "0")));
    opts.out_path = args.get("--out", "BENCH_serve.json");
    opts.auth_token = args.get("--auth-token", envAuthToken());
    return serve::runLoadgen(opts);
}

int
cmdClient(Args& args)
{
    const std::string op = args.get("--op", "ping");
    serve::Json params = serve::Json::object();
    const std::string params_text = args.get("--params");
    if (!params_text.empty()) {
        std::optional<serve::Json> parsed =
            serve::Json::parse(params_text);
        if (!parsed || !parsed->isObject())
            PIBE_FATAL("--params is not a JSON object: ", params_text);
        params = *parsed;
    }

    serve::Client client;
    const std::string tcp = args.get("--tcp");
    bool connected = false;
    if (!tcp.empty())
        connected = client.connectTcp(
            static_cast<uint16_t>(std::stoul(tcp)));
    else
        connected = client.connectUnix(
            args.get("--socket", "/tmp/pibe-serve.sock"));
    if (!connected)
        PIBE_FATAL("cannot connect to the serve daemon");

    const std::string token =
        args.get("--auth-token", envAuthToken());
    if (!token.empty()) {
        std::string auth_error;
        if (!client.authenticate(token, &auth_error))
            PIBE_FATAL("authentication failed: ", auth_error);
    }

    std::optional<serve::Json> response = client.call(op, params);
    if (!response)
        PIBE_FATAL("transport failure talking to the daemon");
    const std::string save = args.get("--save-text");
    if (!save.empty()) {
        // Pull a large text artifact (e.g. optimize --want_text) out
        // of the response instead of dumping it to the terminal.
        writeFile(save, (*response)["result"]["text"].asString());
        std::printf("wrote %s\n", save.c_str());
    } else {
        std::printf("%s\n", response->dump().c_str());
    }
    return (*response)["ok"].asBool(false) ? 0 : 1;
}

int
cmdSelftest()
{
    // The full workflow in a temp directory.
    const std::string dir = "/tmp/pibe_cli_selftest";
    std::string mkdir = "mkdir -p " + dir;
    if (std::system(mkdir.c_str()) != 0)
        PIBE_FATAL("cannot create ", dir);

    kernel::KernelConfig cfg;
    cfg.num_drivers = 8;
    kernel::KernelImage k = kernel::buildKernel(cfg);
    writeFile(dir + "/kernel.pir", ir::printModule(k.module));

    ir::Module m = loadModule(dir + "/kernel.pir");
    kernel::KernelInfo info = kernel::kernelInfoFromModule(m);
    auto suite = workload::makeLmbenchSuite();
    auto profile = core::collectProfile(m, info, suite, 25);
    writeFile(dir + "/profile.txt",
              profile::serializeProfile(m, profile));

    auto lifted =
        profile::liftProfile(m, readFile(dir + "/profile.txt"));
    core::BuildReport report;
    ir::Module image = core::buildImage(
        m, lifted, core::OptConfig::icpAndInline(0.999),
        harden::DefenseConfig::all(), &report);
    writeFile(dir + "/image.pir", ir::printModule(image));

    ir::Module reloaded = loadModule(dir + "/image.pir");
    kernel::KernelInfo rinfo = kernel::kernelInfoFromModule(reloaded);
    uarch::Simulator sim(reloaded);
    workload::KernelHandle handle(sim, rinfo);
    handle.boot();
    int64_t pid = handle.syscall(kernel::sysno::kNull);
    if (pid != 1)
        PIBE_FATAL("selftest: reloaded kernel misbehaves (pid=", pid,
                   ")");
    if (report.inlining.inlined_sites == 0)
        PIBE_FATAL("selftest: no inlining happened");

    // Audit the artifacts the workflow just produced: flow
    // conservation of the fresh profile against the input kernel, and
    // hardening coverage of the shipped image.
    check::CheckOptions popts;
    popts.profile_flow = true;
    popts.profile = &lifted;
    check::CheckReport pr = check::runChecks(m, popts);
    if (pr.errors() != 0)
        PIBE_FATAL("selftest: profile audit found ", pr.errors(),
                   " error(s): ", pr.diags.front().render());
    check::CheckOptions copts;
    copts.coverage = true;
    copts.defense = harden::DefenseConfig::all();
    check::CheckReport cr = check::runChecks(reloaded, copts);
    if (cr.errors() != 0)
        PIBE_FATAL("selftest: image audit found ", cr.errors(),
                   " error(s): ", cr.diags.front().render());

    std::printf("selftest OK (%s)\n", dir.c_str());
    return 0;
}

int
run(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: pibe "
                     "<kernel|profile|optimize|measure|attack|stats|"
                     "check|surface|genkernel|scalebench|serve|loadgen|"
                     "client|selftest> [options]\n");
        return 2;
    }
    const std::string cmd = argv[1];
    Args args(argc - 2, argv + 2);
    if (cmd == "kernel")
        return cmdKernel(args);
    if (cmd == "profile")
        return cmdProfile(args);
    if (cmd == "optimize")
        return cmdOptimize(args);
    if (cmd == "measure")
        return cmdMeasure(args);
    if (cmd == "attack")
        return cmdAttack(args);
    if (cmd == "stats")
        return cmdStats(args);
    if (cmd == "check")
        return cmdCheck(args);
    if (cmd == "surface")
        return cmdSurface(args);
    if (cmd == "genkernel")
        return cmdGenkernel(args);
    if (cmd == "scalebench")
        return cmdScalebench(args);
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "loadgen")
        return cmdLoadgen(args);
    if (cmd == "client")
        return cmdClient(args);
    if (cmd == "selftest")
        return cmdSelftest();
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
}

} // namespace
} // namespace pibe::cli

int
main(int argc, char** argv)
{
    return pibe::cli::run(argc, argv);
}
