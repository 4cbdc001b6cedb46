/**
 * @file
 * LMBench-like latency microbenchmarks over the synthetic kernel.
 *
 * Each test hammers the same kernel facility its LMBench namesake
 * does: `null` is a trivial syscall, `read`/`write` hit the VFS fast
 * path, `select_*` poll many descriptors (the retpoline stress test),
 * the fork tests exercise the heavyweight mm paths, and so on. Names
 * Table 2 so the bench harness can print rows one-for-one.
 */
#include "workload/workload.h"

#include "support/logging.h"

namespace pibe::workload {

namespace {

using kernel::sysno::kAccept;
using kernel::sysno::kClose;
using kernel::sysno::kConnect;
using kernel::sysno::kExec;
using kernel::sysno::kExit;
using kernel::sysno::kFork;
using kernel::sysno::kFstat;
using kernel::sysno::kKill;
using kernel::sysno::kMmap;
using kernel::sysno::kMunmap;
using kernel::sysno::kNull;
using kernel::sysno::kOpen;
using kernel::sysno::kPageFault;
using kernel::sysno::kPipe;
using kernel::sysno::kRead;
using kernel::sysno::kRecv;
using kernel::sysno::kSelect;
using kernel::sysno::kSend;
using kernel::sysno::kSigaction;
using kernel::sysno::kSocket;
using kernel::sysno::kStat;
using kernel::sysno::kWrite;

namespace proto = kernel::proto;

/** Open `count` files and park their fds in user memory at `ubase`. */
void
openFdsIntoUser(KernelHandle& k, int64_t count, int64_t ubase,
                int64_t first_path)
{
    for (int64_t i = 0; i < count; ++i) {
        int64_t fd = k.syscall(kOpen,
                               KernelHandle::pathHash(first_path + i), 0);
        PIBE_ASSERT(fd >= 0, "lmbench setup: open failed");
        k.sim().writeGlobal(k.info().kmem,
                            kernel::KernelLayout::kUserBase + ubase + i,
                            fd);
    }
}

/** Create a connected socket pair of the given protocol. */
std::pair<int64_t, int64_t>
socketPair(KernelHandle& k, int64_t protocol)
{
    int64_t a = k.syscall(kSocket, protocol);
    int64_t b = k.syscall(kSocket, protocol);
    PIBE_ASSERT(a >= 0 && b >= 0, "lmbench setup: socket failed");
    int64_t r = k.syscall(kConnect, a, b);
    PIBE_ASSERT(r == 0, "lmbench setup: connect failed");
    return {a, b};
}

struct TestSpec
{
    const char* name;
    std::function<std::unique_ptr<Workload>()> make;
};

std::unique_ptr<Workload>
simple(const char* name, SimpleWorkload::SetupFn setup,
       SimpleWorkload::IterFn iter)
{
    return std::make_unique<SimpleWorkload>(name, std::move(setup),
                                            std::move(iter));
}

/** Shared fd slots filled during setup, captured by iterations. */
struct Fds
{
    int64_t a = -1;
    int64_t b = -1;
};

const std::vector<TestSpec>&
specs()
{
    static const std::vector<TestSpec> kSpecs = {
        {"null",
         [] {
             return simple(
                 "null", nullptr,
                 [](KernelHandle& k, uint64_t) { k.syscall(kNull); });
         }},
        {"read",
         [] {
             auto fds = std::make_shared<Fds>();
             return simple(
                 "read",
                 [fds](KernelHandle& k) {
                     fds->a =
                         k.syscall(kOpen, KernelHandle::pathHash(0), 0);
                 },
                 [fds](KernelHandle& k, uint64_t) {
                     k.syscall(kRead, fds->a, 64, 4);
                 });
         }},
        {"write",
         [] {
             auto fds = std::make_shared<Fds>();
             return simple(
                 "write",
                 [fds](KernelHandle& k) {
                     fds->a =
                         k.syscall(kOpen, KernelHandle::pathHash(1), 0);
                 },
                 [fds](KernelHandle& k, uint64_t) {
                     k.syscall(kWrite, fds->a, 64, 4);
                 });
         }},
        {"open",
         [] {
             // Every opened fd is closed again: fd-table neutral.
             return simple("open", nullptr,
                           [](KernelHandle& k, uint64_t i) {
                               int64_t fd = k.syscall(
                                   kOpen,
                                   KernelHandle::pathHash(i % 8), 0);
                               k.syscall(kClose, fd);
                           });
         }},
        {"stat",
         [] {
             return simple("stat", nullptr,
                           [](KernelHandle& k, uint64_t i) {
                               k.syscall(kStat,
                                         KernelHandle::pathHash(i % 8),
                                         128);
                           });
         }},
        {"fstat",
         [] {
             auto fds = std::make_shared<Fds>();
             return simple(
                 "fstat",
                 [fds](KernelHandle& k) {
                     fds->a =
                         k.syscall(kOpen, KernelHandle::pathHash(2), 0);
                 },
                 [fds](KernelHandle& k, uint64_t) {
                     k.syscall(kFstat, fds->a, 128);
                 });
         }},
        {"af_unix",
         [] {
             auto fds = std::make_shared<Fds>();
             return simple(
                 "af_unix",
                 [fds](KernelHandle& k) {
                     auto [a, b] = socketPair(k, proto::kUnix);
                     fds->a = a;
                     fds->b = b;
                 },
                 [fds](KernelHandle& k, uint64_t) {
                     k.syscall(kSend, fds->a, 0, 8);
                     k.syscall(kRecv, fds->b, 16, 8);
                 });
         }},
        {"fork/exit",
         [] {
             return simple("fork/exit", nullptr,
                           [](KernelHandle& k, uint64_t) {
                               int64_t pid = k.syscall(kFork);
                               k.syscall(kExit, pid);
                           });
         }},
        {"fork/exec",
         [] {
             return simple("fork/exec", nullptr,
                           [](KernelHandle& k, uint64_t) {
                               int64_t pid = k.syscall(kFork);
                               k.syscall(kExec,
                                         KernelHandle::pathHash(3));
                               k.syscall(kExit, pid);
                           });
         }},
        {"fork/shell",
         [] {
             return simple(
                 "fork/shell", nullptr,
                 [](KernelHandle& k, uint64_t i) {
                     int64_t pid = k.syscall(kFork);
                     k.syscall(kExec, KernelHandle::pathHash(4));
                     int64_t fd = k.syscall(
                         kOpen, KernelHandle::pathHash(5 + i % 3), 0);
                     k.syscall(kRead, fd, 64, 8);
                     k.syscall(kRead, fd, 64, 8);
                     k.syscall(kWrite, fd, 64, 8);
                     k.syscall(kClose, fd);
                     k.syscall(kExit, pid);
                 });
         }},
        {"pipe",
         [] {
             auto fds = std::make_shared<Fds>();
             return simple(
                 "pipe",
                 [fds](KernelHandle& k) {
                     int64_t pair = k.syscall(kPipe);
                     PIBE_ASSERT(pair >= 0, "pipe setup failed");
                     fds->a = pair & 0xffff;         // read end
                     fds->b = (pair >> 16) & 0xffff; // write end
                 },
                 [fds](KernelHandle& k, uint64_t) {
                     k.syscall(kWrite, fds->b, 0, 4);
                     k.syscall(kRead, fds->a, 16, 4);
                 });
         }},
        {"select_file",
         [] {
             return simple(
                 "select_file",
                 [](KernelHandle& k) {
                     openFdsIntoUser(k, 32, 256, 8);
                 },
                 [](KernelHandle& k, uint64_t) {
                     k.syscall(kSelect, 32, 256);
                 });
         }},
        {"select_tcp",
         [] {
             return simple(
                 "select_tcp",
                 [](KernelHandle& k) {
                     for (int64_t i = 0; i < 32; ++i) {
                         int64_t fd = k.syscall(kSocket, proto::kTcp);
                         PIBE_ASSERT(fd >= 0, "select_tcp setup");
                         k.sim().writeGlobal(
                             k.info().kmem,
                             kernel::KernelLayout::kUserBase + 320 + i,
                             fd);
                     }
                 },
                 [](KernelHandle& k, uint64_t) {
                     k.syscall(kSelect, 32, 320);
                 });
         }},
        {"tcp_conn",
         [] {
             auto fds = std::make_shared<Fds>();
             return simple(
                 "tcp_conn",
                 [fds](KernelHandle& k) {
                     fds->a = k.syscall(kSocket, proto::kTcp);
                 },
                 [fds](KernelHandle& k, uint64_t) {
                     int64_t c = k.syscall(kSocket, proto::kTcp);
                     k.syscall(kConnect, c, fds->a);
                     int64_t s = k.syscall(kAccept, fds->a);
                     k.syscall(kClose, c);
                     if (s >= 0)
                         k.syscall(kClose, s);
                 });
         }},
        {"udp",
         [] {
             auto fds = std::make_shared<Fds>();
             return simple(
                 "udp",
                 [fds](KernelHandle& k) {
                     auto [a, b] = socketPair(k, proto::kUdp);
                     fds->a = a;
                     fds->b = b;
                 },
                 [fds](KernelHandle& k, uint64_t) {
                     k.syscall(kSend, fds->a, 0, 8);
                     k.syscall(kRecv, fds->b, 16, 8);
                 });
         }},
        {"tcp",
         [] {
             auto fds = std::make_shared<Fds>();
             return simple(
                 "tcp",
                 [fds](KernelHandle& k) {
                     auto [a, b] = socketPair(k, proto::kTcp);
                     fds->a = a;
                     fds->b = b;
                 },
                 [fds](KernelHandle& k, uint64_t) {
                     k.syscall(kSend, fds->a, 0, 8);
                     k.syscall(kRecv, fds->b, 16, 8);
                 });
         }},
        {"mmap",
         [] {
             // Mappings are unmapped within the iteration: VMA neutral.
             return simple("mmap", nullptr,
                           [](KernelHandle& k, uint64_t i) {
                               int64_t addr =
                                   8192 + (i % 16) * 64;
                               k.syscall(kMmap, addr, 64);
                               k.syscall(kMunmap, addr, 64);
                           });
         }},
        {"page_fault",
         [] {
             return simple(
                 "page_fault",
                 [](KernelHandle& k) {
                     k.syscall(kMmap, 16384, 2048);
                 },
                 [](KernelHandle& k, uint64_t i) {
                     k.syscall(kPageFault, 16384 + (i * 7) % 2048);
                 });
         }},
        {"sig_install",
         [] {
             return simple("sig_install", nullptr,
                           [](KernelHandle& k, uint64_t i) {
                               k.syscall(kSigaction, 5, i % 4);
                           });
         }},
        {"sig_dispatch",
         [] {
             return simple(
                 "sig_dispatch",
                 [](KernelHandle& k) { k.syscall(kSigaction, 5, 1); },
                 [](KernelHandle& k, uint64_t) {
                     // pid 1 is the caller; delivery happens in the
                     // same syscall's exit work.
                     k.syscall(kKill, 1, 5);
                 });
         }},
    };
    return kSpecs;
}

} // namespace

std::vector<std::unique_ptr<Workload>>
makeLmbenchSuite()
{
    std::vector<std::unique_ptr<Workload>> suite;
    for (const TestSpec& spec : specs())
        suite.push_back(spec.make());
    return suite;
}

std::vector<std::string>
lmbenchRetpolineSubset()
{
    // Table 3's rows: tests strongly impacted by retpolines.
    return {"null",       "read",  "write", "open",    "stat",
            "fstat",      "select_tcp", "udp", "tcp", "tcp_conn",
            "af_unix",    "pipe"};
}

std::unique_ptr<Workload>
makeLmbenchTest(const std::string& name)
{
    for (const TestSpec& spec : specs()) {
        if (name == spec.name)
            return spec.make();
    }
    return nullptr;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name)
{
    if (name == "nginx")
        return makeNginxWorkload();
    if (name == "apache")
        return makeApacheWorkload();
    if (name == "dbench")
        return makeDbenchWorkload();
    return makeLmbenchTest(name);
}

} // namespace pibe::workload
