/**
 * @file
 * The synthetic kernel — the reproduction's stand-in for Linux 5.1.
 *
 * buildKernel() constructs a deterministic PIR module with the
 * structural properties PIBE's evaluation depends on:
 *
 *  - a syscall table dispatched through an indirect call, with ~25
 *    syscalls covering the subsystems LMBench exercises (VFS, pipes,
 *    sockets, fork/exec, mm/page-fault, signals);
 *  - function-pointer operation tables everywhere the real kernel has
 *    them (per-filesystem file_operations, per-protocol proto_ops,
 *    per-driver device ops, signal handlers) producing both hot
 *    multi-target and cold single-target indirect call sites;
 *  - deep chains of small functions on the hot paths (fd lookup,
 *    permission hooks, generic_file_* helpers) — the inlining surface;
 *  - paravirt hypercall sites emitted as inline-assembly indirect
 *    calls that no pass may touch (the "Vuln. ICalls" of Table 11) and
 *    a few assembly switch dispatchers (the "Vuln. IJumps");
 *  - boot-section initialization functions whose returns are not
 *    attack surface;
 *  - parameterized driver ballast providing cold code and realistic
 *    image size.
 *
 * All kernel state lives in one global i64 array ("kmem"), partitioned
 * into regions by KernelLayout, so generic helpers (memcpy/memset)
 * work across subsystems.
 */
#ifndef PIBE_KERNEL_KERNEL_H_
#define PIBE_KERNEL_KERNEL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "ir/module.h"

namespace pibe::kernel {

/**
 * Conventional entry-point symbol names. Shared by the hand-built
 * synthetic kernel, the Linux-scale generator (src/scale), and the
 * profile-flow audit's default root set — any module using these names
 * is drivable and auditable by the standard tooling.
 */
constexpr const char* kKernelInitName = "kernel_init";
constexpr const char* kSysDispatchName = "sys_dispatch";
/** Conventional global names recovered by kernelInfoFromModule(). */
constexpr const char* kKmemName = "kmem";
constexpr const char* kSyscallTableName = "syscall_table";

/** Synthetic kernel build parameters. */
struct KernelConfig
{
    uint64_t seed = 42;
    /** Ballast driver modules (each: ops table + helper chain). */
    uint32_t num_drivers = 448;
    /** Helper functions per driver. */
    uint32_t helpers_per_driver = 10;
    /** Total kernel memory slots (i64 words). */
    uint32_t kmem_slots = 1u << 17;
};

/** Syscall numbers of the synthetic kernel. */
namespace sysno {
enum : int64_t {
    kNull = 0,
    kRead,
    kWrite,
    kOpen,
    kClose,
    kStat,
    kFstat,
    kLseek,
    kPipe,
    kSelect,
    kSocket,
    kConnect,
    kAccept,
    kSend,
    kRecv,
    kFork,
    kExec,
    kExit,
    kMmap,
    kMunmap,
    kPageFault, ///< Exception path, exposed as an entry for workloads.
    kSigaction,
    kKill,
    kYield,
    kGetpid,
    kCount,
};
} // namespace sysno

/** Filesystem type codes. */
namespace fstype {
enum : int64_t {
    kRamfs = 0,
    kExtfs,
    kProcfs,
    kDevfs,
    kSockfs,
    kPipefs,
    kCount,
};
} // namespace fstype

/** Socket protocol codes. */
namespace proto {
enum : int64_t { kUnix = 0, kTcp, kUdp, kCount };
} // namespace proto

/**
 * Static partitioning of kmem. All values are slot (i64 word) offsets
 * or element counts; workloads use these to address user buffers and
 * to seed state.
 */
struct KernelLayout
{
    // Scalars.
    static constexpr int64_t kScalars = 64;
    static constexpr int64_t kCurTask = kScalars + 0;
    static constexpr int64_t kJiffies = kScalars + 1;
    static constexpr int64_t kNextPid = kScalars + 2;
    static constexpr int64_t kNeedResched = kScalars + 3;
    static constexpr int64_t kSoftirqPending = kScalars + 4;
    static constexpr int64_t kBootDone = kScalars + 5;

    // File descriptor table: kNumFds entries of kFdSize words:
    // [in_use, fs_type, inode, pos, flags, kind, aux, ready].
    static constexpr int64_t kFdTable = 128;
    static constexpr int64_t kNumFds = 64;
    static constexpr int64_t kFdSize = 8;

    // Inode table: [fs_type, size, data_page, nlink, atime, mtime,
    // mode, gen].
    static constexpr int64_t kInodeTable = kFdTable + kNumFds * kFdSize;
    static constexpr int64_t kNumInodes = 128;
    static constexpr int64_t kInodeSize = 8;

    // Dentry hash table: [name_hash, inode, parent, valid].
    static constexpr int64_t kDentryTable =
        kInodeTable + kNumInodes * kInodeSize;
    static constexpr int64_t kNumDentries = 1024; // power of two
    static constexpr int64_t kDentrySize = 4;

    // Page cache: kNumPages pages of kPageWords each.
    static constexpr int64_t kPageCache =
        kDentryTable + kNumDentries * kDentrySize;
    static constexpr int64_t kNumPages = 256;
    static constexpr int64_t kPageWords = 64;

    // Pipes: [head, tail, readers, writers, buf[kPipeBuf]].
    static constexpr int64_t kPipeTable =
        kPageCache + kNumPages * kPageWords;
    static constexpr int64_t kNumPipes = 16;
    static constexpr int64_t kPipeBuf = 64;
    static constexpr int64_t kPipeSize = 4 + kPipeBuf;

    // Sockets: [proto, state, peer, rx_head, rx_tail, ready,
    // stats_tx, stats_rx, rxbuf[kSockBuf]].
    static constexpr int64_t kSockTable =
        kPipeTable + kNumPipes * kPipeSize;
    static constexpr int64_t kNumSocks = 64;
    static constexpr int64_t kSockBuf = 64;
    static constexpr int64_t kSockSize = 8 + kSockBuf;

    // Tasks: [state, pid, mm_base_page, sig_pending,
    // handlers[kNumSigs], pad...].
    static constexpr int64_t kTaskTable =
        kSockTable + kNumSocks * kSockSize;
    static constexpr int64_t kNumTasks = 32;
    static constexpr int64_t kNumSigs = 16;
    static constexpr int64_t kTaskSize = 16 + kNumSigs;

    // VMAs: [start, end, flags, in_use].
    static constexpr int64_t kVmaTable =
        kTaskTable + kNumTasks * kTaskSize;
    static constexpr int64_t kNumVmas = 256;
    static constexpr int64_t kVmaSize = 4;

    // Page table entries (one word each: mapped flag / frame).
    static constexpr int64_t kPteTable =
        kVmaTable + kNumVmas * kVmaSize;
    static constexpr int64_t kNumPtes = 4096;

    // User memory region (workload buffers live here).
    static constexpr int64_t kUserBase = kPteTable + kNumPtes;
    static constexpr int64_t kUserSize = 4096;

    // Per-driver data regions, kDriverWords each, start here.
    static constexpr int64_t kDriverBase = kUserBase + kUserSize;
    static constexpr int64_t kDriverWords = 64;
};

/** Handles the workloads need to drive a built kernel. */
struct KernelInfo
{
    ir::GlobalId kmem = 0;
    ir::GlobalId syscall_table = 0;
    ir::FuncId sys_dispatch = ir::kInvalidFunc;
    ir::FuncId kernel_init = ir::kInvalidFunc; ///< Boot entry.
    uint32_t num_drivers = 0;
};

/** A built kernel: the module plus the handles to drive it. */
struct KernelImage
{
    ir::Module module;
    KernelInfo info;
};

/** Build the synthetic kernel. Deterministic in `config.seed`. */
KernelImage buildKernel(const KernelConfig& config = {});

/** The outcome of tryKernelInfoFromModule(): handles or why not. */
struct KernelInfoResult
{
    std::optional<KernelInfo> info; ///< Engaged iff a synthetic kernel.
    /** Otherwise "module is not a synthetic kernel (missing ...)". */
    std::string error;
};

/**
 * Recover the KernelInfo handles from a kernel module by name — the
 * entry points and tables are stable symbols, so a module that went
 * through print/parse (or any transformation) stays drivable. A
 * module that is not a synthetic kernel is an error value, never a
 * crash or an exit.
 */
KernelInfoResult tryKernelInfoFromModule(const ir::Module& module);

/**
 * tryKernelInfoFromModule() for callers that cannot continue without
 * the handles: fatal (PIBE_FATAL) with the same message otherwise.
 */
KernelInfo kernelInfoFromModule(const ir::Module& module);

} // namespace pibe::kernel

#endif // PIBE_KERNEL_KERNEL_H_
