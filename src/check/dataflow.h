/**
 * @file
 * Bit-vector dataflow over PIR CFGs.
 *
 * One generic worklist solver (forward/backward direction x union/
 * intersect meet, gen/kill transfer functions) instantiated four ways:
 *
 *  - Liveness        : backward/union over registers;
 *  - FrameLiveness   : backward/union over frame slots;
 *  - ReachingDefs    : forward/union over definition sites;
 *  - DefiniteAssignment : forward/intersect over registers.
 *
 * All block-level results are computed eagerly at construction (PIR
 * functions are small); instruction-granularity views are derived by
 * replaying one block from its boundary fact.
 *
 * Two instruction-granularity APIs coexist:
 *
 *  - the original per-query forms (assignedBefore, defsOfRegAt,
 *    perInstLiveOut returning a fresh vector) replay the block on
 *    every call — O(block²) when queried per instruction. They are
 *    kept as the oracle for differential tests;
 *  - streaming cursors (DefiniteAssignment::Cursor,
 *    ReachingDefs::Cursor) and the reusable FactMatrix overloads of
 *    perInstLiveOut advance through a block once, amortizing each
 *    query to O(1)/O(words). The checkers use these.
 */
#ifndef PIBE_CHECK_DATAFLOW_H_
#define PIBE_CHECK_DATAFLOW_H_

#include <cstdint>
#include <vector>

#include "check/cfg.h"
#include "ir/module.h"

namespace pibe::check {

/** Fixed-width bit set; the lattice element of every solver below. */
class BitVector
{
  public:
    BitVector() = default;
    explicit BitVector(size_t bits, bool ones = false)
        : bits_(bits), words_(wordCount(bits), ones ? ~uint64_t{0} : 0)
    {
        trim();
    }

    size_t size() const { return bits_; }

    void
    set(size_t i)
    {
        bits(i) |= mask(i);
    }
    void
    clear(size_t i)
    {
        bits(i) &= ~mask(i);
    }
    bool
    test(size_t i) const
    {
        return (words_[i >> 6] & mask(i)) != 0;
    }

    /** this |= other. Returns true if any bit changed. */
    bool
    unionWith(const BitVector& other)
    {
        bool changed = false;
        for (size_t w = 0; w < words_.size(); ++w) {
            uint64_t next = words_[w] | other.words_[w];
            changed |= next != words_[w];
            words_[w] = next;
        }
        return changed;
    }

    /** this &= other. Returns true if any bit changed. */
    bool
    intersectWith(const BitVector& other)
    {
        bool changed = false;
        for (size_t w = 0; w < words_.size(); ++w) {
            uint64_t next = words_[w] & other.words_[w];
            changed |= next != words_[w];
            words_[w] = next;
        }
        return changed;
    }

    /** this = (this & ~kill) | gen — the gen/kill transfer step. */
    void
    transfer(const BitVector& gen, const BitVector& kill)
    {
        for (size_t w = 0; w < words_.size(); ++w)
            words_[w] = (words_[w] & ~kill.words_[w]) | gen.words_[w];
    }

    bool
    operator==(const BitVector& other) const
    {
        return bits_ == other.bits_ && words_ == other.words_;
    }

    size_t
    count() const
    {
        size_t n = 0;
        for (uint64_t w : words_)
            n += static_cast<size_t>(__builtin_popcountll(w));
        return n;
    }

    /** Raw word storage (bit i lives in word i/64); for bulk copies. */
    const uint64_t* words() const { return words_.data(); }
    size_t numWords() const { return words_.size(); }

  private:
    static size_t wordCount(size_t bits) { return (bits + 63) / 64; }
    static uint64_t mask(size_t i) { return uint64_t{1} << (i & 63); }
    uint64_t&
    bits(size_t i)
    {
        PIBE_ASSERT(i < bits_, "BitVector index ", i, " out of range");
        return words_[i >> 6];
    }

    /** Zero the unused tail bits so operator== stays meaningful. */
    void
    trim()
    {
        if (bits_ % 64 != 0 && !words_.empty())
            words_.back() &= (uint64_t{1} << (bits_ % 64)) - 1;
    }

    size_t bits_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Dense per-instruction fact matrix: row i is one bit set sized to the
 * analysis universe. One flat allocation, reused across blocks via
 * reset(), so instruction-granularity sweeps do not allocate (or copy
 * a BitVector) per instruction.
 */
class FactMatrix
{
  public:
    void
    reset(size_t rows, size_t bits)
    {
        stride_ = (bits + 63) / 64;
        words_.assign(rows * stride_, 0);
    }

    bool
    test(size_t row, size_t bit) const
    {
        return (words_[row * stride_ + (bit >> 6)] &
                (uint64_t{1} << (bit & 63))) != 0;
    }

    uint64_t* row(size_t r) { return words_.data() + r * stride_; }
    size_t stride() const { return stride_; }

  private:
    size_t stride_ = 0;
    std::vector<uint64_t> words_;
};

/** Solver configuration. */
enum class Direction : uint8_t { kForward, kBackward };
enum class Meet : uint8_t { kUnion, kIntersect };

/** Per-block gen/kill transfer function. */
struct GenKill
{
    BitVector gen;
    BitVector kill;
};

/** Block-level fixpoint of one dataflow problem. */
struct DataflowResult
{
    /** Fact at block entry (forward) resp. block exit (backward). */
    std::vector<BitVector> in;
    /** Fact at block exit (forward) resp. block entry (backward). */
    std::vector<BitVector> out;
    /** Worklist passes until the fixpoint (for tests/telemetry). */
    size_t iterations = 0;
};

/**
 * Run the iterative worklist solver.
 *
 * `boundary` seeds the entry block (forward) or every exit block
 * (backward); unreachable blocks keep the lattice identity (empty for
 * union, full for intersect). `transfer` must have one entry per
 * block, each sized to `universe` bits.
 */
DataflowResult solveDataflow(const Cfg& cfg, Direction dir, Meet meet,
                             size_t universe,
                             const std::vector<GenKill>& transfer,
                             const BitVector& boundary);

// --- Register operand queries (shared by analyses and checkers) -----

/** Register defined by `inst`, or kNoReg. */
ir::Reg instrDef(const ir::Instruction& inst);

/** Append every register `inst`, an instruction of `func`, reads to
 *  `uses`. */
void appendUses(const ir::Function& func, const ir::Instruction& inst,
                std::vector<ir::Reg>& uses);

// --- Concrete analyses ---------------------------------------------

/** Backward/union liveness of virtual registers. */
class Liveness
{
  public:
    Liveness(const ir::Function& func, const Cfg& cfg);

    const BitVector& liveIn(ir::BlockId b) const { return result_.out[b]; }
    const BitVector& liveOut(ir::BlockId b) const { return result_.in[b]; }

    /**
     * Live-out fact after each instruction of `b` (index-aligned with
     * the block), derived by replaying the block backward.
     */
    std::vector<BitVector> perInstLiveOut(ir::BlockId b) const;

    /** Allocation-free form: fills `out` (row i = after inst i). */
    void perInstLiveOut(ir::BlockId b, FactMatrix& out) const;

    size_t iterations() const { return result_.iterations; }

  private:
    const ir::Function& func_;
    DataflowResult result_;
};

/** Backward/union liveness of frame slots (kFrameLoad/kFrameStore). */
class FrameLiveness
{
  public:
    FrameLiveness(const ir::Function& func, const Cfg& cfg);

    const BitVector& liveOut(ir::BlockId b) const { return result_.in[b]; }

    /** Live-out fact after each instruction of `b`. */
    std::vector<BitVector> perInstLiveOut(ir::BlockId b) const;

    /** Allocation-free form: fills `out` (row i = after inst i). */
    void perInstLiveOut(ir::BlockId b, FactMatrix& out) const;

  private:
    const ir::Function& func_;
    DataflowResult result_;
};

/** Forward/union reaching definitions. */
class ReachingDefs
{
  public:
    /** One definition site: a parameter or an instruction def. */
    struct Def
    {
        ir::Reg reg = ir::kNoReg;
        bool is_param = false;
        ir::BlockId block = 0; ///< Meaningless for params.
        uint32_t index = 0;    ///< Instruction index; param number.
    };

    ReachingDefs(const ir::Function& func, const Cfg& cfg);

    const std::vector<Def>& defs() const { return defs_; }

    /** Defs reaching the *entry* of block `b`. */
    const BitVector& reachingIn(ir::BlockId b) const
    {
        return result_.in[b];
    }

    /**
     * Ids of defs of `reg` that reach instruction `index` of block `b`
     * (before the instruction executes).
     */
    std::vector<size_t> defsOfRegAt(ir::BlockId b, uint32_t index,
                                    ir::Reg reg) const;

    /**
     * Forward streaming view of defsOfRegAt. startBlock() positions
     * the cursor before the first instruction; query, then advance()
     * past each instruction. Def ids are assigned in block/index
     * order, so the id of the instruction under the cursor is a
     * running counter — no per-query replay.
     */
    class Cursor
    {
      public:
        explicit Cursor(const ReachingDefs& rd)
            : rd_(rd), local_def_(rd.func_.num_regs, SIZE_MAX)
        {
        }

        void startBlock(ir::BlockId b);
        void advance(const ir::Instruction& inst);
        /** Defs of `reg` reaching the current position, into `out`. */
        void defsOf(ir::Reg reg, std::vector<size_t>& out) const;

      private:
        const ReachingDefs& rd_;
        ir::BlockId block_ = 0;
        /** Def id the next defining instruction will occupy. */
        size_t next_id_ = 0;
        /** Latest in-block def id per register; SIZE_MAX = none yet. */
        std::vector<size_t> local_def_;
        std::vector<ir::Reg> touched_;
    };

  private:
    const ir::Function& func_;
    std::vector<Def> defs_;
    /** Def ids grouped by register (kill-set construction). */
    std::vector<std::vector<size_t>> defs_by_reg_;
    /** First def id allocated inside each block (cursor seeding). */
    std::vector<size_t> first_def_in_block_;
    DataflowResult result_;
};

/** Forward/intersect definite assignment of registers. */
class DefiniteAssignment
{
  public:
    DefiniteAssignment(const ir::Function& func, const Cfg& cfg);

    /**
     * Registers definitely assigned on *every* path reaching
     * instruction `index` of block `b` (parameters included).
     */
    BitVector assignedBefore(ir::BlockId b, uint32_t index) const;

    /**
     * Forward streaming view of assignedBefore: one BitVector carried
     * through the block instead of a copy + replay per query.
     */
    class Cursor
    {
      public:
        explicit Cursor(const DefiniteAssignment& da) : da_(da) {}

        void startBlock(ir::BlockId b) { assigned_ = da_.result_.in[b]; }

        void
        advance(const ir::Instruction& inst)
        {
            const ir::Reg d = instrDef(inst);
            if (d != ir::kNoReg && d < assigned_.size())
                assigned_.set(d);
        }

        /** Fact before the instruction the cursor stands on. */
        const BitVector& assigned() const { return assigned_; }

      private:
        const DefiniteAssignment& da_;
        BitVector assigned_;
    };

  private:
    const ir::Function& func_;
    DataflowResult result_;
};

} // namespace pibe::check

#endif // PIBE_CHECK_DATAFLOW_H_
