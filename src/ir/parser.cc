#include "ir/parser.h"

#include <cctype>
#include <charconv>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "support/logging.h"

namespace pibe::ir {

namespace {

/** Cursor over one line of input with fatal diagnostics. */
class LineCursor
{
  public:
    LineCursor(const std::string& line, size_t line_no)
        : line_(line), line_no_(line_no)
    {
    }

    void
    skipSpace()
    {
        while (pos_ < line_.size() && line_[pos_] == ' ')
            ++pos_;
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos_ >= line_.size();
    }

    /** Consume `literal` if present; returns whether it was. */
    bool
    tryLiteral(const std::string& literal)
    {
        skipSpace();
        if (line_.compare(pos_, literal.size(), literal) == 0) {
            pos_ += literal.size();
            return true;
        }
        return false;
    }

    void
    expect(const std::string& literal)
    {
        if (!tryLiteral(literal))
            fail("expected '" + literal + "'");
    }

    int64_t
    parseInt()
    {
        skipSpace();
        const size_t start = pos_;
        if (pos_ < line_.size() && (line_[pos_] == '-'))
            ++pos_;
        const size_t digits = pos_;
        while (pos_ < line_.size() && std::isdigit(
                                          static_cast<unsigned char>(
                                              line_[pos_])))
            ++pos_;
        const size_t end = pos_;
        pos_ = start; // point error messages at the literal
        if (end == digits)
            fail("expected integer");
        int64_t value = 0;
        if (std::from_chars(line_.data() + start, line_.data() + end,
                            value)
                .ec != std::errc())
            fail("integer out of range");
        pos_ = end;
        return value;
    }

    /** Parse "rN" or "_" (kNoReg). */
    Reg
    parseReg()
    {
        skipSpace();
        if (tryLiteral("_"))
            return kNoReg;
        expect("r");
        return static_cast<Reg>(parseInt());
    }

    /** Parse "bbN". */
    BlockId
    parseBlock()
    {
        expect("bb");
        return static_cast<BlockId>(parseInt());
    }

    /** Parse "@name". */
    std::string
    parseName()
    {
        expect("@");
        size_t start = pos_;
        while (pos_ < line_.size()) {
            char c = line_[pos_];
            if (std::isalnum(static_cast<unsigned char>(c)) ||
                c == '_' || c == '.' || c == '$' || c == '-') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("expected name after '@'");
        return line_.substr(start, pos_ - start);
    }

    /** Peek the rest of the line (for error messages / word checks). */
    std::string
    rest()
    {
        skipSpace();
        return line_.substr(pos_);
    }

    /** Parse a bare word (letters, digits, '-'). */
    std::string
    parseWord()
    {
        skipSpace();
        size_t start = pos_;
        while (pos_ < line_.size()) {
            char c = line_[pos_];
            if (std::isalnum(static_cast<unsigned char>(c)) ||
                c == '-' || c == '_' || c == '/') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("expected word");
        return line_.substr(start, pos_ - start);
    }

    [[noreturn]] void
    fail(const std::string& what)
    {
        PIBE_FATAL("PIR parse error at line ", line_no_, ": ", what,
                   " near '", line_.substr(pos_, 24), "'");
    }

  private:
    const std::string& line_;
    size_t line_no_;
    size_t pos_ = 0;
};

bool
binKindFromName(const std::string& word, BinKind* out)
{
    static const std::unordered_map<std::string, BinKind> kMap = {
        {"add", BinKind::kAdd}, {"sub", BinKind::kSub},
        {"mul", BinKind::kMul}, {"div", BinKind::kDiv},
        {"rem", BinKind::kRem}, {"and", BinKind::kAnd},
        {"or", BinKind::kOr},   {"xor", BinKind::kXor},
        {"shl", BinKind::kShl}, {"shr", BinKind::kShr},
        {"eq", BinKind::kEq},   {"ne", BinKind::kNe},
        {"lt", BinKind::kLt},   {"le", BinKind::kLe},
        {"gt", BinKind::kGt},   {"ge", BinKind::kGe},
    };
    auto it = kMap.find(word);
    if (it == kMap.end())
        return false;
    *out = it->second;
    return true;
}

bool
fwdSchemeFromName(const std::string& word, FwdScheme* out)
{
    static const std::unordered_map<std::string, FwdScheme> kMap = {
        {"retpoline", FwdScheme::kRetpoline},
        {"lvi-cfi", FwdScheme::kLviCfi},
        {"fenced-retpoline", FwdScheme::kFencedRetpoline},
        {"jump-switch", FwdScheme::kJumpSwitch},
    };
    auto it = kMap.find(word);
    if (it == kMap.end())
        return false;
    *out = it->second;
    return true;
}

bool
retSchemeFromName(const std::string& word, RetScheme* out)
{
    static const std::unordered_map<std::string, RetScheme> kMap = {
        {"return-retpoline", RetScheme::kReturnRetpoline},
        {"lvi-ret", RetScheme::kLviRet},
        {"fenced-ret", RetScheme::kFencedRet},
    };
    auto it = kMap.find(word);
    if (it == kMap.end())
        return false;
    *out = it->second;
    return true;
}

class ModuleParser
{
  public:
    explicit ModuleParser(const std::string& text)
    {
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line))
            lines_.push_back(line);
    }

    Module
    run()
    {
        declarationPass();
        bodyPass();
        module_.reserveSiteIds(max_site_ + 1);
        return std::move(module_);
    }

  private:
    /** Create all globals and function shells (names resolvable). */
    void
    declarationPass()
    {
        for (size_t i = 0; i < lines_.size(); ++i) {
            const std::string& line = lines_[i];
            LineCursor cur(line, i + 1);
            if (cur.tryLiteral("global ")) {
                std::string name = cur.parseName();
                cur.expect("[");
                int64_t size = cur.parseInt();
                cur.expect("]");
                if (size < 0)
                    cur.fail("negative global size");
                std::vector<int64_t> init(
                    static_cast<size_t>(size), 0);
                if (cur.tryLiteral("{")) {
                    while (true) {
                        int64_t idx = cur.parseInt();
                        cur.expect(":");
                        int64_t value = cur.parseInt();
                        if (idx < 0 || idx >= size)
                            cur.fail("initializer index out of range");
                        init[static_cast<size_t>(idx)] = value;
                        if (cur.tryLiteral(","))
                            continue;
                        cur.expect("}");
                        break;
                    }
                }
                module_.addGlobal(name, std::move(init));
            } else if (cur.tryLiteral("func ")) {
                std::string name = cur.parseName();
                cur.expect("(params=");
                int64_t params = cur.parseInt();
                cur.expect(", regs=");
                int64_t regs = cur.parseInt();
                cur.expect(", frame=");
                int64_t frame = cur.parseInt();
                cur.expect(")");
                uint32_t attrs = kAttrNone;
                while (!cur.tryLiteral("{")) {
                    std::string word = cur.parseWord();
                    if (word == "noinline")
                        attrs |= kAttrNoInline;
                    else if (word == "optnone")
                        attrs |= kAttrOptNone;
                    else if (word == "boot")
                        attrs |= kAttrBootSection;
                    else if (word == "external")
                        attrs |= kAttrExternal;
                    else
                        cur.fail("unknown function attribute '" + word +
                                 "'");
                }
                FuncId id = module_.addFunction(
                    name, static_cast<uint32_t>(params), attrs);
                Function& f = module_.func(id);
                f.num_regs = static_cast<uint32_t>(regs);
                f.frame_size = static_cast<uint32_t>(frame);
            }
        }
    }

    /** Parse function bodies now that every name resolves. */
    void
    bodyPass()
    {
        Function* current = nullptr;
        for (size_t i = 0; i < lines_.size(); ++i) {
            const std::string& line = lines_[i];
            if (line.empty())
                continue;
            LineCursor cur(line, i + 1);
            if (cur.tryLiteral("global "))
                continue;
            if (cur.tryLiteral("func ")) {
                std::string name = cur.parseName();
                current = &module_.func(module_.findFunction(name));
                continue;
            }
            if (cur.tryLiteral("}")) {
                current = nullptr;
                continue;
            }
            if (!current)
                cur.fail("instruction outside function");
            if (cur.tryLiteral("bb")) {
                int64_t id = cur.parseInt();
                cur.expect(":");
                if (id != static_cast<int64_t>(current->blocks.size()))
                    cur.fail("non-sequential block id");
                current->blocks.emplace_back();
                continue;
            }
            if (current->blocks.empty())
                cur.fail("instruction before first block label");
            current->blocks.back().insts.push_back(
                parseInstruction(cur));
        }
    }

    /** Trailing annotations: !asm, !<scheme>, !site N. */
    void
    parseAnnotations(LineCursor& cur, Instruction* inst)
    {
        while (cur.tryLiteral("!")) {
            if (cur.tryLiteral("site")) {
                inst->site_id = static_cast<SiteId>(cur.parseInt());
                if (inst->site_id != kNoSite &&
                    inst->site_id > max_site_)
                    max_site_ = inst->site_id;
                continue;
            }
            std::string word = cur.parseWord();
            FwdScheme fwd;
            RetScheme ret;
            if (word == "asm")
                inst->is_asm = true;
            else if (fwdSchemeFromName(word, &fwd))
                inst->fwd_scheme = fwd;
            else if (retSchemeFromName(word, &ret))
                inst->ret_scheme = ret;
            else
                cur.fail("unknown annotation '!" + word + "'");
        }
        if (!cur.atEnd())
            cur.fail("trailing tokens");
    }

    std::vector<Reg>
    parseArgList(LineCursor& cur)
    {
        std::vector<Reg> args;
        cur.expect("(");
        if (cur.tryLiteral(")"))
            return args;
        while (true) {
            args.push_back(cur.parseReg());
            if (cur.tryLiteral(","))
                continue;
            cur.expect(")");
            break;
        }
        return args;
    }

    FuncId
    resolveFunc(LineCursor& cur)
    {
        std::string name = cur.parseName();
        FuncId id = module_.findFunction(name);
        if (id == kInvalidFunc)
            cur.fail("unknown function '@" + name + "'");
        return id;
    }

    GlobalId
    resolveGlobal(LineCursor& cur)
    {
        std::string name = cur.parseName();
        // Hashed lookup: the old linear scan over numGlobals() was
        // quadratic on generated modules, where thousands of op-table
        // globals are each referenced by many icall loads.
        GlobalId g = module_.findGlobal(name);
        if (g == kInvalidGlobal)
            cur.fail("unknown global '@" + name + "'");
        return g;
    }

    Instruction
    parseInstruction(LineCursor& cur)
    {
        Instruction inst;
        // Destination-less forms first.
        if (cur.tryLiteral("store ")) {
            inst.op = Opcode::kStore;
            inst.global = resolveGlobal(cur);
            cur.expect("[");
            inst.a = cur.parseReg();
            cur.expect("+");
            inst.imm = cur.parseInt();
            cur.expect("]");
            cur.expect("=");
            inst.b = cur.parseReg();
            parseAnnotations(cur, &inst);
            return inst;
        }
        if (cur.tryLiteral("frame[")) {
            inst.op = Opcode::kFrameStore;
            inst.imm = cur.parseInt();
            cur.expect("]");
            cur.expect("=");
            inst.a = cur.parseReg();
            parseAnnotations(cur, &inst);
            return inst;
        }
        if (cur.tryLiteral("sink ")) {
            inst.op = Opcode::kSink;
            inst.a = cur.parseReg();
            parseAnnotations(cur, &inst);
            return inst;
        }
        if (cur.tryLiteral("ret")) {
            inst.op = Opcode::kRet;
            inst.a = kNoReg;
            LineCursor probe = cur; // value is optional
            if (!probe.atEnd() && !probe.tryLiteral("!"))
                inst.a = cur.parseReg();
            parseAnnotations(cur, &inst);
            return inst;
        }
        if (cur.tryLiteral("br ")) {
            inst.op = Opcode::kBr;
            inst.t0 = cur.parseBlock();
            parseAnnotations(cur, &inst);
            return inst;
        }
        if (cur.tryLiteral("condbr ")) {
            inst.op = Opcode::kCondBr;
            inst.a = cur.parseReg();
            cur.expect(",");
            inst.t0 = cur.parseBlock();
            cur.expect(",");
            inst.t1 = cur.parseBlock();
            parseAnnotations(cur, &inst);
            return inst;
        }
        if (cur.tryLiteral("switch ")) {
            inst.op = Opcode::kSwitch;
            inst.a = cur.parseReg();
            cur.expect("default");
            inst.t0 = cur.parseBlock();
            while (cur.tryLiteral(",")) {
                inst.case_values.push_back(cur.parseInt());
                cur.expect("->");
                inst.case_targets.push_back(cur.parseBlock());
            }
            parseAnnotations(cur, &inst);
            return inst;
        }

        // "rD = ..." / "_ = ..." forms.
        inst.dst = cur.parseReg();
        cur.expect("=");
        if (cur.tryLiteral("const ")) {
            inst.op = Opcode::kConst;
            inst.imm = cur.parseInt();
        } else if (cur.tryLiteral("move ")) {
            inst.op = Opcode::kMove;
            inst.a = cur.parseReg();
        } else if (cur.tryLiteral("funcaddr ")) {
            inst.op = Opcode::kFuncAddr;
            inst.callee = resolveFunc(cur);
        } else if (cur.tryLiteral("load ")) {
            inst.op = Opcode::kLoad;
            inst.global = resolveGlobal(cur);
            cur.expect("[");
            inst.a = cur.parseReg();
            cur.expect("+");
            inst.imm = cur.parseInt();
            cur.expect("]");
        } else if (cur.tryLiteral("frame[")) {
            inst.op = Opcode::kFrameLoad;
            inst.imm = cur.parseInt();
            cur.expect("]");
        } else if (cur.tryLiteral("call ")) {
            inst.op = Opcode::kCall;
            inst.callee = resolveFunc(cur);
            inst.args = parseArgList(cur);
        } else if (cur.tryLiteral("icall ")) {
            inst.op = Opcode::kICall;
            inst.a = cur.parseReg();
            inst.args = parseArgList(cur);
        } else {
            std::string word = cur.parseWord();
            BinKind kind;
            if (!binKindFromName(word, &kind))
                cur.fail("unknown opcode '" + word + "'");
            inst.op = Opcode::kBinOp;
            inst.bin = kind;
            inst.a = cur.parseReg();
            cur.expect(",");
            inst.b = cur.parseReg();
        }
        parseAnnotations(cur, &inst);
        return inst;
    }

    std::vector<std::string> lines_;
    Module module_;
    SiteId max_site_ = 0;
};

} // namespace

Module
parseModule(const std::string& text)
{
    return ModuleParser(text).run();
}

} // namespace pibe::ir
