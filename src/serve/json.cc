#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pibe::serve {

namespace {

/** Recursive-descent parser over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<Json>
    parseDocument()
    {
        std::optional<Json> v = parseValue();
        if (!v)
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size())
            return std::nullopt; // trailing garbage
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    std::optional<Json>
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size())
            return std::nullopt;
        // Depth guard: a hostile frame of "[[[[..." must not blow the
        // stack of a daemon session thread.
        if (depth_ > 64)
            return std::nullopt;
        const char c = text_[pos_];
        if (c == 'n')
            return literal("null") ? std::optional<Json>(Json())
                                   : std::nullopt;
        if (c == 't')
            return literal("true") ? std::optional<Json>(Json(true))
                                   : std::nullopt;
        if (c == 'f')
            return literal("false") ? std::optional<Json>(Json(false))
                                    : std::nullopt;
        if (c == '"')
            return parseString();
        if (c == '[')
            return parseArray();
        if (c == '{')
            return parseObject();
        return parseNumber();
    }

    std::optional<Json>
    parseString()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return Json(std::move(out));
            if (static_cast<unsigned char>(c) < 0x20)
                return std::nullopt; // raw control char
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return std::nullopt;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  uint32_t code = 0;
                  for (int i = 0; i < 4; ++i) {
                      if (pos_ >= text_.size() ||
                          !std::isxdigit(static_cast<unsigned char>(
                              text_[pos_])))
                          return std::nullopt;
                      const char h = text_[pos_++];
                      code = code * 16 +
                             (h <= '9'   ? h - '0'
                              : h <= 'F' ? h - 'A' + 10
                                         : h - 'a' + 10);
                  }
                  // UTF-8 encode the BMP code point (surrogate pairs
                  // are passed through as two 3-byte sequences, which
                  // is lossy but our payloads are ASCII in practice).
                  if (code < 0x80) {
                      out += static_cast<char>(code);
                  } else if (code < 0x800) {
                      out += static_cast<char>(0xC0 | (code >> 6));
                      out += static_cast<char>(0x80 | (code & 0x3F));
                  } else {
                      out += static_cast<char>(0xE0 | (code >> 12));
                      out += static_cast<char>(0x80 |
                                               ((code >> 6) & 0x3F));
                      out += static_cast<char>(0x80 | (code & 0x3F));
                  }
                  break;
              }
              default: return std::nullopt;
            }
        }
        return std::nullopt; // unterminated
    }

    std::optional<Json>
    parseNumber()
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            return std::nullopt;
        const std::string token(text_.substr(start, pos_ - start));
        errno = 0;
        char* end = nullptr;
        if (integral) {
            const long long v = std::strtoll(token.c_str(), &end, 10);
            // "-0" stays a double: an integer zero would drop the sign
            // that dump() wrote for -0.0.
            if (errno == 0 && end && *end == '\0' &&
                (v != 0 || token[0] != '-'))
                return Json(static_cast<int64_t>(v));
            // fall through to double on overflow
        }
        end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0' || !std::isfinite(d))
            return std::nullopt;
        return Json(d);
    }

    std::optional<Json>
    parseArray()
    {
        if (!consume('['))
            return std::nullopt;
        Json out = Json::array();
        skipWs();
        if (consume(']'))
            return out;
        ++depth_;
        for (;;) {
            std::optional<Json> v = parseValue();
            if (!v)
                return std::nullopt;
            out.push(std::move(*v));
            if (consume(','))
                continue;
            if (consume(']'))
                break;
            return std::nullopt;
        }
        --depth_;
        return out;
    }

    std::optional<Json>
    parseObject()
    {
        if (!consume('{'))
            return std::nullopt;
        Json out = Json::object();
        skipWs();
        if (consume('}'))
            return out;
        ++depth_;
        for (;;) {
            skipWs();
            std::optional<Json> key = parseString();
            if (!key)
                return std::nullopt;
            if (!consume(':'))
                return std::nullopt;
            std::optional<Json> v = parseValue();
            if (!v)
                return std::nullopt;
            out.set(key->asString(), std::move(*v));
            if (consume(','))
                continue;
            if (consume('}'))
                break;
            return std::nullopt;
        }
        --depth_;
        return out;
    }

    std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
};

void
dumpString(const std::string& s, std::string& out)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

std::optional<Json>
Json::parse(std::string_view text)
{
    return Parser(text).parseDocument();
}

std::string
Json::dump() const
{
    std::string out;
    switch (type_) {
      case Type::kNull: out = "null"; break;
      case Type::kBool: out = bool_ ? "true" : "false"; break;
      case Type::kNumber: {
          char buf[40];
          if (is_int_) {
              std::snprintf(buf, sizeof(buf), "%lld",
                            static_cast<long long>(int_));
          } else {
              // %.17g round-trips every finite double exactly.
              std::snprintf(buf, sizeof(buf), "%.17g", num_);
          }
          out = buf;
          break;
      }
      case Type::kString: dumpString(str_, out); break;
      case Type::kArray: {
          out = "[";
          for (size_t i = 0; i < arr_.size(); ++i) {
              if (i)
                  out += ",";
              out += arr_[i].dump();
          }
          out += "]";
          break;
      }
      case Type::kObject: {
          out = "{";
          bool first = true;
          for (const auto& [key, value] : obj_) {
              if (!first)
                  out += ",";
              first = false;
              dumpString(key, out);
              out += ":";
              out += value.dump();
          }
          out += "}";
          break;
      }
    }
    return out;
}

bool
Json::asBool(bool fallback) const
{
    return type_ == Type::kBool ? bool_ : fallback;
}

double
Json::asDouble(double fallback) const
{
    return type_ == Type::kNumber ? num_ : fallback;
}

int64_t
Json::asInt(int64_t fallback) const
{
    if (type_ != Type::kNumber)
        return fallback;
    return is_int_ ? int_ : static_cast<int64_t>(num_);
}

const std::string&
Json::asString() const
{
    static const std::string kEmpty;
    return type_ == Type::kString ? str_ : kEmpty;
}

const Json&
Json::nullValue()
{
    static const Json kNull;
    return kNull;
}

const Json&
Json::operator[](const std::string& key) const
{
    if (type_ != Type::kObject)
        return nullValue();
    auto it = obj_.find(key);
    return it == obj_.end() ? nullValue() : it->second;
}

bool
Json::has(const std::string& key) const
{
    return type_ == Type::kObject && obj_.count(key) != 0;
}

Json&
Json::set(const std::string& key, Json value)
{
    type_ = Type::kObject;
    obj_[key] = std::move(value);
    return *this;
}

Json&
Json::push(Json value)
{
    type_ = Type::kArray;
    arr_.push_back(std::move(value));
    return *this;
}

size_t
Json::size() const
{
    if (type_ == Type::kArray)
        return arr_.size();
    if (type_ == Type::kObject)
        return obj_.size();
    return 0;
}

const Json&
Json::at(size_t i) const
{
    if (type_ != Type::kArray || i >= arr_.size())
        return nullValue();
    return arr_[i];
}

} // namespace pibe::serve
