#include "json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/numio.hh"

namespace gpupm
{
namespace json
{

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
quote(std::string_view s)
{
    return '"' + escape(s) + '"';
}

std::string
stringObject(
        const std::vector<std::pair<std::string, std::string>> &members)
{
    std::string out = "{";
    for (const auto &[key, value] : members)
        out += (out.size() > 1 ? "," : "") + quote(key) + ':' +
               quote(value);
    return out + '}';
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &kv : object)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const Value *
Value::find(std::string_view key, Kind want) const
{
    const Value *v = find(key);
    return v && v->kind == want ? v : nullptr;
}

std::string_view
errcName(Errc code)
{
    switch (code) {
      case Errc::Truncated: return "truncated";
      case Errc::Syntax: return "syntax";
      case Errc::String: return "string";
      case Errc::Number: return "number";
      case Errc::Nesting: return "nesting";
      case Errc::Trailing: return "trailing";
    }
    return "unknown";
}

std::string
Error::message() const
{
    return std::string(errcName(code)) + ": " + detail + " at byte " +
           std::to_string(offset);
}

namespace
{

/** Recursive descent with the depth passed down, so the recursion is
 *  bounded by kMaxDepth whatever the input. */
class Reader
{
  public:
    Reader(std::string_view text, Error &err) : text_(text), err_(err)
    {}

    bool
    document(Value &out)
    {
        if (!value(out, 0))
            return false;
        skipWs();
        return atEnd() || fail(Errc::Trailing, "trailing characters");
    }

  private:
    bool
    fail(Errc code, const char *detail)
    {
        err_ = {code, pos_, detail};
        return false;
    }

    /** Something else was required here. */
    bool
    expected(const char *what)
    {
        return atEnd() ? fail(Errc::Truncated, "unexpected end of input")
                       : fail(Errc::Syntax, what);
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    void
    skipWs()
    {
        pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_),
                        text_.size());
    }

    bool
    consume(char c)
    {
        skipWs();
        if (atEnd() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    value(Value &out, int depth)
    {
        skipWs();
        if (atEnd())
            return expected("expected a value");
        switch (text_[pos_]) {
          case '{':
          case '[':
            if (depth >= kMaxDepth)
                return fail(Errc::Nesting,
                            "arrays/objects nested deeper than 64");
            return text_[pos_] == '{' ? object(out, depth + 1)
                                      : array(out, depth + 1);
          case '"':
            out.kind = Value::Kind::String;
            return string(out.str);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = Value::Kind::Bool;
            return literal("false");
          case 'n':
            return literal("null");
          default:
            out.kind = Value::Kind::Number;
            return number(out.number);
        }
    }

    bool
    object(Value &out, int depth)
    {
        out.kind = Value::Kind::Object;
        ++pos_;
        if (consume('}'))
            return true;
        do {
            skipWs();
            std::string key;
            if (!string(key))
                return false;
            if (!consume(':'))
                return expected("expected ':'");
            out.object.emplace_back(std::move(key), Value{});
            if (!value(out.object.back().second, depth))
                return false;
        } while (consume(','));
        return consume('}') || expected("expected ',' or '}'");
    }

    bool
    array(Value &out, int depth)
    {
        out.kind = Value::Kind::Array;
        ++pos_;
        if (consume(']'))
            return true;
        do {
            out.array.emplace_back();
            if (!value(out.array.back(), depth))
                return false;
        } while (consume(','));
        return consume(']') || expected("expected ',' or ']'");
    }

    bool
    literal(std::string_view word)
    {
        const std::string_view have = text_.substr(pos_, word.size());
        if (have != word)
            return have.size() < word.size() && word.starts_with(have)
                           ? fail(Errc::Truncated,
                                  "unexpected end of input")
                           : fail(Errc::Syntax, "bad literal");
        pos_ += word.size();
        return true;
    }

    bool
    number(double &out)
    {
        const std::size_t end = std::min(
                text_.find_first_not_of("0123456789+-.eE", pos_),
                text_.size());
        if (end == pos_)
            return fail(Errc::Syntax, "unexpected character");
        if (!numio::parseDouble(text_.substr(pos_, end - pos_), out) ||
            !std::isfinite(out))
            return fail(Errc::Number, "bad or non-finite number");
        pos_ = end;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (atEnd() || text_[pos_] != '"')
            return expected("expected a string");
        ++pos_;
        for (;;) {
            const std::size_t stop = text_.find_first_of("\"\\", pos_);
            if (stop == std::string_view::npos) {
                pos_ = text_.size();
                return fail(Errc::Truncated, "unterminated string");
            }
            out.append(text_.substr(pos_, stop - pos_));
            pos_ = stop + 1;
            if (text_[stop] == '"')
                return true;
            if (!unescape(out))
                return false;
        }
    }

    bool
    unescape(std::string &out)
    {
        if (atEnd())
            return fail(Errc::Truncated, "unterminated escape");
        switch (const char e = text_[pos_++]) {
          case '"':
          case '\\':
          case '/': out += e; return true;
          case 'b': out += '\b'; return true;
          case 'f': out += '\f'; return true;
          case 'n': out += '\n'; return true;
          case 'r': out += '\r'; return true;
          case 't': out += '\t'; return true;
          case 'u': return codePoint(out);
        }
        --pos_;
        return fail(Errc::String, "bad escape");
    }

    /** The four hex digits of a \u escape. */
    bool
    hex4(unsigned &unit)
    {
        const std::string_view hex = text_.substr(pos_, 4);
        const char *end = hex.data() + hex.size();
        const auto res = std::from_chars(hex.data(), end, unit, 16);
        pos_ += static_cast<std::size_t>(res.ptr - hex.data());
        if (res.ptr == end && hex.size() == 4)
            return true;
        return res.ptr == end
                       ? fail(Errc::Truncated, "truncated \\u escape")
                       : fail(Errc::String,
                              "\\u takes exactly four hex digits");
    }

    /** The rest of a \u escape (a surrogate pair takes two), appended
     *  as UTF-8. */
    bool
    codePoint(std::string &out)
    {
        unsigned cp = 0, low = 0;
        if (!hex4(cp))
            return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (text_.substr(pos_, 2) != "\\u")
                return fail(Errc::String, "unpaired surrogate");
            pos_ += 2;
            if (!hex4(low))
                return false;
            if (low < 0xDC00 || low > 0xDFFF)
                return fail(Errc::String, "unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail(Errc::String, "unpaired surrogate");
        }
        if (cp < 0x80) {
            out += static_cast<char>(cp);
            return true;
        }
        // Lead byte, then six payload bits per continuation byte.
        static constexpr unsigned kLead[] = {0, 0xC0, 0xE0, 0xF0};
        const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
        for (int i = tail - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
        return true;
    }

    std::string_view text_;
    Error &err_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parse(std::string_view text, Value &out, Error &err)
{
    out = Value{};
    return Reader(text, err).document(out);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

} // namespace json
} // namespace gpupm
