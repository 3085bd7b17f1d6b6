#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace redeye::perf {

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<Json>
    parseDocument(std::string *error)
    {
        std::optional<Json> v = value();
        skipSpace();
        if (v && pos_ != text_.size())
            fail("trailing characters");
        if (!error_.empty()) {
            if (error)
                *error = error_ + " at offset " + std::to_string(pos_);
            return std::nullopt;
        }
        return v;
    }

  private:
    void
    fail(const char *what)
    {
        if (error_.empty())
            error_ = what;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t'))
            ++pos_;
    }

    bool
    consume(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    std::optional<Json>
    value()
    {
        // Nesting deeper than this is not something perf_bench writes.
        if (++depth_ > 64) {
            fail("nesting too deep");
            return std::nullopt;
        }
        skipSpace();
        std::optional<Json> v;
        if (pos_ >= text_.size()) {
            fail("unexpected end");
        } else if (text_[pos_] == '{') {
            v = object();
        } else if (text_[pos_] == '[') {
            v = array();
        } else if (text_[pos_] == '"') {
            Json j;
            j.kind = Json::Kind::String;
            if (string(j.string))
                v = std::move(j);
        } else if (consume("true")) {
            v = boolean(true);
        } else if (consume("false")) {
            v = boolean(false);
        } else if (consume("null")) {
            v = Json{};
        } else {
            v = numberValue();
        }
        --depth_;
        return v;
    }

    static Json
    boolean(bool b)
    {
        Json j;
        j.kind = Json::Kind::Bool;
        j.boolean = b;
        return j;
    }

    std::optional<Json>
    numberValue()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::string_view("+-0123456789.eE").find(text_[pos_]) !=
                   std::string_view::npos)
            ++pos_;
        const std::string digits(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double d = std::strtod(digits.c_str(), &end);
        if (digits.empty() || end != digits.c_str() + digits.size()) {
            fail("bad number");
            return std::nullopt;
        }
        Json j;
        j.kind = Json::Kind::Number;
        j.number = d;
        return j;
    }

    bool
    string(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("control character in string");
                return false;
            }
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                c = text_[pos_++];
                switch (c) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u':
                    // Kept verbatim: no file perf_bench reads needs
                    // non-ASCII text decoded.
                    out += "\\u";
                    continue;
                  case '"': case '\\': case '/': break;
                  default:
                    fail("bad escape");
                    return false;
                }
            }
            out += c;
        }
        if (pos_ >= text_.size()) {
            fail("unterminated string");
            return false;
        }
        ++pos_; // closing quote
        return true;
    }

    std::optional<Json>
    array()
    {
        ++pos_;
        Json j;
        j.kind = Json::Kind::Array;
        skipSpace();
        if (consume("]"))
            return j;
        for (;;) {
            std::optional<Json> item = value();
            if (!item)
                return std::nullopt;
            j.items.push_back(std::move(*item));
            skipSpace();
            if (consume("]"))
                return j;
            if (!consume(",")) {
                fail("expected ',' or ']'");
                return std::nullopt;
            }
        }
    }

    std::optional<Json>
    object()
    {
        ++pos_;
        Json j;
        j.kind = Json::Kind::Object;
        skipSpace();
        if (consume("}"))
            return j;
        for (;;) {
            skipSpace();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected a key");
                return std::nullopt;
            }
            if (!string(key))
                return std::nullopt;
            skipSpace();
            if (!consume(":")) {
                fail("expected ':'");
                return std::nullopt;
            }
            std::optional<Json> member = value();
            if (!member)
                return std::nullopt;
            j.members.emplace_back(std::move(key), std::move(*member));
            skipSpace();
            if (consume("}"))
                return j;
            if (!consume(",")) {
                fail("expected ',' or '}'");
                return std::nullopt;
            }
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

const Json *
Json::find(std::string_view key) const
{
    for (const auto &[name, member] : members) {
        if (name == key)
            return &member;
    }
    return nullptr;
}

std::optional<Json>
parseJson(std::string_view text, std::string *error)
{
    return Parser(text).parseDocument(error);
}

std::string
quote(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace redeye::perf
