/**
 * @file
 * The one JSON module: the string escaper every artifact writer uses
 * and the bounded reader every artifact loader and checker uses.
 *
 * Models, campaigns, checkpoints, scoreboards and all telemetry
 * (traces, metrics, bench telemetry) travel as JSON, so both halves
 * are trust boundaries. The escaper always yields valid JSON, control
 * bytes included. The reader never aborts and never recurses without
 * bound: any input, however malformed, comes back as a value or as a
 * typed Error carrying the byte offset where reading stopped.
 */

#ifndef GPUPM_COMMON_JSON_HH
#define GPUPM_COMMON_JSON_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpupm
{
namespace json
{

/**
 * Body of a JSON string literal holding `s` (no surrounding quotes):
 * `"` and `\` are backslash-escaped, newline/tab/CR use their short
 * forms, other bytes below 0x20 become `\u00xx`; every other byte,
 * including non-ASCII, is copied verbatim.
 */
std::string escape(std::string_view s);

/** escape(s) between double quotes. */
std::string quote(std::string_view s);

/** `{"k":"v",...}`: string members in order (span args). */
std::string stringObject(
        const std::vector<std::pair<std::string, std::string>> &members);

/** A parsed JSON value (tree-owning, no sharing). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    /** Members in document order; duplicates are kept. */
    std::vector<std::pair<std::string, Value>> object;

    /** The first member named `key` (the first duplicate wins);
     *  nullptr when absent or when this is not an object. */
    const Value *find(std::string_view key) const;

    /** find(key), but nullptr unless the member is of kind `want`. */
    const Value *find(std::string_view key, Kind want) const;
};

/** Why a document was rejected. */
enum class Errc {
    Truncated, ///< input ended inside a value
    Syntax,    ///< unexpected character or bad literal
    String,    ///< bad escape or unpaired surrogate
    Number,    ///< malformed, out-of-range or non-finite number
    Nesting,   ///< arrays/objects nested deeper than kMaxDepth
    Trailing,  ///< bytes after the document
};

/** Stable name of an error class ("nesting", "truncated", ...). */
std::string_view errcName(Errc code);

/** A rejected document: what went wrong and where. */
struct Error
{
    Errc code = Errc::Syntax;
    /** Byte offset into the input where reading stopped. */
    std::size_t offset = 0;
    std::string detail;

    /** "<errc>: <detail> at byte <offset>". */
    std::string message() const;
};

/** Deepest array/object nesting the reader accepts. */
constexpr int kMaxDepth = 64;

/**
 * Parse one whole document. Numbers must be finite; strings decode
 * every standard escape (`\uXXXX` takes exactly four hex digits, and
 * non-ASCII code points, surrogate pairs included, become UTF-8).
 * Raw bytes inside strings, control bytes included, are taken as
 * they are: older writers emitted them unescaped and their files
 * must still load.
 * @return true with `out` filled, or false with `err` filled.
 */
bool parse(std::string_view text, Value &out, Error &err);

/** Slurp a whole file; prints the path on stderr when it cannot be
 *  opened. */
bool readFile(const std::string &path, std::string &out);

} // namespace json
} // namespace gpupm

#endif // GPUPM_COMMON_JSON_HH
