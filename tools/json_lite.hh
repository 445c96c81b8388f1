/**
 * @file
 * The shared JSON reader (common/json.hh) under the names the
 * repository benchmark (perfbench/) includes. It exists only for
 * perfbench/; everything else includes common/json.hh directly.
 */

#ifndef GPUPM_TOOLS_JSON_LITE_HH
#define GPUPM_TOOLS_JSON_LITE_HH

#include <string>

#include "common/json.hh"

namespace gpupm
{
namespace jsonlite
{

using JsonValue = json::Value;
using json::readFile;

/** json::parse behind the old class interface. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out, std::string &err) const
    {
        json::Error e;
        if (json::parse(text_, out, e))
            return true;
        err = e.message();
        return false;
    }

  private:
    const std::string &text_;
};

} // namespace jsonlite
} // namespace gpupm

#endif // GPUPM_TOOLS_JSON_LITE_HH
