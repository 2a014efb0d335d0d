/**
 * @file
 * The repo's one strict JSON value parser, shared by the model format
 * (dnn/model_io), the deployment-plan format (plan/plan) and the
 * harvest-trace format (env/traces). Only what
 * those contracts need: objects, arrays, strings (ASCII escapes),
 * numbers, booleans, null. Strict — trailing garbage and malformed
 * tokens are errors, because a serialized artifact is a contract.
 */

#ifndef SONIC_UTIL_JSON_PARSE_HH
#define SONIC_UTIL_JSON_PARSE_HH

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/types.hh"

namespace sonic::jsonp
{

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue
{
    std::variant<std::nullptr_t, bool, f64, std::string,
                 std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
        v = nullptr;

    const JsonObject *object() const
    {
        auto p = std::get_if<std::shared_ptr<JsonObject>>(&v);
        return p ? p->get() : nullptr;
    }

    const JsonArray *array() const
    {
        auto p = std::get_if<std::shared_ptr<JsonArray>>(&v);
        return p ? p->get() : nullptr;
    }

    const std::string *string() const
    {
        return std::get_if<std::string>(&v);
    }

    const f64 *number() const { return std::get_if<f64>(&v); }
    const bool *boolean() const { return std::get_if<bool>(&v); }
};

/**
 * Parse one JSON document. Returns false with a byte-positioned
 * diagnostic in *error on any malformed input, including trailing
 * garbage after the document.
 */
bool parseJson(const std::string &text, JsonValue *out,
               std::string *error);

/** @name Typed field access (all set *error naming ctx + key). */
/// @{
bool getString(const JsonObject &obj, const char *key, std::string *out,
               std::string *error, const std::string &ctx);
bool getU32(const JsonObject &obj, const char *key, u32 *out,
            std::string *error, const std::string &ctx);
bool getU64(const JsonObject &obj, const char *key, u64 *out,
            std::string *error, const std::string &ctx);
bool getF64(const JsonObject &obj, const char *key, f64 *out,
            std::string *error, const std::string &ctx);
bool getBool(const JsonObject &obj, const char *key, bool *out,
             std::string *error, const std::string &ctx);
/// @}

} // namespace sonic::jsonp

#endif // SONIC_UTIL_JSON_PARSE_HH
