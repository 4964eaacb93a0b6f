/**
 * @file
 * The repo's one JSON reader and one string escaper.
 *
 * Just enough JSON for the files the project writes and reads back:
 * Chrome traces (`gpushield profile --check`) and sweep JSON Lines
 * (MetricsRegistry::read_jsonl). Objects, arrays, strings with every
 * escape json_escape() emits (`\u00XX` included), numbers (exact when
 * they are unsigned 64-bit integers), booleans and null. Not a
 * general-purpose parser: no streaming, no non-ASCII `\u` escapes.
 */

#ifndef GPUSHIELD_COMMON_JSON_H
#define GPUSHIELD_COMMON_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gpushield {

/** One parsed JSON value (tree-owned). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** A number spelled with digits only that fits 64 bits: `number`
     *  rounds it, `uint` holds it exactly. */
    bool is_uint = false;
    std::uint64_t uint = 0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion order is not preserved; no reader needs it. */
    std::map<std::string, JsonValue> object;

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    bool is(Kind k) const { return kind == k; }
};

/** Parses @p text; throws SimulationError on malformed input. */
JsonValue parse_json(std::string_view text);

/** Escapes @p s for a JSON string body: quote, backslash, \n, \t and
 *  \r by name, every other control character as `\u00XX`. */
std::string json_escape(const std::string &s);

} // namespace gpushield

#endif // GPUSHIELD_COMMON_JSON_H
