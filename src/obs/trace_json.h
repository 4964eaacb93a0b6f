/**
 * @file
 * Minimal JSON parser + Chrome-trace structural validator.
 *
 * Just enough JSON to round-trip Profiler::write_chrome_trace output in
 * tests and the `gpushield profile --check` gate: objects, arrays,
 * strings (with the escapes the writer emits), numbers, booleans, null.
 * Not a general-purpose parser — no \uXXXX escapes, no streaming.
 */

#ifndef GPUSHIELD_OBS_TRACE_JSON_H
#define GPUSHIELD_OBS_TRACE_JSON_H

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace gpushield::obs {

/** One parsed JSON value (tree-owned). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion order is not preserved; trace checks don't need it. */
    std::map<std::string, JsonValue> object;

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    bool is(Kind k) const { return kind == k; }
};

/** Parses @p text; throws SimulationError on malformed input. */
JsonValue parse_json(std::string_view text);

/**
 * Validates @p root as a Chrome trace: `traceEvents` is an array; every
 * event has name/ph/pid/tid; "X" events carry numeric ts+dur and, per
 * (pid,tid) track, nest strictly (each span is fully inside or fully
 * outside every other). On failure returns false and, when @p error is
 * non-null, describes the first problem.
 */
bool validate_trace(const JsonValue &root, std::string *error = nullptr);

} // namespace gpushield::obs

#endif // GPUSHIELD_OBS_TRACE_JSON_H
