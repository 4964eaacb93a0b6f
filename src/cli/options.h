/**
 * @file
 * The option layer under every `gpushield` subcommand.
 *
 * A subcommand declares one table of {flag, metavar, help, target};
 * the same table drives both the parse and the usage text, so a flag
 * cannot be parsed yet undocumented or documented yet unparsed.
 * Parsing never ends the process: a malformed command line makes
 * parse() print a message and return false, and the subcommand
 * returns exit status 2.
 */

#ifndef GPUSHIELD_CLI_OPTIONS_H
#define GPUSHIELD_CLI_OPTIONS_H

#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "shield/config.h"

namespace gpushield::harness {
struct SuiteDef;
}

namespace gpushield::cli {

/**
 * Where a flag's value goes. A switch (metavar == nullptr) sets its
 * bool, or calls its callback with nullptr. A SuiteDef target takes a
 * registered sweep suite name. A callback returns false to reject the
 * value.
 */
using Target =
    std::variant<bool *, unsigned *, std::uint64_t *, std::string *,
                 ShieldBackendKind *, const harness::SuiteDef **,
                 std::function<bool(const char *)>>;

struct Option
{
    const char *flag;    //!< "--jobs"
    const char *metavar; //!< "N"; nullptr for a switch
    const char *help;
    Target target;
};

/** One subcommand's option table. */
struct Options
{
    const char *command;  //!< subcommand name, e.g. "sweep"
    const char *synopsis; //!< usage line after the command name
    std::vector<Option> options;

    /** Parses @p argv[0, argc) into the targets. @return false after
     *  printing what was wrong (and, for an unknown flag, the usage). */
    bool parse(int argc, char **argv) const;

    /** Prints the usage text to stderr. @return 2, the misuse status. */
    int usage() const;
};

/** Strict decimal parse: digits only, within T's range. */
template <typename T>
bool
parse_number(const char *text, T &out)
{
    // from_chars on an unsigned type takes no sign and no whitespace.
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, out);
    return text != end && ec == std::errc{} && ptr == end;
}

/** Opens @p path for writing ('-' = stdout). Called before any work
 *  starts, so a bad path fails fast. @return null after a message when
 *  the file cannot be opened. */
std::unique_ptr<std::ostream> open_output(const std::string &path);

} // namespace gpushield::cli

#endif // GPUSHIELD_CLI_OPTIONS_H
