#include "cli/options.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <type_traits>

#include "harness/suites.h"

namespace gpushield::cli {

bool
Options::parse(int argc, char **argv) const
{
    for (int i = 0; i < argc; ++i) {
        const auto opt = std::find_if(
            options.begin(), options.end(),
            [&](const Option &o) { return std::strcmp(o.flag, argv[i]) == 0; });
        if (opt == options.end()) {
            std::fprintf(stderr, "gpushield %s: unknown option %s\n", command,
                         argv[i]);
            usage();
            return false;
        }
        if (opt->metavar != nullptr && i + 1 >= argc) {
            std::fprintf(stderr, "gpushield %s: %s needs a value\n", command,
                         opt->flag);
            return false;
        }
        const char *value = opt->metavar != nullptr ? argv[++i] : nullptr;
        const bool ok = std::visit([value](const auto &t) {
            using T = std::decay_t<decltype(t)>;
            if constexpr (std::is_same_v<T, bool *>)
                return *t = true;
            else if constexpr (std::is_same_v<T, std::string *>)
                return (*t = value, true);
            else if constexpr (std::is_same_v<T, ShieldBackendKind *>)
                return parse_shield_backend(value, *t);
            else if constexpr (std::is_same_v<T, const harness::SuiteDef **>)
                return (*t = harness::find_suite(value)) != nullptr;
            else if constexpr (std::is_pointer_v<T>)
                return parse_number(value, *t);
            else
                return t(value);
        }, opt->target);
        if (!ok) {
            std::fprintf(stderr, "gpushield %s: bad value '%s' for %s\n",
                         command, value, opt->flag);
            return false;
        }
    }
    return true;
}

int
Options::usage() const
{
    std::fprintf(stderr, "usage: gpushield %s %s\n", command, synopsis);
    std::vector<std::string> heads;
    std::size_t width = 0;
    for (const Option &o : options) {
        heads.push_back(o.metavar ? std::string(o.flag) + " " + o.metavar
                                  : o.flag);
        width = std::max(width, heads.back().size());
    }
    for (std::size_t k = 0; k < options.size(); ++k)
        std::fprintf(stderr, "  %-*s  %s\n", static_cast<int>(width),
                     heads[k].c_str(), options[k].help);
    return 2;
}

std::unique_ptr<std::ostream>
open_output(const std::string &path)
{
    if (path == "-")
        return std::make_unique<std::ostream>(std::cout.rdbuf());
    auto file = std::make_unique<std::ofstream>(path);
    if (file->is_open())
        return file;
    std::fprintf(stderr, "gpushield: cannot open %s\n", path.c_str());
    return nullptr;
}

} // namespace gpushield::cli
