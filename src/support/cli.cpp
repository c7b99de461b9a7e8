#include "support/cli.hpp"

#include "support/error.hpp"
#include "support/str.hpp"

#include <iostream>

namespace relperf::support {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)), out_(&std::cout) {}

void CliParser::set_output(std::ostream* out) {
    RELPERF_REQUIRE(out != nullptr, "CliParser: output stream must not be null");
    out_ = out;
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
    RELPERF_REQUIRE(!options_.count(name), "CliParser: duplicate option --" + name);
    options_[name] = Option{help, "", true, false};
    order_.push_back(name);
}

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
    RELPERF_REQUIRE(!options_.count(name), "CliParser: duplicate option --" + name);
    options_[name] = Option{help, default_value, false, false};
    order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            (*out_) << usage() << std::flush;
            return false;
        }
        RELPERF_REQUIRE(str::starts_with(arg, "--"),
                        "CliParser: positional arguments are not supported: " + arg);
        arg = arg.substr(2);

        std::string key = arg;
        std::optional<std::string> inline_value;
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            key = arg.substr(0, eq);
            inline_value = arg.substr(eq + 1);
        }

        const auto it = options_.find(key);
        RELPERF_REQUIRE(it != options_.end(), "CliParser: unknown option --" + key);
        Option& opt = it->second;

        if (opt.is_flag) {
            RELPERF_REQUIRE(!inline_value.has_value(),
                            "CliParser: flag --" + key + " takes no value");
            opt.flag_set = true;
        } else if (inline_value.has_value()) {
            opt.value = *inline_value;
        } else {
            RELPERF_REQUIRE(i + 1 < argc, "CliParser: option --" + key + " expects a value");
            opt.value = argv[++i];
        }
    }
    return true;
}

const CliParser::Option& CliParser::lookup(const std::string& name) const {
    const auto it = options_.find(name);
    RELPERF_REQUIRE(it != options_.end(), "CliParser: undeclared option --" + name);
    return it->second;
}

bool CliParser::flag(const std::string& name) const {
    const Option& opt = lookup(name);
    RELPERF_REQUIRE(opt.is_flag, "CliParser: --" + name + " is not a flag");
    return opt.flag_set;
}

std::string CliParser::value(const std::string& name) const {
    const Option& opt = lookup(name);
    RELPERF_REQUIRE(!opt.is_flag, "CliParser: --" + name + " is a flag");
    return opt.value;
}

std::optional<std::string> CliParser::value_optional(const std::string& name) const {
    const std::string v = value(name);
    if (v.empty()) return std::nullopt;
    return v;
}

std::string CliParser::usage() const {
    std::string out = description_ + "\n\nOptions:\n";
    for (const std::string& name : order_) {
        const Option& opt = options_.at(name);
        std::string left = "  --" + name + (opt.is_flag ? "" : " <value>");
        out += str::pad_right(left, 30) + opt.help;
        if (!opt.is_flag && !opt.value.empty()) {
            out += " (default: " + opt.value + ")";
        }
        out += '\n';
    }
    out += "  --help                      print this message\n";
    return out;
}

} // namespace relperf::support
