#include "common/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/error.hpp"

namespace fvdf {

bool parse_extent(std::string_view text, i64& width, i64& height) {
  const auto x = text.find('x');
  if (x == std::string_view::npos) return false;
  i64 w = 0, h = 0;
  if (!parse_whole(text.substr(0, x), w) || !parse_whole(text.substr(x + 1), h) ||
      w < 1 || h < 1)
    return false;
  width = w;
  height = h;
  return true;
}

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_i64(const std::string& name, i64* target, const std::string& help) {
  FVDF_CHECK(target != nullptr);
  options_.push_back({name, help, /*is_flag=*/false, std::to_string(*target),
                      [target, name](const std::string& value) {
                        char* end = nullptr;
                        const long long parsed = std::strtoll(value.c_str(), &end, 10);
                        FVDF_CHECK_MSG(end && *end == '\0' && !value.empty(),
                                       "--" << name << ": not an integer: " << value);
                        *target = parsed;
                      },
                      nullptr});
}

void CliParser::add_f64(const std::string& name, f64* target, const std::string& help) {
  FVDF_CHECK(target != nullptr);
  std::ostringstream def;
  def << *target;
  options_.push_back({name, help, /*is_flag=*/false, def.str(),
                      [target, name](const std::string& value) {
                        char* end = nullptr;
                        const double parsed = std::strtod(value.c_str(), &end);
                        FVDF_CHECK_MSG(end && *end == '\0' && !value.empty(),
                                       "--" << name << ": not a number: " << value);
                        *target = parsed;
                      },
                      nullptr});
}

void CliParser::add_string(const std::string& name, std::string* target,
                           const std::string& help) {
  FVDF_CHECK(target != nullptr);
  options_.push_back({name, help, /*is_flag=*/false, *target,
                      [target](const std::string& value) { *target = value; }, nullptr});
}

void CliParser::add_flag(const std::string& name, bool* target, const std::string& help) {
  FVDF_CHECK(target != nullptr);
  Option opt{name, help, /*is_flag=*/true, *target ? "true" : "false", {}, target};
  options_.push_back(std::move(opt));
}

const CliParser::Option* CliParser::find(const std::string& name) const {
  for (const auto& opt : options_)
    if (opt.name == name) return &opt;
  return nullptr;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    FVDF_CHECK_MSG(arg.rfind("--", 0) == 0, "unexpected positional argument: " << arg);
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const Option* opt = find(arg);
    FVDF_CHECK_MSG(opt != nullptr, "unknown option --" << arg);
    if (opt->is_flag) {
      FVDF_CHECK_MSG(!has_value, "--" << arg << " is a flag and takes no value");
      *opt->flag_target = true;
      continue;
    }
    if (!has_value) {
      FVDF_CHECK_MSG(i + 1 < argc, "--" << arg << " requires a value");
      value = argv[++i];
    }
    opt->apply(value);
  }
  return true;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& opt : options_) {
    os << "  --" << opt.name << (opt.is_flag ? "" : " <value>") << "\n      "
       << opt.help << " (default: " << opt.default_repr << ")\n";
  }
  os << "  --help\n      show this message\n";
  return os.str();
}

} // namespace fvdf
