#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

namespace logcc::util {

Cli::Cli(int argc, char** argv) : program_(argc > 0 ? argv[0] : "prog") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      std::string value = "1";  // bare flag
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        value = body.substr(eq + 1);
        body.resize(eq);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      values_[body] = std::move(value);
    } else {
      positional_.push_back(arg);
    }
  }
}

std::string Cli::get_string(const std::string& name, const std::string& def,
                            const std::string& help) {
  declared_[name] = {help, def};
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def,
                          const std::string& help) {
  declared_[name] = {help, std::to_string(def)};
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name, double def,
                       const std::string& help) {
  declared_[name] = {help, std::to_string(def)};
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Cli::get_flag(const std::string& name, const std::string& help) {
  declared_[name] = {help, "false"};
  auto it = values_.find(name);
  return it != values_.end() && it->second != "0" && it->second != "false";
}

void Cli::finish() {
  bool bad = false;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!declared_.count(name)) {
      std::fprintf(stderr, "%s: unknown option --%s\n", program_.c_str(),
                   name.c_str());
      bad = true;
    }
  }
  if (help_requested_ || bad) {
    std::fprintf(bad ? stderr : stdout, "usage: %s [options]\n",
                 program_.c_str());
    for (const auto& [name, decl] : declared_) {
      std::fprintf(bad ? stderr : stdout, "  --%-24s %s (default: %s)\n",
                   name.c_str(), decl.help.c_str(), decl.def.c_str());
    }
    std::exit(bad ? 2 : 0);
  }
}

}  // namespace logcc::util
