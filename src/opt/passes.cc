#include "src/opt/passes.h"

#include "src/base/strings.h"

namespace inflog {

namespace {

struct TokenEntry {
  std::string_view name;
  bool OptimizerPasses::* member;
};

// Canonical token table: parse, render, and OptimizerPassTokens all
// walk this, so a new pass cannot be selectable but unlisted (or vice
// versa).
constexpr TokenEntry kTokens[] = {
    {"dce", &OptimizerPasses::eliminate_dead_rules},
    {"reorder", &OptimizerPasses::reorder_joins},
    {"share", &OptimizerPasses::share_subplans},
    {"magic", &OptimizerPasses::magic_sets},
    {"inline", &OptimizerPasses::inline_rules},
};

}  // namespace

Result<OptimizerPasses> ParseOptimizerPasses(std::string_view text) {
  if (text == "all") return OptimizerPasses::All();
  if (text == "none") return OptimizerPasses::None();
  OptimizerPasses passes = OptimizerPasses::None();
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = text.find(',', pos);
    const std::string_view name =
        text.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                         : comma - pos);
    bool known = false;
    for (const TokenEntry& entry : kTokens) {
      if (name == entry.name) {
        passes.*entry.member = true;
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(
          StrCat("unknown optimizer pass: '", std::string(name),
                 "' (expected all|none or a comma list of "
                 "dce|reorder|share|magic|inline)"));
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return passes;
}

std::string OptimizerPassesName(const OptimizerPasses& passes) {
  if (passes == OptimizerPasses::All()) return "all";
  if (!passes.any()) return "none";
  std::string out;
  for (const TokenEntry& entry : kTokens) {
    if (passes.*entry.member) {
      if (!out.empty()) out += ",";
      out += entry.name;
    }
  }
  return out;
}

std::vector<std::string_view> OptimizerPassTokens() {
  std::vector<std::string_view> names;
  for (const TokenEntry& entry : kTokens) names.push_back(entry.name);
  return names;
}

}  // namespace inflog
