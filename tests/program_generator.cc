#include "tests/program_generator.h"

#include "src/base/strings.h"

namespace inflog {
namespace testing {

namespace {

struct PredSpec {
  std::string name;
  int arity;
  int layer;
};

const char* const kVarNames[] = {"X", "Y", "Z", "W", "U", "V"};
constexpr size_t kMaxVars = sizeof(kVarNames) / sizeof(kVarNames[0]);

std::string JoinArgs(const std::vector<std::string>& args) {
  std::string out;
  for (const std::string& a : args) {
    if (!out.empty()) out += ",";
    out += a;
  }
  return out;
}

}  // namespace

GeneratedProgram GenerateProgram(Rng* rng, const GeneratorOptions& options) {
  const int num_layers =
      options.min_layers +
      static_cast<int>(rng->Uniform(options.max_layers - options.min_layers + 1));
  std::vector<PredSpec> preds;
  for (int layer = 0; layer < num_layers; ++layer) {
    const int count = 1 + static_cast<int>(rng->Uniform(2));
    for (int i = 0; i < count; ++i) {
      PredSpec p;
      p.name = "P" + std::to_string(layer) + (i == 0 ? "" : "b");
      p.arity = 1 + static_cast<int>(rng->Uniform(2));
      p.layer = layer;
      preds.push_back(std::move(p));
    }
  }

  auto constant = [&] {
    return StrCat("c", rng->Uniform(options.domain_size));
  };

  std::string text;
  for (const PredSpec& pred : preds) {
    const int num_rules = 1 + static_cast<int>(rng->Uniform(2));
    for (int r = 0; r < num_rules; ++r) {
      size_t num_vars = 0;
      std::vector<std::string> bound;
      std::vector<std::string> body;
      auto atom_args = [&](int arity) {
        std::vector<std::string> args;
        for (int j = 0; j < arity; ++j) {
          if (rng->Bernoulli(options.constant_probability)) {
            args.push_back(constant());
          } else if (!bound.empty() && (num_vars == kMaxVars ||
                                        rng->Bernoulli(0.45))) {
            args.push_back(bound[rng->Uniform(bound.size())]);
          } else {
            args.push_back(kVarNames[num_vars++]);
          }
        }
        return args;
      };
      auto bind = [&](const std::vector<std::string>& args) {
        for (const std::string& a : args) {
          if (a[0] >= 'A' && a[0] <= 'Z') {
            bool seen = false;
            for (const std::string& b : bound) seen = seen || b == a;
            if (!seen) bound.push_back(a);
          }
        }
      };
      // 1-2 positive atoms: the EDB, a lower layer, or the same layer
      // (same-layer references make the program recursive).
      const int num_pos = 1 + static_cast<int>(rng->Uniform(2));
      for (int a = 0; a < num_pos; ++a) {
        std::string src_name;
        int src_arity;
        const uint64_t kind = rng->Uniform(10);
        std::vector<const PredSpec*> pool;
        if (kind >= 5) {
          for (const PredSpec& q : preds) {
            if ((kind >= 8 && q.layer == pred.layer) ||
                (kind < 8 && q.layer < pred.layer)) {
              pool.push_back(&q);
            }
          }
        }
        if (pool.empty()) {
          if (options.unary_edb && rng->Bernoulli(0.25)) {
            src_name = "S";
            src_arity = 1;
          } else {
            src_name = "E";
            src_arity = 2;
          }
        } else {
          const PredSpec* q = pool[rng->Uniform(pool.size())];
          src_name = q->name;
          src_arity = q->arity;
        }
        const std::vector<std::string> args = atom_args(src_arity);
        body.push_back(src_name + "(" + JoinArgs(args) + ")");
        bind(args);
      }
      // Optional negated atom into a strictly lower layer or the EDB;
      // arguments only from bound variables or constants, so rules stay
      // range-restricted.
      if (options.allow_negation && rng->Bernoulli(0.45)) {
        std::vector<const PredSpec*> pool;
        for (const PredSpec& q : preds) {
          if (q.layer < pred.layer) pool.push_back(&q);
        }
        std::string neg_name = "E";
        int neg_arity = 2;
        if (!pool.empty() && rng->Bernoulli(0.7)) {
          const PredSpec* q = pool[rng->Uniform(pool.size())];
          neg_name = q->name;
          neg_arity = q->arity;
        }
        std::vector<std::string> args;
        for (int j = 0; j < neg_arity; ++j) {
          if (bound.empty() || rng->Bernoulli(options.constant_probability)) {
            args.push_back(constant());
          } else {
            args.push_back(bound[rng->Uniform(bound.size())]);
          }
        }
        body.push_back("!" + neg_name + "(" + JoinArgs(args) + ")");
      }
      // Occasional inequality between two bound variables.
      if (bound.size() >= 2 && rng->Bernoulli(0.15)) {
        const size_t i = rng->Uniform(bound.size());
        size_t j = rng->Uniform(bound.size() - 1);
        if (j >= i) ++j;
        body.push_back(bound[i] + " != " + bound[j]);
      }
      std::vector<std::string> head_args;
      for (int j = 0; j < pred.arity; ++j) {
        if (bound.empty() || rng->Bernoulli(0.06)) {
          head_args.push_back(constant());
        } else {
          head_args.push_back(bound[rng->Uniform(bound.size())]);
        }
      }
      text += pred.name + "(" + JoinArgs(head_args) + ") :- " +
              JoinArgs(body) + ".\n";
    }
  }

  GeneratedProgram out;
  // Outputs: a goal-directed query rule over a high-layer predicate
  // (the magic-sets shape), or 1-2 top-layer predicates directly.
  const PredSpec* top = &preds.back();
  std::vector<const PredSpec*> high;
  for (const PredSpec& q : preds) {
    if (q.layer >= num_layers / 2) high.push_back(&q);
  }
  if (options.constant_probability > 0 &&
      rng->Bernoulli(options.point_query_probability)) {
    const PredSpec* target = high[rng->Uniform(high.size())];
    if (target->arity == 2) {
      text += "Qq(Y) :- " + target->name + "(" + constant() + ",Y).\n";
    } else {
      text += "Qq(X) :- E(" + constant() + ",X), " + target->name + "(X).\n";
    }
    out.outputs.push_back("Qq");
    if (rng->Bernoulli(0.3) && top->name != target->name) {
      out.outputs.push_back(top->name);
    }
  } else {
    out.outputs.push_back(top->name);
    if (high.size() > 1 && rng->Bernoulli(0.4)) {
      const PredSpec* second = high[rng->Uniform(high.size())];
      if (second->name != top->name) out.outputs.push_back(second->name);
    }
  }
  out.program_text = std::move(text);

  std::string facts;
  for (int i = 0; i < options.num_edges; ++i) {
    facts += "E(c" + std::to_string(rng->Uniform(options.domain_size)) +
             ",c" + std::to_string(rng->Uniform(options.domain_size)) + ").\n";
  }
  if (options.unary_edb) {
    bool any = false;
    for (int d = 0; d < options.domain_size; ++d) {
      if (rng->Bernoulli(0.5)) {
        facts += "S(c" + std::to_string(d) + ").\n";
        any = true;
      }
    }
    if (!any) facts += "S(c0).\n";
  }
  out.facts_text = std::move(facts);
  return out;
}

std::string RandomStratifiedProgramText(Rng* rng) {
  GeneratorOptions options;
  options.min_layers = 2;
  options.max_layers = 3;
  options.allow_negation = true;
  // The property suite's facts come from a shared random digraph
  // (E/2 only), so no constants, no S/1, no extra query predicate.
  options.constant_probability = 0;
  options.unary_edb = false;
  options.point_query_probability = 0;
  return GenerateProgram(rng, options).program_text;
}

}  // namespace testing
}  // namespace inflog
