// inflog_cli: evaluate a DATALOG¬ program file against a database file
// under a chosen semantics — the downstream-user entry point.
//
//   inflog_cli [FLAGS] PROGRAM.dlog DATABASE.facts [SEMANTICS]
//
// Run it without arguments for the flag list. docs/tuning.md describes
// every flag, the serve-mode commands and what --stats prints per mode.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/base/thread_pool.h"
#include "src/core/engine.h"
#include "src/sat/dimacs.h"

namespace {

int Fail(const inflog::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

inflog::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return inflog::Status::NotFound("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// With --query, only the listed predicates print: the others are
// unspecified once dead-rule elimination drops their rules.
void PrintState(const inflog::Engine& engine, const inflog::IdbState& state,
                const std::vector<std::string>& query) {
  auto program = engine.program();
  INFLOG_CHECK(program.ok());
  for (uint32_t pred : (*program)->idb_predicates()) {
    const auto& info = (*program)->predicate(pred);
    if (!query.empty() &&
        std::find(query.begin(), query.end(), info.name) == query.end()) {
      continue;
    }
    std::cout << "  " << info.name << " = "
              << state.relations[info.idb_index].ToString(*engine.symbols())
              << "\n";
  }
}

// The --stats printer: `header`, then one "  <field> <value>" line per
// counter of each group (names padded to the group's longest), with the
// executed-slice histogram closing the partition group.
void PrintStats(const char* header, const inflog::EvalStats& s,
                std::initializer_list<inflog::StatsGroup> groups) {
  std::cout << header << "\n" << std::left;
  for (const inflog::StatsGroup group : groups) {
    size_t width = 0;
    for (const inflog::EvalCounter& c : inflog::kEvalCounters) {
      if (c.group == group) width = std::max(width, c.name.size());
    }
    for (const inflog::EvalCounter& c : inflog::kEvalCounters) {
      if (c.group != group) continue;
      std::cout << "  " << std::setw(width + 1) << c.name
                << s.*c.field << "\n";
    }
    if (group == inflog::StatsGroup::kPartition) {
      // log2 buckets; only the populated ones, so serial runs print an
      // empty histogram.
      std::cout << "  " << std::setw(width) << "slice_hist";
      for (size_t b = 0; b < inflog::EvalStats::kSliceHistBuckets; ++b) {
        if (s.slice_hist[b] == 0) continue;
        const uint64_t lo = b == 0 ? 0 : (uint64_t{1} << b);
        std::cout << " [" << lo << "+]=" << s.slice_hist[b];
      }
      std::cout << "\n";
    }
  }
}

// What the flags set: the options every mode evaluates with, plus the
// CLI's own settings.
struct Settings {
  inflog::EvalOptions eval;
  bool print_stats = false;
  bool serve = false;
  size_t serve_threads = 1;   // reader threads for serve-mode query groups
  std::string apply_updates;  // empty = plain one-shot evaluation
  std::string dump_cnf;       // empty = no DIMACS dump
};

// Parses a flag's value into the settings; returns the error message
// (printed after "error: "), or "" when the value is accepted.
using Setter =
    std::function<std::string(const std::string& flag,
                              const std::string& value)>;

// One command-line flag. A value flag (non-empty placeholder) takes both
// --name=VALUE and --name VALUE; a switch takes neither.
struct Flag {
  std::string name;
  std::string placeholder;
  std::string help;
  Setter set;
};

Setter Switch(bool* target) {
  return [target](const std::string&, const std::string&) {
    *target = true;
    return std::string();
  };
}

// An integer in [0, max], handed to `store`.
Setter Count(long max, std::function<void(size_t)> store) {
  return [max, store](const std::string& flag, const std::string& value) {
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() || n < 0 ||
        errno == ERANGE || n > max) {
      return flag + " expects an integer in [0, " + std::to_string(max) +
             "], got '" + value + "'";
    }
    store(static_cast<size_t>(n));
    return std::string();
  };
}

Setter File(std::string* target) {
  return [target](const std::string& flag, const std::string& value) {
    if (value.empty()) return flag + " requires a file";
    *target = value;
    return std::string();
  };
}

// A value the library's `parse` reads; its error status is the message.
template <typename T>
Setter Parsed(inflog::Result<T> (*parse)(std::string_view), T* target) {
  return [parse, target](const std::string&, const std::string& value) {
    auto parsed = parse(value);
    if (!parsed.ok()) return parsed.status().ToString();
    *target = *parsed;
    return std::string();
  };
}

std::vector<Flag> Flags(Settings* s) {
  inflog::EvalOptions& e = s->eval;
  const std::string passes =
      "all|none|" + inflog::StrJoin(inflog::OptimizerPassTokens(), ",");
  // The thread-count caps keep typos from spawning thousands of threads.
  return {
      {"--threads", "N", "worker threads (default 0 = hardware concurrency)",
       Count(1024, [&e](size_t n) { e.num_threads = n; })},
      // The evaluator would round other counts up to a power of two and
      // clamp them to kMaxShards, silently running a different sweep point.
      {"--shards", "S", "IDB hash shards: 0 (auto, the default) or 2^k <= 64",
       [&e](const std::string& flag, const std::string& value) {
         const std::string error =
             Count(inflog::EvalContextOptions::kMaxShards,
                   [&e](size_t n) { e.num_shards = n; })(flag, value);
         if (!error.empty() || (e.num_shards & (e.num_shards - 1)) == 0) {
           return error;
         }
         return "--shards must be 0 (auto) or a power of two, got " +
                std::to_string(e.num_shards);
       }},
      {"--scheduler", "auto|static|stealing", "parallel stage partitioning",
       Parsed(inflog::ParseStageScheduler, &e.scheduler)},
      {"--min-slice-rows", "R", "serial cutoff and slice floor (0 = 64)",
       Count(1 << 20, [&e](size_t n) { e.min_slice_rows = n; })},
      {"--optimize", passes, "optimizer passes (default all)",
       Parsed(inflog::ParseOptimizerPasses, &e.optimizer_passes)},
      {"--query", "NAMES", "output IDB predicates, the only ones printed",
       [&e](const std::string& flag, const std::string& value) {
         for (std::string& name : inflog::StrSplit(value, ',')) {
           e.output_predicates.push_back(std::move(name));
         }
         if (!e.output_predicates.empty()) return std::string();
         return flag + " expects a comma list of IDB predicate names, got '" +
                value + "'";
       }},
      {"--reject-unsafe-negation", "", "fail on unsafe negated variables",
       Switch(&e.reject_unsafe_negation)},
      {"--stats", "", "print the run's counters", Switch(&s->print_stats)},
      {"--sat-reduce-interval", "N", "conflicts between reductions (0 = 2000)",
       Count(1 << 20, [&e](size_t n) { e.sat.reduce_base = n; })},
      {"--dump-cnf", "FILE", "write the completion CNF as DIMACS first",
       File(&s->dump_cnf)},
      {"--apply-updates", "FILE", "maintain the result under FILE's updates",
       File(&s->apply_updates)},
      {"--verify-incremental", "", "check each update against a recompute",
       Switch(&e.verify_incremental)},
      {"--serve", "", "answer queries and updates from stdin",
       Switch(&s->serve)},
      {"--serve-threads", "N", "reader threads per query group (default 1)",
       Count(64, [s](size_t n) { s->serve_threads = n ? n : 1; })},
      {"--serve-cache", "0|1", "serve-mode query cache (default 1)",
       Count(1, [&e](size_t n) { e.serving.cache = n != 0; })},
      {"--compact-threshold", "F", "compaction dead-row share (default 0.3)",
       [&e](const std::string& flag, const std::string& value) {
         errno = 0;
         char* end = nullptr;
         const double v = std::strtod(value.c_str(), &end);
         if (value.empty() || end != value.c_str() + value.size() ||
             errno == ERANGE || !std::isfinite(v) || v < 0 || v > 1) {
           return flag + " expects a number in [0, 1], got '" + value + "'";
         }
         e.serving.compact_threshold = v;
         return std::string();
       }},
      {"--update-batch", "N", "update lines per batch (default 1)",
       Count(1 << 20, [&e](size_t n) { e.serving.update_batch = n ? n : 1; })},
  };
}

void PrintUsage(const char* argv0, const std::vector<Flag>& flags) {
  std::cerr << "usage: " << argv0;
  size_t width = 0;
  for (const Flag& f : flags) {
    std::cerr << " [" << f.name
              << (f.placeholder.empty() ? "" : "=" + f.placeholder) << "]";
    width = std::max(width, f.name.size());
  }
  std::cerr << " PROGRAM.dlog DATABASE.facts "
               "[inflationary|stratified|wellfounded|stable|fixpoints|"
               "analyze]\n";
  for (const Flag& f : flags) {
    std::cerr << "  " << std::left << std::setw(width + 2) << f.name << f.help
              << "\n";
  }
  std::cerr << "Every flag is described in docs/tuning.md.\n";
}

}  // namespace

int main(int argc, char** argv) {
  Settings settings;
  // The CLI defaults to the parallel configuration: hardware concurrency,
  // one shard per thread.
  settings.eval.num_threads = 0;
  settings.eval.num_shards = 0;
  const std::vector<Flag> flags = Flags(&settings);
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string name = arg.substr(0, arg.find('='));
    const auto flag = std::find_if(
        flags.begin(), flags.end(),
        [&name](const Flag& f) { return f.name == name; });
    if (flag == flags.end()) {
      if (arg.rfind("--", 0) == 0) {
        std::cerr << "error: unknown flag " << name << "\n";
        return 2;
      }
      args.push_back(arg);
      continue;
    }
    if (flag->placeholder.empty() && name != arg) {
      std::cerr << "error: " << flag->name << " takes no value\n";
      return 2;
    }
    std::string value = name == arg ? "" : arg.substr(name.size() + 1);
    if (!flag->placeholder.empty() && name == arg) {
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag->name << " requires a "
                  << (flag->placeholder == "FILE" ? "file" : "value") << "\n";
        return 2;
      }
      value = argv[++i];
    }
    if (const std::string error = flag->set(flag->name, value);
        !error.empty()) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
  }
  if (args.size() < 2) {
    PrintUsage(argv[0], flags);
    return 2;
  }
  const std::string semantics = args.size() > 2 ? args[2] : "inflationary";
  const std::vector<std::string>& query = settings.eval.output_predicates;

  inflog::Engine engine;
  auto program_text = ReadFile(args[0]);
  if (!program_text.ok()) return Fail(program_text.status());
  if (auto s = engine.LoadProgramText(*program_text); !s.ok()) return Fail(s);
  auto db_text = ReadFile(args[1]);
  if (!db_text.ok()) return Fail(db_text.status());
  if (auto s = engine.LoadDatabaseText(*db_text); !s.ok()) return Fail(s);

  if (const std::string& dump_cnf = settings.dump_cnf; !dump_cnf.empty()) {
    // Ground + Clark-complete the loaded (program, database) and write
    // the encoding the SAT-backed modes solve, then continue normally.
    auto analyzer = engine.MakeAnalyzer();
    if (!analyzer.ok()) return Fail(analyzer.status());
    std::ofstream out(dump_cnf);
    if (!out) {
      return Fail(inflog::Status::NotFound("cannot open " + dump_cnf));
    }
    out << inflog::sat::ToDimacs(analyzer->encoding().cnf);
    out.flush();
    if (!out) {
      return Fail(inflog::Status::Internal("cannot write " + dump_cnf));
    }
    std::cout << "wrote completion CNF to " << dump_cnf << "\n";
  }

  if (semantics == "analyze") {
    auto description = engine.Describe();
    if (!description.ok()) return Fail(description.status());
    std::cout << *description;
    if (settings.print_stats) {
      std::cout << "stats: n/a (analyze does not run the relational fixpoint "
                   "executor)\n";
    }
    return 0;
  }
  // The four semantics all route through the engine's unified dispatch;
  // the variant `detail` carries each one's specific bookkeeping.
  if (auto kind = inflog::ParseSemanticsKind(semantics); kind.ok()) {
    inflog::EvalOptions options = settings.eval;
    const std::string& apply_updates = settings.apply_updates;
    if (settings.serve && !apply_updates.empty()) {
      std::cerr << "error: --serve and --apply-updates are exclusive\n";
      return 2;
    }
    // One update summary line per flushed batch, shared by the
    // --apply-updates loop and serve mode.
    size_t update_no = 0;
    auto print_update = [&](const inflog::UpdateResult& result) {
      const inflog::EvalStats& s = result.stats;
      std::cout << "update " << ++update_no << ": edb +"
                << s.incremental_edb_inserted << " -"
                << s.incremental_edb_deleted << ", idb +"
                << s.incremental_idb_inserted << " -"
                << s.incremental_idb_deleted;
      if (result.used_oracle) {
        std::cout << " (oracle recompute)";
      } else {
        std::cout << " (dred units " << s.incremental_dred_units << ")";
      }
      std::cout << "\n";
    };
    const auto print_serve_stats = [](const inflog::EvalStats& s) {
      PrintStats("serve stats:", s, {inflog::StatsGroup::kServing});
    };
    inflog::serve::ServingSession* session = nullptr;
    if (settings.serve || !apply_updates.empty()) {
      // --apply-updates routes through the serving layer too (cache off —
      // nothing queries it) so --compact-threshold and --update-batch
      // apply to file-driven streams; with the defaults the output is
      // line-identical to the pre-serving incremental loop.
      if (!settings.serve) options.serving.cache = false;
      if (auto s = engine.BeginServing(*kind, options); !s.ok()) {
        return Fail(s);
      }
      auto serving = engine.serving();
      if (!serving.ok()) return Fail(serving.status());
      session = *serving;
    }
    if (settings.serve) {
      inflog::ThreadPool pool(settings.serve_threads - 1);
      std::cout << "serving epoch " << session->epoch() << " ("
                << inflog::SemanticsKindName(*kind) << ", "
                << settings.serve_threads << " reader thread(s), cache "
                << (options.serving.cache ? "on" : "off") << ")\n";
      // Consecutive query lines form a group: all of them evaluate
      // against ONE pinned snapshot, concurrently across the reader
      // threads, and print in input order.
      std::vector<std::string> group;
      auto run_group = [&] {
        if (group.empty()) return;
        const inflog::serve::SnapshotHandle snap = session->Pin();
        std::vector<std::string> rendered(group.size());
        std::vector<inflog::Status> errors(group.size(),
                                           inflog::Status::OK());
        pool.ParallelFor(group.size(), [&](size_t q) {
          auto outcome = session->Query(group[q], snap);
          if (outcome.ok()) {
            rendered[q] = outcome->answer.rendered;
          } else {
            errors[q] = outcome.status();
          }
        });
        for (size_t q = 0; q < group.size(); ++q) {
          if (errors[q].ok()) {
            std::cout << "[epoch " << snap->epoch() << "] " << group[q]
                      << " = " << rendered[q] << "\n";
          } else {
            std::cout << "[epoch " << snap->epoch() << "] " << group[q]
                      << " : error: " << errors[q].ToString() << "\n";
          }
        }
        group.clear();
      };
      std::string line;
      while (std::getline(std::cin, line)) {
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const size_t last = line.find_last_not_of(" \t");
        const std::string trimmed = line.substr(first, last - first + 1);
        if (trimmed[0] == '#') continue;
        if (trimmed[0] == '?') {
          group.push_back(trimmed);
          continue;
        }
        run_group();  // updates and commands order against queries
        if (trimmed == ".epoch") {
          std::cout << "epoch " << session->epoch() << "\n";
          continue;
        }
        if (trimmed == ".stats") {
          print_serve_stats(session->stats());
          continue;
        }
        if (trimmed == ".flush") {
          auto flushed = session->Flush();
          if (!flushed.ok()) return Fail(flushed.status());
          if (flushed->has_value()) print_update(**flushed);
          continue;
        }
        auto batch = inflog::ParseUpdateLine(trimmed, engine.symbols().get());
        if (!batch.ok()) {
          std::cout << "error: " << batch.status().ToString() << "\n";
          continue;
        }
        if (batch->empty()) continue;
        auto flushed = session->Enqueue(*batch);
        // A failed ApplyUpdate leaves the maintained state inconsistent;
        // stop serving instead of answering from it.
        if (!flushed.ok()) return Fail(flushed.status());
        if (flushed->has_value()) print_update(**flushed);
      }
      run_group();
      auto tail = session->Flush();
      if (!tail.ok()) return Fail(tail.status());
      if (tail->has_value()) print_update(**tail);
      if (settings.print_stats) print_serve_stats(session->stats());
      return 0;
    }
    if (!apply_updates.empty()) {
      std::ifstream updates(apply_updates);
      if (!updates) {
        return Fail(inflog::Status::NotFound("cannot open " + apply_updates));
      }
      std::string line;
      size_t line_no = 0;
      while (std::getline(updates, line)) {
        ++line_no;
        auto batch = inflog::ParseUpdateLine(line, engine.symbols().get());
        if (!batch.ok()) {
          std::cerr << "error: " << apply_updates << ":" << line_no << ": "
                    << batch.status().ToString() << "\n";
          return 1;
        }
        if (batch->empty()) continue;  // blank / comment line
        auto flushed = session->Enqueue(*batch);
        if (!flushed.ok()) {
          std::cerr << "error: " << apply_updates << ":" << line_no << ": "
                    << flushed.status().ToString() << "\n";
          return 1;
        }
        if (flushed->has_value()) print_update(**flushed);
      }
      auto tail = session->Flush();
      if (!tail.ok()) return Fail(tail.status());
      if (tail->has_value()) print_update(**tail);
      auto state = engine.IncrementalState();
      if (!state.ok()) return Fail(state.status());
      std::cout << "maintained state after " << update_no << " update(s):\n";
      PrintState(engine, **state, query);
      if (settings.print_stats) {
        const inflog::EvalStats s = session->stats();
        PrintStats("stats:", s,
                   {inflog::StatsGroup::kIncremental,
                    inflog::StatsGroup::kExecutor, inflog::StatsGroup::kSat});
        print_serve_stats(s);
      }
      return 0;
    }
    auto outcome = engine.Evaluate(*kind, options);
    if (!outcome.ok()) return Fail(outcome.status());
    if (const auto* r =
            std::get_if<inflog::InflationaryResult>(&outcome->detail)) {
      std::cout << "inflationary semantics (" << r->num_stages
                << " stages):\n";
      PrintState(engine, outcome->state(), query);
    } else if (const auto* r =
                   std::get_if<inflog::StratifiedResult>(&outcome->detail)) {
      std::cout << "stratified semantics (" << r->num_strata << " strata):\n";
      PrintState(engine, outcome->state(), query);
    } else if (const auto* r =
                   std::get_if<inflog::WellFoundedResult>(&outcome->detail)) {
      std::cout << "well-founded model ("
                << (r->total ? "total" : "three-valued") << "):\n";
      std::cout << " true atoms:\n";
      PrintState(engine, r->true_state, query);
      std::cout << " undefined atoms:\n";
      PrintState(engine, r->undefined_state, query);
    } else if (const auto* r =
                   std::get_if<inflog::StableResult>(&outcome->detail)) {
      std::cout << r->models.size() << " stable model(s) among "
                << r->supported_examined << " supported model(s):\n";
      for (size_t i = 0; i < r->models.size(); ++i) {
        std::cout << " model " << i + 1 << ":\n";
        PrintState(engine, r->models[i], query);
      }
    }
    if (settings.print_stats) {
      if (const inflog::EvalStats* s = outcome->stats()) {
        PrintStats("stats:", *s,
                   {inflog::StatsGroup::kExecutor,
                    inflog::StatsGroup::kPartition,
                    inflog::StatsGroup::kOptimizer, inflog::StatsGroup::kSat});
      } else {
        std::cout << "stats: n/a (the " << semantics
                  << " semantics reports no counters)\n";
      }
    }
    return 0;
  }
  if (semantics == "fixpoints") {
    inflog::AnalyzeOptions analyze;
    analyze.solver = settings.eval.sat;
    auto analyzer = engine.MakeAnalyzer(analyze);
    if (!analyzer.ok()) return Fail(analyzer.status());
    auto fixpoints = analyzer->EnumerateFixpoints(/*limit=*/64);
    if (!fixpoints.ok()) return Fail(fixpoints.status());
    std::cout << fixpoints->size()
              << " fixpoint(s) (enumeration capped at 64):\n";
    for (size_t i = 0; i < fixpoints->size(); ++i) {
      std::cout << " fixpoint " << i + 1 << ":\n";
      PrintState(engine, (*fixpoints)[i], query);
    }
    auto least = analyzer->LeastFixpoint();
    if (!least.ok()) return Fail(least.status());
    std::cout << "least fixpoint exists: "
              << (least->has_least ? "yes" : "no") << "\n";
    if (settings.print_stats) {
      // Fixpoint analysis runs the CDCL pipeline, not the relational
      // executor: the SAT group is the whole story.
      inflog::EvalStats s;
      inflog::FillSatStats(analyzer->sat_stats(), &s);
      PrintStats("stats:", s, {inflog::StatsGroup::kSat});
    }
    return 0;
  }
  std::cerr << "unknown semantics: " << semantics << "\n";
  return 2;
}
