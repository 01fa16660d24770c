// Mini query shell for TP set queries.
//
// Usage:
//   query_repl [--threads=N] [--serve=PORT] [name=file.csv ...]
//
// Loads the given CSV relations (see relation/io.h for the format) into one
// context — or, with no arguments, the paper's supermarket relations a, b,
// c — then reads one query per line from stdin and prints the answer with
// exact probabilities. With --threads=N (or the .threads command) queries
// run on the partitioned parallel engine: N pool threads per set operation
// and concurrent sibling subtrees, bit-identical to sequential evaluation.
// Commands:
//   \list                               show registered relations and watches
//   \show <name>                        print a relation
//   \threads [N]                        show or set the thread count
//   \append <rel> <fact> <ts> <te> <p>  append one tuple (one epoch); every
//                                       watch reading <rel> prints its delta
//   \watch <name> <query>               register a continuous query; appends
//                                       then stream (inserted, retracted)
//                                       deltas per epoch
//   \explain <name>                     continuous plan with resume/resweep
//                                       and storage counters
//   \retain <rel> <watermark>           advance the relation's retention
//                                       watermark and compact: tuples whose
//                                       interval ends at or below it are
//                                       retired, continuous queries rebase
//   \compact <rel>                      fold pending append runs into the
//                                       base level (applies the watermark)
//   \metrics [prefix]                   scrape the process-wide metrics
//                                       registry (Prometheus text format),
//                                       optionally filtered to names with
//                                       the given prefix
//   \top [window_sec]                   live per-metric rates over the
//                                       flight recorder's ring history
//   \events [n]                         recent structured events
//   \slow                               retained slow-query exemplars
//   \dump <path>                        write the flight record as JSON
//   \serve [port|stop]                  start (or stop) the introspection
//                                       HTTP server; port 0 binds an
//                                       ephemeral port, echoed on start.
//                                       --serve=PORT does this at startup
//   \profile [on|off]                   show or toggle profiling: when on,
//                                       every query and \append also prints
//                                       its trace-span tree (wall/CPU per
//                                       phase, LAWA counters)
//   \quit                               exit
// (.cmd spellings of every command are accepted too; \help lists them.)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "lineage/eval.h"
#include "net/http_server.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/http_endpoints.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "query/analyzer.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/parser.h"
#include "relation/io.h"

using namespace tpset;

namespace {

void AddSupermarketRelations(const std::shared_ptr<TpContext>& ctx,
                             QueryExecutor* exec) {
  struct Row {
    const char* rel;
    const char* product;
    const char* var;
    TimePoint ts, te;
    double p;
  };
  const Row rows[] = {
      {"a", "milk", "a1", 2, 10, 0.3}, {"a", "chips", "a2", 4, 7, 0.8},
      {"a", "dates", "a3", 1, 3, 0.6}, {"b", "milk", "b1", 5, 9, 0.6},
      {"b", "chips", "b2", 3, 6, 0.9}, {"c", "milk", "c1", 1, 4, 0.6},
      {"c", "milk", "c2", 6, 8, 0.7},  {"c", "chips", "c3", 4, 5, 0.7},
      {"c", "chips", "c4", 7, 9, 0.8},
  };
  TpRelation a(ctx, Schema::SingleString("Product"), "a");
  TpRelation b(ctx, Schema::SingleString("Product"), "b");
  TpRelation c(ctx, Schema::SingleString("Product"), "c");
  for (const Row& row : rows) {
    TpRelation* rel = row.rel[0] == 'a' ? &a : row.rel[0] == 'b' ? &b : &c;
    Result<VarId> added = rel->AddBase({Value(std::string(row.product))},
                                       Interval(row.ts, row.te), row.p, row.var);
    if (!added.ok()) {
      std::cerr << added.status().ToString() << '\n';
      std::exit(1);
    }
  }
  for (TpRelation* rel : {&a, &b, &c}) {
    rel->SortFactTime();  // Register rejects unsorted relations
    Status st = exec->Register(*rel);
    if (!st.ok()) {
      std::cerr << st.ToString() << '\n';
      std::exit(1);
    }
  }
  std::cout << "Loaded demo relations a, b, c (paper Fig. 1a). Try:\n"
               "  c - (a | b)\n";
}

// Parses a single-attribute fact value against the relation's schema.
// Numeric attributes are parsed strictly: trailing garbage is an error, not
// a silent fact 0.
Result<Fact> ParseFact(const Schema& schema, const std::string& text) {
  if (schema.num_attributes() != 1) {
    return Status::NotSupported(
        "\\append handles single-attribute schemas only");
  }
  char* end = nullptr;
  switch (schema.types()[0]) {
    case ValueType::kInt64: {
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("'" + text + "' is not an integer");
      }
      return Fact{Value(static_cast<std::int64_t>(v))};
    }
    case ValueType::kDouble: {
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("'" + text + "' is not a number");
      }
      return Fact{Value(v)};
    }
    case ValueType::kString:
      return Fact{Value(text)};
  }
  return Status::InvalidArgument("unknown attribute type");
}

constexpr const char* kHelp =
    "  \\list                               relations and watches\n"
    "  \\show <name>                        print a relation\n"
    "  \\threads [N]                        show or set the thread count\n"
    "  \\append <rel> <fact> <ts> <te> <p>  append one tuple (one epoch)\n"
    "  \\watch <name> <query>               register a continuous query\n"
    "  \\explain <name>                     continuous plan with counters\n"
    "  \\retain <rel> <watermark>           advance retention, compact\n"
    "  \\compact <rel>                      fold append runs into the base\n"
    "  \\metrics [prefix]                   scrape the metrics registry\n"
    "  \\top [window_sec]                   live rates from ring history\n"
    "  \\events [n]                         recent structured events\n"
    "  \\slow                               retained slow-query exemplars\n"
    "  \\dump <path>                        write the flight-record JSON\n"
    "  \\serve [port|stop]                  start/stop the introspection\n"
    "                                      HTTP server (port 0 = ephemeral)\n"
    "  \\profile [on|off]                   print trace spans per query\n"
    "  \\quit                               exit\n";

// \top: one line per tracked metric with ring samples in the window,
// grouped by subsystem (the second `_`-separated component of the name).
void PrintTop(std::chrono::milliseconds window) {
  const obs::Recorder& rec = obs::Recorder::Global();
  if (rec.ticks() < 2) {
    std::cout << "(flight recorder warming up: " << rec.ticks()
              << " collector ticks so far)\n";
    return;
  }
  std::printf("%-44s %10s %12s %12s\n", "metric", "last", "rate/s", "p99");
  std::string current_subsystem;
  for (const std::string& name : rec.TrackedMetrics()) {
    Result<obs::HistoryStats> h = rec.History(name, window);
    if (!h.ok() || h->samples < 2) continue;
    // tpset_<subsystem>_<rest>
    const std::size_t first = name.find('_');
    const std::size_t second =
        first == std::string::npos ? std::string::npos
                                   : name.find('_', first + 1);
    const std::string subsystem =
        second == std::string::npos
            ? std::string("other")
            : name.substr(first + 1, second - first - 1);
    if (subsystem != current_subsystem) {
      std::printf("-- %s\n", subsystem.c_str());
      current_subsystem = subsystem;
    }
    if (h->kind == obs::MetricSnapshot::Kind::kHistogram) {
      std::printf("%-44s %10lld %12.2f %12.0f\n", name.c_str(),
                  static_cast<long long>(h->last), h->rate_per_sec, h->p99);
    } else {
      std::printf("%-44s %10lld %12.2f %12s\n", name.c_str(),
                  static_cast<long long>(h->last), h->rate_per_sec, "-");
    }
  }
  std::printf("(window %.1fs, tick %lldms, %llu ticks)\n",
              static_cast<double>(window.count()) / 1000.0,
              static_cast<long long>(rec.options().tick.count()),
              static_cast<unsigned long long>(rec.ticks()));
}

void PrintEvents(std::size_t max_events) {
  const std::vector<obs::Event> events =
      obs::EventLog::Global().Snapshot(max_events);
  if (events.empty()) {
    std::cout << "(no events)\n";
    return;
  }
  for (const obs::Event& e : events) {
    std::printf("%12lld  #%-5llu %-5s %-8s %s\n",
                static_cast<long long>(e.ts_unix_us),
                static_cast<unsigned long long>(e.seq),
                obs::SeverityName(e.severity), e.subsystem, e.message);
  }
}

void PrintSlowQueries() {
  const std::vector<obs::SlowExemplar> slow =
      obs::Recorder::Global().SlowQueries();
  if (slow.empty()) {
    std::cout << "(no slow executions retained; threshold query="
              << obs::Recorder::Global().SlowThresholdMs("query")
              << "ms epoch=" << obs::Recorder::Global().SlowThresholdMs("epoch")
              << "ms)\n";
    return;
  }
  for (const obs::SlowExemplar& e : slow) {
    std::printf("#%-5llu %-6s %10.2fms (threshold %.2fms)  %s\n",
                static_cast<unsigned long long>(e.seq), e.kind.c_str(),
                e.wall_ms, e.threshold_ms, e.label.c_str());
  }
  std::cout << "(profiles retained as JSON; \\dump <path> exports them)\n";
}

void PrintDelta(const std::string& watch_name, const EpochDelta& d,
                const TpContext& ctx) {
  std::cout << "[" << watch_name << "] epoch " << d.epoch << ": +"
            << d.delta.inserted.size() << " -" << d.delta.retracted.size()
            << '\n';
  auto print_tuple = [&](char sign, const TpTuple& t) {
    std::cout << "  " << sign << ' ' << ToString(ctx.facts().Get(t.fact))
              << "  T=[" << t.t.start << ',' << t.t.end << ")  p="
              << ProbabilityReadOnce(ctx.lineage(), t.lineage, ctx.vars())
              << '\n';
  };
  for (const TpTuple& t : d.delta.retracted) print_tuple('-', t);
  for (const TpTuple& t : d.delta.inserted) print_tuple('+', t);
}

// Starts (or replaces nothing — at most one runs) the introspection server
// on `port`, wiring every obs endpoint to `exec`. Prints the bound address
// (meaningful with port 0) or the failure.
std::unique_ptr<net::HttpServer> StartServing(std::uint16_t port,
                                              const QueryExecutor* exec) {
  net::HttpServerOptions options;
  options.port = port;
  auto server = std::make_unique<net::HttpServer>(options);
  obs::RegisterIntrospectionEndpoints(server.get(), exec);
  Status st = server->Start();
  if (!st.ok()) {
    std::cout << st.ToString() << '\n';
    return nullptr;
  }
  std::cout << "serving on http://" << server->address()
            << " (endpoints: /statusz /metrics /flight /queries ...)\n";
  return server;
}

}  // namespace

int main(int argc, char** argv) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  std::vector<std::string> names;
  std::size_t num_threads = 1;
  bool profile_on = false;
  bool serve = false;
  std::uint16_t serve_port = 0;

  std::vector<std::string> rel_args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      long v = std::atol(arg.c_str() + 10);
      if (v < 1) {
        std::cerr << "--threads expects a positive count, got '" << arg << "'\n";
        return 1;
      }
      num_threads = static_cast<std::size_t>(v);
    } else if (arg.rfind("--serve=", 0) == 0) {
      const char* text = arg.c_str() + 8;
      char* end = nullptr;
      const long v = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || v < 0 || v > 65535) {
        std::cerr << "--serve expects a port in [0, 65535], got '" << arg
                  << "'\n";
        return 1;
      }
      serve = true;
      serve_port = static_cast<std::uint16_t>(v);
    } else {
      rel_args.push_back(arg);
    }
  }

  if (rel_args.empty()) {
    AddSupermarketRelations(ctx, &exec);
    names = {"a", "b", "c"};
  } else {
    for (const std::string& arg : rel_args) {
      std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        std::cerr << "expected name=file.csv, got '" << arg << "'\n";
        return 1;
      }
      std::string name = arg.substr(0, eq);
      Result<TpRelation> rel = ReadCsv(arg.substr(eq + 1), ctx, name);
      if (!rel.ok()) {
        std::cerr << rel.status().ToString() << '\n';
        return 1;
      }
      rel->SortFactTime();  // Register rejects unsorted relations
      Status st = exec.Register(*rel);
      if (!st.ok()) {
        std::cerr << st.ToString() << '\n';
        return 1;
      }
      names.push_back(name);
      std::cout << "loaded " << name << " (" << rel->size() << " tuples)\n";
    }
  }
  if (num_threads > 1) {
    std::cout << "parallel execution: " << num_threads << " threads\n";
  }

  // The shell is interactive telemetry's natural home: start the flight
  // recorder's collector up front so \top has ring history immediately.
  // Env knobs (TPSET_OBS_SAMPLE_MS, TPSET_OBS_RING_CAP) are validated, not
  // clamped — a typo'd config refuses to run rather than silently sampling
  // at the wrong rate.
  Result<obs::RecorderOptions> recorder_options = obs::RecorderOptions::FromEnv();
  if (!recorder_options.ok()) {
    std::cerr << recorder_options.status().ToString() << '\n';
    return 1;
  }
  Status recorder_started = obs::Recorder::Global().Start(*recorder_options);
  if (!recorder_started.ok()) {
    std::cerr << recorder_started.ToString() << '\n';
    return 1;
  }

  std::unique_ptr<net::HttpServer> server;
  if (serve) {
    server = StartServing(serve_port, &exec);
    if (server == nullptr) return 1;
  }

  std::string line;
  std::cout << "tpset> " << std::flush;
  while (std::getline(std::cin, line)) {
    // Commands accept both \cmd and .cmd spellings.
    if (!line.empty() && line[0] == '.') line[0] = '\\';
    if (line == "\\quit" || line == "\\q") break;
    if (line.empty()) {
      std::cout << "tpset> " << std::flush;
      continue;
    }
    if (line == "\\list") {
      for (const std::string& n : names) {
        std::cout << "  " << n;
        Result<const StoredRelation*> stored = exec.FindStored(n);
        if (stored.ok()) {
          std::cout << "  (" << (*stored)->size() << " tuples, runs="
                    << (*stored)->run_count() << ", gen="
                    << (*stored)->generation();
          if ((*stored)->compaction_debt() > 0) {
            std::cout << ", debt=" << (*stored)->compaction_debt();
          }
          if ((*stored)->has_watermark()) {
            std::cout << ", watermark=" << (*stored)->watermark();
          }
          std::cout << ")";
        }
        std::cout << '\n';
      }
      for (const auto& [wname, cq] : exec.continuous()) {
        std::cout << "  watch " << wname << ": " << cq->text() << "  (epoch "
                  << cq->last_epoch() << ", " << cq->size() << " tuples)\n";
      }
    } else if (line.rfind("\\append ", 0) == 0) {
      std::istringstream args(line.substr(8));
      std::string rel, fact_text;
      TimePoint ts = 0, te = 0;
      double p = 0.0;
      if (!(args >> rel >> fact_text >> ts >> te >> p)) {
        std::cout << "usage: \\append <rel> <fact> <ts> <te> <p>\n";
      } else {
        Result<std::shared_ptr<const TpRelation>> target = exec.Find(rel);
        if (!target.ok()) {
          std::cout << target.status().ToString() << '\n';
        } else {
          Result<Fact> fact = ParseFact((*target)->schema(), fact_text);
          if (!fact.ok()) {
            std::cout << fact.status().ToString() << '\n';
          } else {
            DeltaBatch batch;
            batch.Add(*fact, Interval(ts, te), p);
            Result<EpochId> epoch = exec.Append(rel, batch);
            if (!epoch.ok()) {
              std::cout << epoch.status().ToString() << '\n';
            } else {
              std::cout << "epoch " << *epoch << ": " << rel << " += "
                        << ToString(*fact) << " T=[" << ts << ',' << te
                        << ")\n";
              if (profile_on) {
                // Each watch that read <rel> just applied this epoch; its
                // ContinuousQuery keeps the span tree of that propagation.
                for (const auto& [wname, cq] : exec.continuous()) {
                  if (cq->last_epoch() == *epoch) {
                    std::cout << "[" << wname << "] epoch profile:\n"
                              << cq->last_profile().Render();
                  }
                }
              }
            }
          }
        }
      }
    } else if (line.rfind("\\watch ", 0) == 0) {
      std::istringstream args(line.substr(7));
      std::string wname;
      args >> wname;
      std::string query;
      std::getline(args, query);
      if (wname.empty() || query.find_first_not_of(' ') == std::string::npos) {
        std::cout << "usage: \\watch <name> <query>\n";
      } else {
        ContinuousOptions copt;  // reuse the repl thread setting for deltas
        copt.num_threads = num_threads;
        Result<ContinuousQuery*> cq = exec.RegisterContinuous(wname, query, copt);
        if (!cq.ok()) {
          std::cout << cq.status().ToString() << '\n';
        } else {
          const std::string registered_name = wname;
          const TpContext* ctx_ptr = ctx.get();
          (*cq)->Subscribe([registered_name, ctx_ptr](const EpochDelta& d) {
            PrintDelta(registered_name, d, *ctx_ptr);
          });
          std::cout << "watching " << registered_name << ": " << (*cq)->text()
                    << "  (" << (*cq)->size() << " tuples)\n";
        }
      }
    } else if (line.rfind("\\explain ", 0) == 0) {
      Result<std::string> plan = ExplainContinuous(exec, line.substr(9));
      if (plan.ok()) {
        std::cout << *plan;
      } else {
        std::cout << plan.status().ToString() << '\n';
      }
    } else if (line.rfind("\\retain ", 0) == 0) {
      std::istringstream args(line.substr(8));
      std::string rel;
      TimePoint watermark = 0;
      if (!(args >> rel >> watermark)) {
        std::cout << "usage: \\retain <rel> <watermark>\n";
      } else {
        Result<std::size_t> retired = exec.Retain(rel, watermark);
        if (!retired.ok()) {
          std::cout << retired.status().ToString() << '\n';
        } else {
          const StoredRelation* stored = exec.FindStored(rel).value();
          std::cout << "retained " << rel << " to watermark " << watermark
                    << ": retired " << *retired << " tuples, "
                    << stored->size() << " resident\n";
        }
      }
    } else if (line.rfind("\\compact ", 0) == 0) {
      const std::string rel = line.substr(9);
      Status st = exec.Compact(rel);
      if (!st.ok()) {
        std::cout << st.ToString() << '\n';
      } else {
        const StoredRelation* stored = exec.FindStored(rel).value();
        const StorageStats& ss = stored->stats();
        std::cout << "compacted " << rel << ": " << stored->size()
                  << " tuples, runs=" << stored->run_count()
                  << ", runs_merged=" << ss.runs_merged
                  << ", tuples_retired=" << ss.tuples_retired << '\n';
      }
    } else if (line == "\\help" || line == "\\h") {
      std::cout << kHelp;
    } else if (line == "\\metrics" || line.rfind("\\metrics ", 0) == 0) {
      const std::string prefix =
          line.size() > 9 ? line.substr(9) : std::string();
      obs::MetricsSnapshot snap = obs::TakeScrape().snapshot;
      if (!prefix.empty()) {
        std::erase_if(snap.metrics, [&prefix](const obs::MetricSnapshot& m) {
          return m.name.rfind(prefix, 0) != 0;
        });
        if (snap.metrics.empty()) {
          std::cout << "(no metrics with prefix '" << prefix << "')\n";
        }
      }
      std::cout << obs::PrometheusText(snap);
    } else if (line == "\\top" || line.rfind("\\top ", 0) == 0) {
      long window_sec =
          line.size() > 5 ? std::atol(line.c_str() + 5) : 10;
      if (window_sec < 1) window_sec = 10;
      PrintTop(std::chrono::milliseconds(window_sec * 1000));
    } else if (line == "\\events" || line.rfind("\\events ", 0) == 0) {
      long n = line.size() > 8 ? std::atol(line.c_str() + 8) : 20;
      if (n < 1) n = 20;
      PrintEvents(static_cast<std::size_t>(n));
    } else if (line == "\\slow") {
      PrintSlowQueries();
    } else if (line.rfind("\\dump ", 0) == 0) {
      const std::string path = line.substr(6);
      Status st = obs::Recorder::Global().DumpNow(path);
      if (st.ok()) {
        std::cout << "flight record written to " << path << '\n';
      } else {
        std::cout << st.ToString() << '\n';
      }
    } else if (line == "\\serve" || line.rfind("\\serve ", 0) == 0) {
      const std::string arg = line.size() > 7 ? line.substr(7) : std::string();
      if (arg == "stop") {
        if (server == nullptr) {
          std::cout << "not serving\n";
        } else {
          server->Stop();
          server.reset();
          std::cout << "introspection server stopped\n";
        }
      } else if (server != nullptr) {
        std::cout << "already serving on http://" << server->address()
                  << " (\\serve stop first)\n";
      } else {
        char* end = nullptr;
        const long v = arg.empty() ? 0 : std::strtol(arg.c_str(), &end, 10);
        if ((!arg.empty() && (end == arg.c_str() || *end != '\0')) || v < 0 ||
            v > 65535) {
          std::cout << "usage: \\serve [port|stop] (port 0 = ephemeral)\n";
        } else {
          server = StartServing(static_cast<std::uint16_t>(v), &exec);
        }
      }
    } else if (line == "\\profile" || line.rfind("\\profile ", 0) == 0) {
      const std::string arg =
          line.size() > 9 ? line.substr(9) : std::string();
      if (arg == "on") {
        profile_on = true;
      } else if (arg == "off") {
        profile_on = false;
      } else if (!arg.empty()) {
        std::cout << "usage: \\profile [on|off]\n";
      }
      std::cout << "profile: " << (profile_on ? "on" : "off") << '\n';
    } else if (line == "\\threads") {
      std::cout << "threads: " << num_threads << '\n';
    } else if (line.rfind("\\threads ", 0) == 0) {
      long v = std::atol(line.c_str() + 9);
      if (v < 1) {
        std::cout << "usage: \\threads N (N >= 1; 1 = sequential)\n";
      } else {
        num_threads = static_cast<std::size_t>(v);
        std::cout << "threads: " << num_threads
                  << (num_threads == 1 ? " (sequential)" : "") << '\n';
      }
    } else if (line.rfind("\\show ", 0) == 0) {
      Result<std::shared_ptr<const TpRelation>> rel = exec.Find(line.substr(6));
      if (rel.ok()) {
        PrintRelation(std::cout, **rel);
      } else {
        std::cout << rel.status().ToString() << '\n';
      }
    } else {
      Result<QueryPtr> parsed = ParseQuery(line);
      if (!parsed.ok()) {
        std::cout << parsed.status().ToString() << '\n';
      } else {
        ExecOptions options;
        options.num_threads = num_threads;
        obs::QueryProfile profile("query");
        if (profile_on) options.profile = &profile;
        Result<TpRelation> answer = exec.Execute(**parsed, options);
        if (!answer.ok()) {
          std::cout << answer.status().ToString() << '\n';
        } else {
          PrintOptions opts;
          // Repeating queries need the exact valuation (Cor. 1 applies only
          // to non-repeating ones).
          opts.method = IsNonRepeating(**parsed) ? ProbabilityMethod::kReadOnce
                                                 : ProbabilityMethod::kExact;
          answer->set_name(QueryToString(**parsed));
          PrintRelation(std::cout, *answer, opts);
          if (profile_on) std::cout << profile.Render();
        }
      }
    }
    std::cout << "tpset> " << std::flush;
  }
  std::cout << '\n';
  return 0;
}
