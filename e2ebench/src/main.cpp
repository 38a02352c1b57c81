// e2e_worker: one benchmark process. run.py starts a fresh process per
// mode, so the process-wide TestbedPool and LogPipeCounters never carry
// warm state from one measurement into the next.
//
//   e2e_worker setup    --workload W --seed N
//       time one zero-tick, one-run campaign on the workload's first plan
//   e2e_worker measure  --workload W --seed N --seconds S --tmp DIR
//       set up as above, then run the workload's rounds through the
//       program's own paths, untraced, in whole passes for S seconds
//   e2e_worker traced   --workload W --seed N --seconds S --tmp DIR --spans F
//       replay the rounds through the traced outside-in replica for 2S/3
//       seconds, check it against the program's own path, then time the
//       untraced path on the same rounds for S/3 seconds; spans go to F
//
// Each mode prints one JSON object on stdout; run.py turns it into metrics.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "replica.hpp"
#include "util/logpipe_counters.hpp"
#include "workloads.hpp"

namespace {

using e2e::now_s;

/// Minimal JSON object writer: numbers, strings and number/string arrays.
class Json {
 public:
  Json& num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  Json& num(const char* key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Json& str(const char* key, const std::string& value) {
    return raw(key, quote(value));
  }
  Json& nums(const char* key, const std::vector<double>& values) {
    std::string out = "[";
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i == 0 ? "" : ",", values[i]);
      out += buf;
    }
    return raw(key, out + "]");
  }
  Json& strs(const char* key, const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out += ',';
      out += quote(values[i]);
    }
    return raw(key, out + "]");
  }
  Json& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "{" : ",") + quote(key) + ":" + value;
    return *this;
  }
  [[nodiscard]] std::string text() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  std::string body_;
};

struct Args {
  std::string mode;
  e2e::Workload workload = e2e::Workload::Fig3Steady;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  std::string tmp;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_worker: %s\nusage: e2e_worker setup|measure|traced "
               "--workload W --seed N [--seconds S] [--tmp DIR] [--spans FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload_name = value;
      if (!e2e::workload_from_name(value, args.workload)) usage("unknown workload");
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 0);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--tmp") {
      args.tmp = value;
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      usage("unknown option");
    }
  }
  if (args.workload_name.empty()) usage("missing --workload");
  if (args.mode != "setup" && args.tmp.empty()) usage("missing --tmp");
  return args;
}

void empty_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
}

bool is_grid(const e2e::WorkloadPlans& plans) { return !plans.sweeps.empty(); }

// --- setup ---------------------------------------------------------------------

int run_setup(const Args& args) {
  const e2e::WorkloadPlans plans = e2e::make_workload(args.workload, args.seed, 0);
  bool failed = false;
  const double setup_s = e2e::time_setup_campaign(plans.plans.front(), failed);
  std::vector<std::string> checks;
  if (failed) checks.push_back("setup campaign ended in a harness error");
  std::printf("%s\n", Json().num("setup_s", setup_s).strs("checks", checks).text().c_str());
  return 0;
}

// --- measure -------------------------------------------------------------------

/// One untraced pass over a round's plans through the program's own path.
struct UntracedPass {
  std::string text;  ///< canonical bytes, hashed by the correctness gate
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  std::uint64_t window_ticks = 0;
  double wall_s = 0.0;
  std::vector<std::string> errors;
};

/// `samples_ms` (optional) receives one host-time sample per run: the gap
/// between consecutive completions on the completing thread, or for the
/// grid the gap between consecutive cells divided by the cell's runs.
UntracedPass run_untraced(const e2e::WorkloadPlans& plans, const std::string& grid_dir,
                          unsigned threads, bool resume,
                          std::vector<double>* samples_ms) {
  UntracedPass out;
  if (is_grid(plans)) {
    empty_dir(grid_dir);
    double last = now_s();
    const e2e::GridPass pass =
        e2e::run_grid(plans.sweeps, grid_dir, threads, resume, [&](std::uint32_t n) {
          const double t = now_s();
          if (samples_ms != nullptr) samples_ms->push_back((t - last) * 1000.0 / n);
          last = t;
        });
    out.wall_s = pass.fresh_s + pass.resume_s;
    out.runs = pass.runs;
    out.window_ticks = pass.window_ticks;
    out.failed = pass.harness_errors;
    if (!pass.error.empty()) out.errors.push_back(pass.error);
    if (resume && pass.resumed_report != pass.report) {
      out.errors.push_back("resumed report differs from the fresh report");
    }
    out.text = e2e::grid_pass_text(pass, e2e::read_cell_logs(plans.plans, grid_dir));
  } else {
    const double start = now_s();
    double last = start;
    const std::vector<e2e::CampaignRecord> records =
        e2e::run_campaigns(plans.plans, threads, [&] {
          const double t = now_s();
          if (samples_ms != nullptr) samples_ms->push_back((t - last) * 1000.0);
          last = t;
        });
    out.wall_s = now_s() - start;
    for (const e2e::CampaignRecord& record : records) {
      out.runs += record.runs;
      out.window_ticks += record.window_ticks;
      out.failed += record.harness_errors;
    }
    out.text = e2e::campaign_pass_text(records);
  }
  if (!out.errors.empty()) out.failed = out.runs;
  return out;
}

int run_measure(const Args& args) {
  const e2e::WorkloadPlans round0 = e2e::make_workload(args.workload, args.seed, 0);
  std::vector<std::string> checks;
  bool setup_failed = false;
  const double setup_s = e2e::time_setup_campaign(round0.plans.front(), setup_failed);
  if (setup_failed) checks.push_back("setup campaign ended in a harness error");

  const std::string grid_dir = args.tmp + "/grid";
  std::vector<double> samples_ms;
  std::vector<double> pass_s;
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  std::uint64_t window_ticks = 0;
  std::string first_text;

  const double start = now_s();
  std::uint64_t round = 0;
  do {
    const e2e::WorkloadPlans plans = e2e::make_workload(args.workload, args.seed, round);
    UntracedPass pass = run_untraced(plans, grid_dir, 1, true, &samples_ms);
    pass_s.push_back(pass.wall_s);
    runs += pass.runs;
    failed += pass.failed;
    window_ticks += pass.window_ticks;
    checks.insert(checks.end(), pass.errors.begin(), pass.errors.end());
    if (round == 0) first_text = std::move(pass.text);
    ++round;
  } while (now_s() - start < args.seconds);
  // Before the checks below, whose multi-threaded grid builds extra slots.
  const long peak_rss_kb = e2e::peak_rss_kb();

  // Round 0 again, untimed and warm: it must reproduce its cold first pass
  // byte for byte, and for the grid so must the multi-threaded sweep.
  const UntracedPass replay = run_untraced(round0, grid_dir, 1, true, nullptr);
  if (!replay.errors.empty() || replay.text != first_text) {
    checks.push_back("warm replay of round 0 differs from its first pass");
  }
  if (is_grid(round0)) {
    const unsigned threads = e2e::grid_threads();
    const UntracedPass parallel =
        run_untraced(round0, args.tmp + "/grid-parallel", threads, true, nullptr);
    if (!parallel.errors.empty() || parallel.text != first_text) {
      checks.push_back("the " + std::to_string(threads) +
                       "-thread grid differs from the 1-thread grid");
    }
  }
  if (!checks.empty()) failed = runs;

  Json out;
  out.str("mode", "measure")
      .num("setup_s", setup_s)
      .num("passes", round)
      .num("runs", runs)
      .num("failed", failed)
      .nums("pass_s", pass_s)
      .num("window_ticks", window_ticks)
      .num("peak_rss_kb", static_cast<std::uint64_t>(peak_rss_kb))
      .str("aggregate_hash", e2e::fnv1a_hex(first_text))
      .nums("samples_ms", samples_ms)
      .strs("checks", checks);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// --- traced --------------------------------------------------------------------

/// Span totals by name, plus the hot-layer aggregates scoped to the
/// observation window.
struct SpanTotals {
  std::array<double, e2e::kNumSpanNames> busy_ms{};
  std::array<double, e2e::kNumSpanNames> self_ms{};
  std::array<std::uint64_t, e2e::kNumSpanNames> spans{};
  double window_guest_self_ms = 0.0;
  double window_hook_ms = 0.0;
  std::vector<double> run_ms;
};

SpanTotals total_spans(const std::vector<e2e::Span>& spans) {
  using e2e::SpanName;
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const e2e::Span& span : spans) {
    if (span.parent >= 0) child_ns[static_cast<std::size_t>(span.parent)] += span.busy_ns;
  }
  SpanTotals totals;
  const auto phase_of = [&](const e2e::Span& span) {
    const e2e::Span* parent = &spans[static_cast<std::size_t>(span.parent)];
    if (parent->name == SpanName::Guest) {
      parent = &spans[static_cast<std::size_t>(parent->parent)];
    }
    return parent->name;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& span = spans[i];
    const auto name = static_cast<std::size_t>(span.name);
    const double busy = static_cast<double>(span.busy_ns) / 1e6;
    const double self = static_cast<double>(span.busy_ns - child_ns[i]) / 1e6;
    totals.busy_ms[name] += busy;
    totals.self_ms[name] += self;
    ++totals.spans[name];
    if (span.name == SpanName::Run) totals.run_ms.push_back(busy);
    if (span.name == SpanName::Guest && phase_of(span) == SpanName::Observe) {
      totals.window_guest_self_ms += self;
    }
    if (span.name == SpanName::Hook && phase_of(span) == SpanName::Observe) {
      totals.window_hook_ms += busy;
    }
  }
  return totals;
}

void write_spans(const std::string& path, const std::vector<e2e::Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const e2e::Span& span : spans) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"parent\":%" PRId32 ",\"run\":%" PRIu32
                 ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"busy_ns\":%" PRId64 ",\"count\":%" PRIu64
                 ",\"timed\":%" PRIu64 "}\n",
                 e2e::span_name(span.name), span.parent, span.run,
                 span.start_ns - origin, span.end_ns - origin, span.busy_ns,
                 span.count, span.timed);
  }
  std::fclose(file);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

int run_traced(const Args& args) {
  using e2e::SpanName;
  const e2e::WorkloadPlans round0 = e2e::make_workload(args.workload, args.seed, 0);
  const bool grid = is_grid(round0);
  std::vector<std::string> checks;

  // 1. The program's own path on round 0: the bytes the replica must
  //    reproduce, and the aggregate hash of the correctness gate.
  std::vector<std::string> reference_logs;
  std::string aggregate_hash;
  if (grid) {
    const std::string dir = args.tmp + "/reference";
    empty_dir(dir);
    const e2e::GridPass pass = e2e::run_grid(round0.sweeps, dir, e2e::grid_threads(), false, {});
    if (!pass.error.empty()) checks.push_back(pass.error);
    reference_logs = e2e::read_cell_logs(round0.plans, dir);
    aggregate_hash = e2e::fnv1a_hex(e2e::grid_pass_text(pass, reference_logs));
  } else {
    const auto records = e2e::run_campaigns(round0.plans, 1, {});
    for (const e2e::CampaignRecord& record : records) reference_logs.push_back(record.log);
    aggregate_hash = e2e::fnv1a_hex(e2e::campaign_pass_text(records));
  }

  // 2. The traced replica, one round per pass.
  e2e::Tracer tracer;
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  std::uint64_t passes = 0;
  e2e::ReplicaPass first;
  double traced_s = 0.0;
  {
    e2e::Replica replica(tracer);
    const double start = now_s();
    do {
      const e2e::WorkloadPlans plans = e2e::make_workload(args.workload, args.seed, passes);
      e2e::ReplicaPass pass = replica.run_pass(plans.plans);
      const std::uint64_t pass_runs = pass.counts.runs;
      std::uint64_t pass_failed = pass.harness_errors;
      if (passes == 0) {
        for (std::size_t i = 0; i < plans.plans.size(); ++i) {
          if (pass.logs[i] != reference_logs[i]) {
            checks.push_back("replica log of " + plans.plans[i].name +
                             " differs from CampaignExecutor's");
            pass_failed = pass_runs;
          }
        }
        first = std::move(pass);
      }
      runs += pass_runs;
      failed += std::min(pass_failed, pass_runs);
      ++passes;
    } while (now_s() - start < args.seconds * 2 / 3);
    traced_s = now_s() - start;
  }

  // 3. The untraced program path on the same rounds, for the tracing
  //    overhead and the sweep-level layers the replica does not drive.
  double untraced_runs_per_s = 0.0;
  double idle_share = 0.0;
  double resume_ms = 0.0;
  double scan_lines = 0.0;
  double scan_bytes = 0.0;
  {
    std::vector<double> serial_s;
    std::vector<double> parallel_s;
    std::vector<double> resumes_ms;
    std::uint64_t untraced_runs = 0;
    double untraced_s = 0.0;
    mcs::util::LogPipeCounters& logpipe = mcs::util::LogPipeCounters::instance();
    const double start = now_s();
    std::uint64_t round = 0;
    do {
      const bool first_round = round == 0;
      const e2e::WorkloadPlans plans = e2e::make_workload(args.workload, args.seed, round++);
      // The replica runs one worker, so its untraced counterpart does too.
      const UntracedPass serial = run_untraced(plans, args.tmp + "/serial", 1, false, nullptr);
      checks.insert(checks.end(), serial.errors.begin(), serial.errors.end());
      untraced_runs += serial.runs;
      untraced_s += serial.wall_s;
      if (grid) {
        const std::string dir = args.tmp + "/parallel";
        empty_dir(dir);
        const auto before = logpipe.stats();
        const e2e::GridPass parallel =
            e2e::run_grid(plans.sweeps, dir, e2e::grid_threads(), true, {});
        const auto after = logpipe.stats();
        if (!parallel.error.empty()) checks.push_back(parallel.error);
        serial_s.push_back(serial.wall_s);
        parallel_s.push_back(parallel.fresh_s);
        resumes_ms.push_back(parallel.resume_s * 1000.0);
        // Round 0's plans are fixed by the seed alone, so its scan counts
        // repeat exactly; later rounds depend on how many fit in the time.
        if (first_round) {
          scan_lines = static_cast<double>(after.parse_lines - before.parse_lines);
          scan_bytes = static_cast<double>(after.parse_bytes - before.parse_bytes);
        }
      }
    } while (now_s() - start < args.seconds / 3);
    untraced_runs_per_s = static_cast<double>(untraced_runs) / untraced_s;
    if (grid) {
      // Share of the workers' capacity not spent on the 1-worker work.
      idle_share = 1.0 - median(serial_s) / (e2e::grid_threads() * median(parallel_s));
      resume_ms = median(resumes_ms);
    }
  }

  // 4. Per-layer metrics: times are per run, means over every traced pass;
  //    counts are per run over pass 0, which a fresh process makes exact.
  const SpanTotals totals = total_spans(tracer.spans());
  const double n = static_cast<double>(runs);
  const auto per_run = [&](SpanName name) { return totals.busy_ms[static_cast<std::size_t>(name)] / n; };
  const e2e::SimCounts& c = first.counts;
  const double first_runs = static_cast<double>(c.runs);
  const auto count = [&](std::uint64_t value) { return static_cast<double>(value) / first_runs; };
  double covered_ms = 0.0;
  for (const SpanName name :
       {SpanName::Lease, SpanName::Provision, SpanName::Setup, SpanName::Boot,
        SpanName::Capture, SpanName::Attach, SpanName::Observe, SpanName::Epilogue,
        SpanName::Finish, SpanName::Probe, SpanName::Detach, SpanName::Sink,
        SpanName::Report}) {
    covered_ms += totals.busy_ms[static_cast<std::size_t>(name)];
  }
  const double traced_runs_per_s = n / traced_s;

  Json metrics;
  metrics.num("core.lease_ms", per_run(SpanName::Lease))
      .num("core.provision_ms", per_run(SpanName::Provision))
      .num("core.setup_ms", per_run(SpanName::Setup))
      .num("core.boot_ms", per_run(SpanName::Boot))
      .num("core.capture_ms", per_run(SpanName::Capture))
      .num("core.restores", static_cast<double>(c.restores))
      .num("core.resets", static_cast<double>(c.resets))
      .num("core.captures", static_cast<double>(c.captures))
      .num("core.slots_built", static_cast<double>(c.slots_built))
      .num("core.restore_ratio",
           static_cast<double>(c.restores) / static_cast<double>(c.restores + c.resets))
      .num("core.window_ms", per_run(SpanName::Observe))
      .num("core.epilogue_ms", per_run(SpanName::Epilogue))
      .num("core.classify_ms", per_run(SpanName::Finish))
      .num("core.probe_ms", per_run(SpanName::Probe))
      .num("core.injector.calls", count(c.injector_calls))
      .num("core.injector.injections", count(c.injections))
      .num("core.injector.hook_ms", totals.window_hook_ms / n)
      .num("guests.quantum_ms", totals.window_guest_self_ms / n)
      .num("guests.quanta", count(c.guest_quanta))
      .num("guests.rtos_ticks", count(c.guest_timer_calls))
      .num("hypervisor.traps", count(c.traps))
      .num("hypervisor.hvcs", count(c.hvcs))
      .num("hypervisor.irqs", count(c.irqs))
      .num("hypervisor.mmio_emulations", count(c.mmio_emulations))
      .num("hypervisor.path_ms",
           totals.self_ms[static_cast<std::size_t>(SpanName::Observe)] / n)
      .num("irq.delivered", count(c.irq_delivered))
      .num("platform.sim_ticks", count(c.sim_ticks))
      .num("platform.deadline_refreshes", count(c.deadline_refreshes))
      .num("mem.tlb_hits", count(c.tlb_hits))
      .num("mem.tlb_misses", count(c.tlb_misses))
      .num("mem.tlb_hit_ratio",
           static_cast<double>(c.tlb_hits) / static_cast<double>(c.tlb_hits + c.tlb_misses))
      .num("mem.dram_fast_ops", count(c.dram_fast_ops))
      .num("mem.dram_slow_ops", count(c.dram_slow_ops))
      .num("analysis.sink_record_us", per_run(SpanName::Sink) * 1000.0)
      .num("analysis.report_ms",
           totals.busy_ms[static_cast<std::size_t>(SpanName::Report)] /
               static_cast<double>(passes))
      .num("analysis.resume_ms", resume_ms)
      .num("analysis.scan_lines", scan_lines)
      .num("analysis.scan_bytes", scan_bytes)
      .num("core.sweep.idle_share", idle_share)
      .num("trace.runs_per_s", traced_runs_per_s)
      .num("trace.untraced_runs_per_s", untraced_runs_per_s)
      .num("trace.overhead_runs_per_s", traced_runs_per_s - untraced_runs_per_s)
      .num("trace.uncovered_share", 1.0 - covered_ms / (traced_s * 1000.0))
      .num("trace.run_uncovered_us",
           totals.self_ms[static_cast<std::size_t>(SpanName::Run)] / n * 1000.0);

  std::string simstats = c.describe();
  for (const std::string& log : first.logs) simstats += log;
  simstats += first.report;

  if (!args.spans.empty()) write_spans(args.spans, tracer.spans());

  Json out;
  out.str("mode", "traced")
      .num("passes", passes)
      .num("runs", runs)
      .num("failed", failed)
      .num("spans", static_cast<std::uint64_t>(tracer.spans().size()))
      .str("aggregate_hash", aggregate_hash)
      .str("simstats_hash", e2e::fnv1a_hex(simstats))
      .nums("run_ms_samples", totals.run_ms)
      .raw("metrics", metrics.text())
      .strs("checks", checks);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.mode == "setup") return run_setup(args);
  if (args.mode == "measure") return run_measure(args);
  if (args.mode == "traced") return run_traced(args);
  usage("unknown mode");
}
