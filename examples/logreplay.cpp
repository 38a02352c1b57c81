// logreplay: offline re-analysis of persisted campaign logs.
//
// The paper's framework writes each run "into a log file, which is
// further analyzed"; the executor's LogSink streams exactly those lines.
// This tool closes the loop: feed saved logs back through the zero-copy
// run-log scanner and rebuild the analytics — outcome distribution,
// detection-latency summary, recovery counts — with no live testbed and
// no re-execution. Files are served through util::MappedFile, so a
// multi-GB log replays without ever copying its bytes into the process.
//
// One log replays as the classic single-campaign analytics. Several logs
// (e.g. a sweep's per-cell files) merge into one side-by-side comparison
// report, one column per log.
//
//   $ ./fault_campaign dual-cell 64 > campaign.log
//   $ ./logreplay campaign.log
//   $ ./logreplay - < campaign.log        # read stdin
//   $ ./logreplay sweep-logs/*.runlog     # sweep comparison report
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/log_parser.hpp"
#include "analysis/log_sink.hpp"
#include "analysis/report.hpp"
#include "util/mapped_file.hpp"

namespace {

/// One loaded log: a mapped file (or an owned stdin slurp) plus the view
/// the scanner reads. The view is valid for this object's lifetime.
struct LoadedLog {
  mcs::util::MappedFile file;
  std::string stdin_text;
  std::string_view view;
};

// Exit codes: 0 replayed, 1 malformed/empty log, 2 unreadable input.
int read_log(const std::string& path, LoadedLog& log) {
  if (path == "-") {
    // Stdin is a pipe — not mappable; slurp it once.
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    if (std::cin.bad()) {
      std::cerr << "logreplay: error reading stdin\n";
      return 2;
    }
    log.stdin_text = buffer.str();
    log.view = log.stdin_text;
    return 0;
  }
  // MappedFile refuses directories, but with a generic EIo message —
  // keep the explicit check for the friendlier diagnostic.
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    std::cerr << "logreplay: '" << path << "' is a directory\n";
    return 2;
  }
  auto mapped = mcs::util::MappedFile::open(path);
  if (!mapped.is_ok()) {
    if (mapped.status().code() == mcs::util::Code::ENoEnt) {
      std::cerr << "logreplay: cannot open '" << path << "'\n";
    } else {
      std::cerr << "logreplay: error reading '" << path << "'\n";
    }
    return 2;
  }
  log.file = std::move(mapped).value();
  log.view = log.file.view();
  return 0;
}

/// Scan one log zero-copy; 0/1/2 like main's exit codes.
int scan_log(const std::string& path, mcs::analysis::RunLogScan& scan) {
  LoadedLog log;
  const int rc = read_log(path, log);
  if (rc != 0) return rc;
  if (log.view.empty()) {
    std::cerr << "logreplay: no data in '" << path
              << "' (empty file or unreadable path) — not a campaign log\n";
    return 1;
  }
  scan = mcs::analysis::scan_run_log(log.view);
  if (scan.entries == 0) {
    std::cerr << "logreplay: no run lines found in '" << path << "' ("
              << scan.malformed_lines << " malformed run lines, "
              << scan.skipped_lines
              << " non-run lines skipped) — is this a campaign log "
                 "(fault_campaign stdout)?\n";
    return 1;
  }
  if (scan.skipped_lines > 0) {
    // Headers/footers and record kinds from other writers are expected in
    // a full campaign capture; surface the count so nothing hides.
    std::cerr << "logreplay: note: " << path << ": " << scan.skipped_lines
              << " non-run lines skipped\n";
  }
  if (scan.malformed_lines > 0) {
    // A run line that would not parse — truncation, corruption. Replay
    // continues on what did parse, but the analytics are incomplete.
    std::cerr << "logreplay: warning: " << path << ": "
              << scan.malformed_lines << " malformed run lines dropped\n";
  }
  return 0;
}

/// Column label for a merged report: the file stem ("cell_r100.runlog" →
/// "cell_r100"), or "<stdin>" for the - pseudo-path.
std::string column_label(const std::string& path) {
  if (path == "-") return "<stdin>";
  return std::filesystem::path(path).stem().string();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcs;

  if (argc < 2 || std::string(argv[1]) == "--help") {
    std::cerr << "usage: logreplay <campaign.log | -> [more.log ...]\n"
                 "re-analyzes persisted campaign run logs offline; several\n"
                 "logs merge into one side-by-side comparison report\n";
    return argc >= 2 ? 0 : 1;
  }

  if (argc > 2) {
    // Merge mode: one comparison column per log, labelled by file stem.
    std::vector<analysis::ComparisonColumn> columns;
    for (int i = 1; i < argc; ++i) {
      analysis::RunLogScan scan;
      const int rc = scan_log(argv[i], scan);
      if (rc != 0) return rc;
      columns.push_back({column_label(argv[i]), scan.aggregate});
    }
    std::cout << analysis::render_comparison_report(
        columns, "Campaign comparison — " + std::to_string(columns.size()) +
                     " logs");
    return 0;
  }

  const std::string path = argv[1];
  analysis::RunLogScan scan;
  const int rc = scan_log(path, scan);
  if (rc != 0) return rc;

  // The scanner folded everything the live LogSink would have kept; the
  // failed-run count falls out of the distribution.
  const analysis::CampaignAggregate& aggregate = scan.aggregate;
  const std::uint64_t failures =
      aggregate.distribution.total() -
      aggregate.distribution.count(fi::Outcome::Correct);

  std::cout << scan.entries << " runs replayed from " << path << " ("
            << scan.skipped_lines << " non-run lines skipped)\n\n";
  std::cout << analysis::render_distribution_table(aggregate.distribution)
            << "\n";
  std::cout << analysis::render_latency_summary(aggregate.detection_latency);
  std::cout << aggregate.injections << " injections total; " << failures
            << " failed runs, " << aggregate.cell_failures
            << " cell failures, " << aggregate.reclaimed
            << " recovered by post-mortem shutdown\n";
  return 0;
}
