#include "core/sweep_worker.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/mapped_file.hpp"
#include "util/strings.hpp"

namespace mcs::fi {

namespace {

namespace fs = std::filesystem;

std::string lease_body(const std::string& worker_id, long pid,
                       std::uint64_t heartbeats) {
  std::ostringstream out;
  out << "worker " << worker_id << "\n"
      << "pid " << pid << "\n"
      << "heartbeat " << heartbeats << "\n";
  return out.str();
}

/// Remove every file a (now definitely dead) worker could have left in
/// the logdir: its cell leases, claim/steal scratch, and un-renamed
/// artifact temps. Safe because the caller has waitpid()ed the owner.
void remove_worker_litter(const std::string& log_dir,
                          const std::string& worker_id, long pid) {
  std::error_code ec;
  const std::string tmp_suffix = "." + worker_id + ".tmp";
  const std::string scratch_mark = "." + worker_id + "." + std::to_string(pid);
  for (fs::directory_iterator it(log_dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const bool artifact_tmp = name.size() > tmp_suffix.size() &&
                              name.compare(name.size() - tmp_suffix.size(),
                                           tmp_suffix.size(),
                                           tmp_suffix) == 0;
    const bool scratch = name.find(scratch_mark) != std::string::npos;
    bool dead_lease = false;
    if (name.ends_with(".lease") || name.ends_with(".lease.steal")) {
      // A lease it held, or a steal token it died holding.
      const auto info = CellLease::read_file(it->path().string(), "");
      dead_lease = info && info->worker_id == worker_id && info->pid == pid;
    }
    if (artifact_tmp || scratch || dead_lease) {
      std::error_code remove_ec;
      fs::remove(it->path(), remove_ec);
    }
  }
}

}  // namespace

// --- CellLease ---------------------------------------------------------------

CellLease::CellLease(CellLease&& other) noexcept
    : path_(std::move(other.path_)),
      worker_id_(std::move(other.worker_id_)),
      pid_(other.pid_),
      heartbeats_(other.heartbeats_),
      stole_(other.stole_) {
  other.path_.clear();
}

CellLease& CellLease::operator=(CellLease&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    worker_id_ = std::move(other.worker_id_);
    pid_ = other.pid_;
    heartbeats_ = other.heartbeats_;
    stole_ = other.stole_;
    other.path_.clear();
  }
  return *this;
}

CellLease::~CellLease() { release(); }

std::string CellLease::lease_path(const std::string& log_dir,
                                  const std::string& cell_id) {
  return (fs::path(log_dir) / (cell_id + ".lease")).string();
}

std::optional<LeaseInfo> CellLease::read(const std::string& log_dir,
                                         const std::string& cell_id) {
  return read_file(lease_path(log_dir, cell_id), cell_id);
}

std::optional<LeaseInfo> CellLease::read_file(const std::string& path,
                                              const std::string& cell_id) {
  // Age and body from one open file, so a lease replaced between a stat
  // and a read can never yield an old age paired with a new holder. The
  // age is measured against the file's mtime — the only clock all
  // workers on a shared filesystem can agree on.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  std::string body;
  bool ok = ::fstat(fd, &st) == 0;
  char buffer[256];
  for (ssize_t got = 0; ok && (got = ::read(fd, buffer, sizeof buffer)) != 0;) {
    if (got < 0) {
      ok = errno == EINTR;
      continue;
    }
    body.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  if (!ok) return std::nullopt;
  timespec now {};
  ::clock_gettime(CLOCK_REALTIME, &now);
  const double age = static_cast<double>(now.tv_sec - st.st_mtim.tv_sec) +
                     static_cast<double>(now.tv_nsec - st.st_mtim.tv_nsec) * 1e-9;

  LeaseInfo info;
  info.cell_id = cell_id;
  // A lease from the future (skewed writer) is at least as alive as a
  // fresh one.
  info.age_seconds = std::max(0.0, age);
  for (const std::string& raw : util::split(body, '\n')) {
    const std::string_view line = util::trim(raw);
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) continue;
    const std::string_view key = line.substr(0, space);
    const std::string value(util::trim(line.substr(space + 1)));
    if (key == "worker") {
      info.worker_id = value;
    } else if (key == "pid") {
      info.pid = std::strtol(value.c_str(), nullptr, 10);
    } else if (key == "heartbeat") {
      info.heartbeats = std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  return info;
}

util::Expected<CellLease> CellLease::try_claim(const std::string& log_dir,
                                               const std::string& cell_id,
                                               const std::string& worker_id,
                                               std::chrono::milliseconds ttl) {
  const std::string lease = lease_path(log_dir, cell_id);
  const long pid = static_cast<long>(::getpid());
  const std::string unique = "." + worker_id + "." + std::to_string(pid);

  const std::string token = lease + ".steal";
  const auto stale = [&](const LeaseInfo& info) {
    // Strictly younger than the TTL counts alive — so ttl == 0 makes any
    // existing lease stealable, as the header promises.
    return info.age_seconds * 1000.0 >= static_cast<double>(ttl.count());
  };
  const auto claimed = [&](bool stole) {
    CellLease lease_held;
    lease_held.path_ = lease;
    lease_held.worker_id_ = worker_id;
    lease_held.pid_ = pid;
    lease_held.stole_ = stole;
    return lease_held;
  };

  // A few rounds: each failed claim either finds a live holder (EBusy)
  // or makes progress (a released lease vanishes, an abandoned steal
  // token is cleared); the bound only guards against pathological
  // claim/release churn.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::string tmp = lease + unique + ".claim";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << lease_body(worker_id, pid, 0);
      out.flush();
      if (!out) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return util::Status(util::Code::EIo,
                            "cannot write lease temp '" + tmp + "'");
      }
    }
    // Every path below drops the temp name; a successful claim lives on
    // under the lease name.
    const auto drop_tmp = [&] {
      std::error_code ec;
      fs::remove(tmp, ec);
    };
    // link(2), not O_CREAT|O_EXCL: atomic on POSIX shared filesystems
    // (historic NFS caveat), and exactly one claimer's link succeeds.
    if (::link(tmp.c_str(), lease.c_str()) == 0) {
      drop_tmp();
      return claimed(false);
    }
    const int link_errno = errno;
    if (link_errno != EEXIST) {
      drop_tmp();
      return util::Status(util::Code::EIo,
                          "cannot link lease '" + lease +
                              "': " + std::strerror(link_errno));
    }

    // Someone holds it. Alive (heartbeat within the TTL) → busy; a
    // vanished lease (released between our link and read) → retry.
    const std::optional<LeaseInfo> holder = read(log_dir, cell_id);
    if (!holder) {
      drop_tmp();
      continue;
    }
    if (!stale(*holder)) {
      drop_tmp();
      return util::busy("cell '" + cell_id + "' leased by worker '" +
                        holder->worker_id + "'");
    }

    // Stale: steal it. Stealers first take an exclusive steal token —
    // link(2) of their claim file to <cell>.lease.steal, the claim's own
    // primitive — so at most one acts on the lease at a time. The token
    // holder re-reads the lease and, only if it is still the very lease
    // judged stale (same holder and heartbeat, still past the TTL),
    // replaces it with its claim by rename(2). The replace is atomic and
    // the lease name never goes missing, so no concurrent claimer can
    // link a second lease in. A slow stealer that takes the token after
    // a faster one finished finds the fresh lease and backs off. A token
    // older than the TTL was left by a stealer that died mid-steal; it is
    // cleared and the claim retried.
    if (::link(tmp.c_str(), token.c_str()) != 0) {
      const std::optional<LeaseInfo> other = read_file(token, cell_id);
      drop_tmp();
      if (other && stale(*other)) {
        std::error_code ec;
        fs::remove(token, ec);
        continue;
      }
      return util::busy("cell '" + cell_id + "' being stolen by worker '" +
                        (other ? other->worker_id : holder->worker_id) + "'");
    }
    const std::optional<LeaseInfo> current = read(log_dir, cell_id);
    const bool still_stale = current && current->worker_id == holder->worker_id &&
                             current->pid == holder->pid &&
                             current->heartbeats == holder->heartbeats &&
                             stale(*current);
    std::error_code replaced;
    if (still_stale) fs::rename(tmp, lease, replaced);
    drop_tmp();
    std::error_code ec;
    fs::remove(token, ec);
    if (still_stale && !replaced) return claimed(true);
    return util::busy("cell '" + cell_id + "' leased by worker '" +
                      (current ? current->worker_id : holder->worker_id) + "'");
  }
  return util::busy("cell '" + cell_id + "' lease contended");
}

bool CellLease::heartbeat() {
  if (!held()) return false;
  // Losing the lease (a peer judged us dead after a missed TTL) is not
  // an error to fight: ownership transferred, the peer is re-executing,
  // and the artifact renames make the duplicate harmless. Just stop
  // claiming to own it.
  const fs::path dir = fs::path(path_).parent_path();
  const std::string cell =
      fs::path(path_).filename().string();  // "<cell>.lease"
  const std::optional<LeaseInfo> current =
      read(dir.string(), cell.substr(0, cell.size() - 6));
  if (!current || current->worker_id != worker_id_ || current->pid != pid_) {
    path_.clear();
    return false;
  }
  ++heartbeats_;
  const util::Status wrote = write_text_atomic(
      path_, lease_body(worker_id_, pid_, heartbeats_),
      worker_id_ + ".hb");
  return wrote.is_ok();
}

void CellLease::release() {
  if (!held()) return;
  std::error_code ec;
  fs::remove(path_, ec);
  path_.clear();
}

void CellLease::abandon() noexcept { path_.clear(); }

std::vector<LeaseInfo> list_leases(const std::string& log_dir) {
  std::vector<LeaseInfo> leases;
  std::error_code ec;
  for (fs::directory_iterator it(log_dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= 6 || name.compare(name.size() - 6, 6, ".lease") != 0) {
      continue;
    }
    if (auto info = CellLease::read(log_dir, name.substr(0, name.size() - 6))) {
      leases.push_back(std::move(*info));
    }
  }
  std::sort(leases.begin(), leases.end(),
            [](const LeaseInfo& a, const LeaseInfo& b) {
              return a.cell_id < b.cell_id;
            });
  return leases;
}

// --- spec file ---------------------------------------------------------------

util::Status write_spec_file(const SweepSpec& spec) {
  if (spec.log_dir.empty()) {
    return util::invalid_argument("spec has no logdir to persist into");
  }
  std::error_code ec;
  fs::create_directories(spec.log_dir, ec);
  if (ec) {
    return util::Status(util::Code::EIo, "cannot create sweep log dir '" +
                                             spec.log_dir +
                                             "': " + ec.message());
  }
  return write_text_atomic(
      (fs::path(spec.log_dir) / kSweepSpecFileName).string(),
      render_sweep_spec(spec));
}

util::Expected<SweepSpec> read_spec_file(const std::string& log_dir) {
  const std::string path = (fs::path(log_dir) / kSweepSpecFileName).string();
  auto body = util::read_file(path);
  if (!body.is_ok()) {
    if (body.status().code() == util::Code::ENoEnt) {
      return util::not_found("no sweep spec at '" + path +
                             "' — was this logdir started by a sweep "
                             "coordinator?");
    }
    return util::Status(util::Code::EIo, "error reading '" + path + "'");
  }
  auto parsed = parse_sweep_spec(body.value());
  if (!parsed.is_ok()) return parsed.status();
  SweepSpec spec = std::move(parsed).value();
  // The joining host may mount the share at a different path; the
  // logdir it was told wins over the one the coordinator recorded.
  spec.log_dir = log_dir;
  return spec;
}

// --- SweepWorker -------------------------------------------------------------

SweepWorker::SweepWorker(SweepSpec spec, ExecutorConfig executor,
                         SweepWorkerConfig worker)
    : spec_(std::move(spec)), executor_(executor), worker_(std::move(worker)) {
  if (worker_.worker_id.empty()) {
    worker_.worker_id = std::string(1, 'w').append(
        std::to_string(static_cast<long>(::getpid())));
  }
}

util::Expected<SweepWorkerStats> SweepWorker::run() {
  if (spec_.log_dir.empty()) {
    return util::invalid_argument(
        "sweep worker needs a logdir to coordinate over");
  }
  SweepDriver driver(spec_, executor_);
  auto plans = driver.expand();
  if (!plans.is_ok()) return plans.status();

  std::error_code ec;
  std::filesystem::create_directories(spec_.log_dir, ec);
  if (ec) {
    return util::Status(util::Code::EIo, "cannot create sweep log dir '" +
                                             spec_.log_dir +
                                             "': " + ec.message());
  }

  struct Cell {
    TestPlan plan;
    std::string log_path;
    bool done = false;
  };
  std::vector<Cell> cells;
  cells.reserve(plans.value().size());
  for (TestPlan& plan : plans.value()) {
    Cell cell;
    cell.log_path = SweepDriver::cell_log_path(spec_.log_dir, plan.name);
    cell.plan = std::move(plan);
    cells.push_back(std::move(cell));
  }

  SweepWorkerStats stats;
  std::size_t done = 0;

  const auto report = [&](const Cell& cell,
                          analysis::CampaignAggregate aggregate,
                          bool executed_here, bool resumed) {
    if (!progress_) return;
    SweepCellResult result;
    result.id = cell.plan.name;
    result.plan = cell.plan;
    result.log_path = cell.log_path;
    result.aggregate = std::move(aggregate);
    result.resumed = resumed;
    SweepWorkerProgress event;
    event.cell = &result;
    event.executed_here = executed_here;
    event.cells_done = done;
    event.cells_total = cells.size();
    event.runs_executed_here = stats.runs_executed;
    progress_(event);
  };

  while (done < cells.size()) {
    bool advanced = false;

    for (Cell& cell : cells) {
      if (cell.done) continue;

      analysis::CampaignAggregate aggregate;
      if (cell_log_complete(cell.plan, cell.log_path, aggregate)) {
        cell.done = true;
        ++done;
        ++stats.observed;
        advanced = true;
        report(cell, std::move(aggregate), false, true);
        continue;
      }

      auto claim = CellLease::try_claim(spec_.log_dir, cell.plan.name,
                                        worker_.worker_id, worker_.lease_ttl);
      if (!claim.is_ok()) {
        if (claim.status().code() == util::Code::EBusy) continue;
        return claim.status();
      }
      CellLease lease = std::move(claim).value();
      if (lease.stole()) ++stats.stolen;

      // The previous holder may have committed the cell between our
      // completeness check and the claim (release happens after the
      // artifact renames) — never re-execute a complete cell.
      if (cell_log_complete(cell.plan, cell.log_path, aggregate)) {
        lease.release();
        cell.done = true;
        ++done;
        ++stats.observed;
        advanced = true;
        report(cell, std::move(aggregate), false, true);
        continue;
      }

      // Execute under the lease, heartbeating (throttled) per run so a
      // long cell on a live worker never looks dead.
      auto last_beat = std::chrono::steady_clock::now();
      const auto beat = [&](std::uint32_t) {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_beat >= worker_.heartbeat_interval) {
          last_beat = now;
          (void)lease.heartbeat();
        }
      };
      auto executed = execute_cell(cell.plan, cell.log_path, executor_,
                                   worker_.worker_id, beat);
      if (!executed.is_ok()) return executed.status();  // lease released by RAII
      lease.release();

      cell.done = true;
      ++done;
      ++stats.executed;
      stats.runs_executed += cell.plan.runs;
      advanced = true;
      report(cell, std::move(executed).value(), true, false);
    }

    if (done == cells.size()) break;
    if (!advanced) {
      // Every remaining cell is leased by a live peer. Either wait for
      // them (stale leases become stealable as TTLs lapse), or leave
      // the stragglers to their holders.
      if (!worker_.wait_for_stragglers) break;
      std::this_thread::sleep_for(worker_.poll);
    }
  }

  return stats;
}

// --- distributed coordinator -------------------------------------------------

util::Expected<SweepResult> run_distributed_sweep(
    const SweepSpec& spec, const ExecutorConfig& executor,
    const DistributedSweepOptions& options) {
  if (spec.log_dir.empty()) {
    return util::invalid_argument(
        "distributed sweep needs a logdir (the coordination substrate)");
  }
  if (options.workers == 0) {
    return util::invalid_argument("distributed sweep needs ≥ 1 worker");
  }
  MCS_RETURN_IF_ERROR(write_spec_file(spec));

  const std::string prefix =
      options.worker.worker_id.empty() ? "w" : options.worker.worker_id;

  // Nothing buffered may cross fork(): a child that exits would flush a
  // duplicate copy of the parent's pending output.
  std::cout.flush();
  std::cerr.flush();
  ::fflush(nullptr);

  std::vector<std::pair<pid_t, std::string>> children;
  children.reserve(options.workers);
  for (unsigned k = 0; k < options.workers; ++k) {
    const std::string worker_id = prefix + std::to_string(k);
    const pid_t pid = ::fork();
    if (pid < 0) {
      if (children.empty()) {
        return util::Status(util::Code::EIo,
                            std::string("fork: ") + std::strerror(errno));
      }
      break;  // degraded but correct: fewer workers split the grid
    }
    if (pid == 0) {
#ifdef __linux__
      // Children are visibly "sweep-worker" processes (pkill -x
      // sweep-worker in the crash-tolerance smoke kills exactly one).
      ::prctl(PR_SET_NAME, "sweep-worker", 0, 0, 0);
#endif
      SweepWorkerConfig config = options.worker;
      config.worker_id = worker_id;
      SweepWorker worker(spec, executor, config);
      if (options.make_worker_progress) {
        worker.set_progress(options.make_worker_progress(worker_id));
      }
      const auto stats = worker.run();
      // _Exit: no atexit / static destructors in a forked child.
      std::_Exit(stats.is_ok() ? 0 : 3);
    }
    children.emplace_back(pid, worker_id);
  }

  for (const auto& [pid, worker_id] : children) {
    int wait_status = 0;
    (void)::waitpid(pid, &wait_status, 0);
  }
  // All children are reaped: anything they left — leases, claim scratch,
  // un-renamed artifact temps — is litter from a dead process.
  for (const auto& [pid, worker_id] : children) {
    remove_worker_litter(spec.log_dir, worker_id, static_cast<long>(pid));
  }

  // The backstop merge: resume every completed cell from its log and
  // re-execute whatever no worker finished (all children crashing is
  // just the degenerate case), then fold — byte-identical to the
  // single-process driver by construction.
  SweepDriver driver(spec, executor);
  return driver.execute();
}

// --- status rendering --------------------------------------------------------

std::string render_sweep_status(const SweepStatus& status) {
  std::ostringstream out;
  out << "job " << status.job << "\n"
      << "cells " << status.cells_done << "/" << status.cells_total << "\n";
  out << std::fixed << std::setprecision(1);
  out << "runs_per_sec " << status.runs_per_sec << "\n";
  if (status.eta_seconds < 0) {
    out << "eta_seconds unknown\n";
  } else {
    out << "eta_seconds " << status.eta_seconds << "\n";
  }
  for (const LeaseInfo& lease : status.leases) {
    out << "lease " << lease.cell_id << " worker " << lease.worker_id
        << " pid " << lease.pid << " heartbeats " << lease.heartbeats
        << " age " << lease.age_seconds << "s\n";
  }
  return out.str();
}

}  // namespace mcs::fi
