#include "core/machine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "netmodel/topology.hpp"
#include "pdes/sim_workers.hpp"
#include "util/log.hpp"
#include "vmpi/context.hpp"

namespace exasim::core {

Machine::Machine(SimConfig config, vmpi::AppMain app)
    : config_(std::move(config)) {
  if (config_.ranks <= 0) throw std::invalid_argument("ranks <= 0");
  resolve_sim_workers(config_.sim_workers);
  for (const auto& f : config_.failures) {
    if (f.rank < 0 || f.rank >= config_.ranks) {
      throw std::invalid_argument("failure schedule rank out of range");
    }
  }
  for (const auto& s : config_.soft_errors) {
    if (s.rank < 0 || s.rank >= config_.ranks) {
      throw std::invalid_argument("soft error rank out of range");
    }
  }

  if (config_.network) {
    network_ = config_.network;
    if (network_->ranks_per_node() != config_.ranks_per_node) {
      throw std::invalid_argument(
          "prebuilt network has " + std::to_string(network_->ranks_per_node()) +
          " ranks per node but ranks_per_node is " + std::to_string(config_.ranks_per_node));
    }
  } else {
    network_ = std::make_shared<NetworkModel>(make_topology(config_.topology), config_.net,
                                              resolve_routing_spec(config_.routing),
                                              config_.ranks_per_node);
  }
  const std::int64_t needed_nodes =
      (std::int64_t{config_.ranks} + network_->ranks_per_node() - 1) /
      network_->ranks_per_node();
  if (network_->topology().node_count() < needed_nodes) {
    throw std::invalid_argument("topology too small for rank count");
  }

  // Resilience pipeline: the bus performs the broadcasts, and its detector
  // decides when each survivor learns of a failure from the network model
  // (resilience::Detector).
  resilience::NotificationBus::Wiring wiring;
  wiring.engine = &engine_;
  wiring.ranks = config_.ranks;
  wiring.failure_kind = vmpi::kEvFailureNotice;
  wiring.abort_kind = vmpi::kEvAbortNotice;
  wiring.revoke_kind = vmpi::kEvRevokeNotice;
  bus_ = std::make_unique<resilience::NotificationBus>(wiring, config_.detector, *network_);
  proc_model_ = std::make_unique<ProcessorModel>(config_.proc);
  storage_ = std::make_unique<StorageHierarchy>(resolve_storage_spec(config_.storage));
  if (config_.power) {
    energy_ = std::make_unique<EnergyLedger>(config_.ranks, *config_.power);
  }
  if (config_.trace) {
    trace_ = std::make_unique<vmpi::MemoryTraceSink>();
  }

  services_.storage = storage_.get();
  services_.ckpt_mode = ckpt::resolve_ckpt_mode(config_.ckpt_mode);
  services_.energy = energy_.get();
  services_.run_start_time = config_.initial_time;

  shared_.engine = &engine_;
  shared_.network = network_.get();
  shared_.proc_model = proc_model_.get();
  shared_.hooks = this;
  shared_.registry = &registry_;
  shared_.app = std::move(app);
  shared_.config = config_.process;
  shared_.world_size = config_.ranks;
  shared_.energy = energy_.get();
  shared_.trace = trace_.get();
  shared_.services = &services_;
}

Machine::~Machine() = default;

SimResult Machine::run() {
  // This run's counters: this thread's over the run (metrics/perf.hpp).
  const util::Counters counters_begin = util::thread_counters();
  const auto wall_begin = std::chrono::steady_clock::now();

  // Build one simulated MPI process per rank, each one heap block pointing
  // at the shared wiring (services, sinks and the application included).
  processes_.clear();
  processes_.reserve(static_cast<std::size_t>(config_.ranks));
  engine_.reserve(static_cast<std::size_t>(config_.ranks));
  for (int r = 0; r < config_.ranks; ++r) {
    auto proc = std::make_unique<vmpi::SimProcess>(r, shared_, config_.initial_time);
    engine_.add_process(r, proc.get());
    processes_.push_back(std::move(proc));
  }

  // Inject the failure schedule (paper §IV-B): per-process time of failure +
  // an activation event so blocked processes fail on time.
  for (const auto& f : config_.failures) {
    auto& proc = *processes_[static_cast<std::size_t>(f.rank)];
    proc.set_time_of_failure(std::min(proc.time_of_failure(), f.time));
    engine_.schedule(f.time, f.rank, vmpi::kEvFailureActivation, nullptr,
                     EventPriority::kControl);
  }
  for (const auto& s : config_.soft_errors) {
    processes_[static_cast<std::size_t>(s.rank)]->schedule_bit_flip(s.time, s.bit_index);
  }

  // Start every process at the (possibly restored) initial virtual time.
  for (int r = 0; r < config_.ranks; ++r) {
    engine_.schedule(config_.initial_time, r, vmpi::kEvStart, nullptr);
  }

  engine_.run();
  if (fiber_error_) std::rethrow_exception(fiber_error_);

  // Collect results.
  SimResult result;
  RunningStats end_times;
  for (const auto& proc : processes_) {
    switch (proc->outcome()) {
      case vmpi::ProcOutcome::kFinished: ++result.finished_count; break;
      case vmpi::ProcOutcome::kFailed: ++result.failed_count; break;
      case vmpi::ProcOutcome::kAborted: ++result.aborted_count; break;
      case vmpi::ProcOutcome::kRunning: break;  // Deadlocked.
    }
    if (proc->outcome() != vmpi::ProcOutcome::kRunning) {
      end_times.add(to_seconds(proc->end_time()));
      result.max_end_time = std::max(result.max_end_time, proc->end_time());
    }
  }
  result.min_end_time = sim_seconds(end_times.min());
  result.avg_end_time_sec = end_times.mean();
  // Report the activations in (time, rank) order.
  std::sort(activated_.begin(), activated_.end(),
            [](const FailureSpec& a, const FailureSpec& b) {
              return a.time != b.time ? a.time < b.time : a.rank < b.rank;
            });
  result.activated_failures = activated_;
  result.abort_time = abort_time_;
  result.abort_origin = abort_origin_;
  result.scheduler = "fixed";
  result.routing = exasim::to_string(network_->routing());
  result.link_timeouts = exasim::to_string(network_->params().link_timeouts);
  result.storage = exasim::to_string(storage_->spec());
  result.ckpt_mode = ckpt::to_string(services_.ckpt_mode);
  result.detector = resilience::to_string(config_.detector);
  result.error_policy = "errors-are-fatal";  // MPI_COMM_WORLD's default handler.
  const auto det_stats = bus_->detection_stats(activated_);
  result.failure_notices = det_stats.notices;
  result.max_detection_latency = det_stats.max_latency;
  result.mean_detection_latency_sec = det_stats.mean_latency_sec();
  result.rank_end_times.reserve(processes_.size());
  result.rank_outcomes.reserve(processes_.size());
  std::size_t notices = 0;
  for (const auto& proc : processes_) notices += proc->failed_peers().size();
  result.notice_arrivals.reserve(notices);
  for (const auto& proc : processes_) {
    result.rank_end_times.push_back(proc->end_time());
    result.rank_outcomes.push_back(proc->outcome());
    const auto told = proc->failed_peers();
    result.notice_arrivals.insert(result.notice_arrivals.end(), told.begin(), told.end());
  }
  // (t_fail, failed_rank, observer) is a total order over the records (a
  // rank hears of each failure once).
  std::sort(result.notice_arrivals.begin(), result.notice_arrivals.end(),
            [](const resilience::NoticeArrival& a, const resilience::NoticeArrival& b) {
              if (a.t_fail != b.t_fail) return a.t_fail < b.t_fail;
              if (a.failed_rank != b.failed_rank) return a.failed_rank < b.failed_rank;
              return a.observer < b.observer;
            });
  result.events_processed = engine_.events_processed();
  result.perf = perf_of(util::thread_counters() - counters_begin);
  result.perf.stacks_high_water = engine_.stack_images_peak();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();
  if (result.wall_seconds > 0 && result.events_processed > 0) {
    result.events_per_sec = static_cast<double>(result.events_processed) / result.wall_seconds;
    result.ns_per_event = 1e9 / result.events_per_sec;
  }
  if (result.events_processed > 0) {
    result.heap_allocs_per_event = static_cast<double>(result.perf.pool_heap_allocs) /
                                   static_cast<double>(result.events_processed);
  }
  if (energy_) result.total_energy_joules = energy_->total_joules();
  for (const auto& proc : processes_) {
    result.total_busy_time += proc->busy_time();
    result.total_comm_time += proc->comm_time();
  }
  const double accounted =
      static_cast<double>(result.total_busy_time) + static_cast<double>(result.total_comm_time);
  if (accounted > 0) {
    result.compute_fraction = static_cast<double>(result.total_busy_time) / accounted;
  }

  result.deadlocked_ranks = engine_.unterminated();
  if (!result.deadlocked_ranks.empty()) {
    result.outcome = SimResult::Outcome::kDeadlock;
    EXASIM_WARN() << "simulation deadlocked with " << result.deadlocked_ranks.size()
                  << " blocked processes";
  } else if (abort_time_.has_value()) {
    result.outcome = SimResult::Outcome::kAborted;
  } else if (result.failed_count > 0 && result.finished_count < config_.ranks) {
    // Failures without an abort (e.g. ULFM recovery did not complete
    // everywhere) still count as an aborted execution if anyone is missing.
    result.outcome = result.finished_count + result.failed_count == config_.ranks
                         ? SimResult::Outcome::kCompleted
                         : SimResult::Outcome::kAborted;
  } else {
    result.outcome = SimResult::Outcome::kCompleted;
  }

  // Shutdown timing statistics: minimum, maximum, and average simulated
  // MPI process time (paper §IV-D).
  EXASIM_INFO() << "simulated process times: min=" << end_times.min()
                << "s max=" << end_times.max() << "s avg=" << end_times.mean() << "s";
  return result;
}

void Machine::process_failed(vmpi::SimProcess& proc, SimTime when) {
  // Informational message on the command line (paper §IV-B).
  EXASIM_INFO() << "simulated MPI process failure: rank " << proc.world_rank() << " at "
                << format_sim_time(when);
  engine_.mark_dead(proc.world_rank());
  {
    std::lock_guard<std::mutex> lock(hooks_mutex_);
    activated_.push_back(FailureSpec{proc.world_rank(), when});
  }

  // Simulator-internal broadcast: every simulated process learns the rank
  // and time of failure (paper §IV-B), delivered at the detector's
  // per-observer detection time.
  bus_->broadcast_failure(proc.world_rank(), when);
}

void Machine::abort_called(vmpi::SimProcess& proc, SimTime when) {
  EXASIM_INFO() << "simulated MPI_Abort: rank " << proc.world_rank() << " at "
                << format_sim_time(when);
  {
    std::lock_guard<std::mutex> lock(hooks_mutex_);
    // (when, rank) tie-break keeps the reported origin deterministic when
    // two groups abort at the same virtual time.
    if (!abort_time_.has_value() || when < *abort_time_ ||
        (when == *abort_time_ && proc.world_rank() < abort_origin_)) {
      abort_time_ = when;
      abort_origin_ = proc.world_rank();
    }
  }
  bus_->broadcast_abort(proc.world_rank(), when);
}

void Machine::comm_revoked(vmpi::SimProcess& proc, int comm_id, SimTime when) {
  bus_->broadcast_revoke(proc.world_rank(), comm_id, when);
}

void Machine::process_terminated(vmpi::SimProcess& proc) {
  (void)proc;
  if (terminated_count_.fetch_add(1, std::memory_order_relaxed) + 1 == config_.ranks) {
    // "The simulator terminates after all simulated MPI processes aborted"
    // (§IV-D) — or finished/failed.
    engine_.request_stop();
  }
}

void Machine::fiber_exception(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(hooks_mutex_);
    if (!fiber_error_) fiber_error_ = std::move(error);
  }
  engine_.request_stop();
}

std::string sim_result_json(const SimResult& r) {
  auto outcome_str = [](SimResult::Outcome o) {
    switch (o) {
      case SimResult::Outcome::kCompleted: return "completed";
      case SimResult::Outcome::kAborted: return "aborted";
      case SimResult::Outcome::kDeadlock: return "deadlock";
    }
    return "?";
  };
  std::ostringstream os;
  os << "{";
  os << "\"outcome\":\"" << outcome_str(r.outcome) << "\",";
  os << "\"max_end_time_ns\":" << r.max_end_time << ",";
  os << "\"max_end_time_sec\":" << to_seconds(r.max_end_time) << ",";
  os << "\"avg_end_time_sec\":" << r.avg_end_time_sec << ",";
  os << "\"scheduler\":\"" << r.scheduler << "\",";
  // Storage fields appear only off the default, so the default-config field
  // set stays byte-identical to the pre-hierarchy golden.
  const bool default_storage =
      (r.storage.empty() || r.storage == "pfs") && (r.ckpt_mode.empty() || r.ckpt_mode == "pfs");
  if (!default_storage) {
    os << "\"storage\":\"" << r.storage << "\",";
    os << "\"ckpt_mode\":\"" << r.ckpt_mode << "\",";
  }
  os << "\"detector\":\"" << r.detector << "\",";
  os << "\"error_policy\":\"" << r.error_policy << "\",";
  os << "\"failure_notices\":" << r.failure_notices << ",";
  os << "\"max_detection_latency_ns\":" << r.max_detection_latency << ",";
  os << "\"mean_detection_latency_sec\":" << r.mean_detection_latency_sec << ",";
  os << "\"activated_failures\":[";
  for (std::size_t i = 0; i < r.activated_failures.size(); ++i) {
    const auto& f = r.activated_failures[i];
    os << (i == 0 ? "" : ",") << "{\"rank\":" << f.rank << ",\"time_ns\":" << f.time << "}";
  }
  os << "],";
  if (r.abort_time.has_value()) {
    os << "\"abort_time_ns\":" << *r.abort_time << ",";
    os << "\"abort_origin\":" << r.abort_origin << ",";
  }
  os << "\"finished\":" << r.finished_count << ",";
  os << "\"failed\":" << r.failed_count << ",";
  os << "\"aborted\":" << r.aborted_count << ",";
  os << "\"deadlocked\":" << r.deadlocked_ranks.size() << ",";
  os << "\"events_processed\":" << r.events_processed << ",";
  os << "\"total_energy_joules\":" << r.total_energy_joules << ",";
  os << "\"compute_fraction\":" << r.compute_fraction << ",";
  os << "\"wall_seconds\":" << r.wall_seconds << ",";
  os << "\"events_per_sec\":" << r.events_per_sec;
  os << "}";
  return os.str();
}

std::vector<vmpi::Rank> Machine::alive_world_ranks() const {
  // Ascending: processes_ is indexed by world rank, and callers
  // (MPI_Comm_shrink membership) binary-search the result.
  std::vector<vmpi::Rank> alive;
  alive.reserve(processes_.size());
  for (const auto& p : processes_) {
    if (p->outcome() != vmpi::ProcOutcome::kFailed) alive.push_back(p->world_rank());
  }
  return alive;
}

}  // namespace exasim::core
