#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/time.hpp"
#include "vmpi/types.hpp"

namespace exasim::vmpi {

/// One traced MPI-level operation. xSim is first a *performance
/// investigation* toolkit; the trace is the *communication-accurate* output
/// that tools like SST/macro consume from DUMPI (paper §II-A) — here in a
/// simple self-describing text form.
struct TraceRecord {
  enum class Op : std::uint8_t { kSend, kRecv, kMarker };

  Op op = Op::kMarker;
  Rank rank = -1;         ///< World rank performing the operation.
  SimTime start = 0;      ///< Post time (virtual).
  SimTime end = 0;        ///< Completion time (virtual).
  Rank peer = -1;         ///< World rank of the peer (-1 for markers).
  int tag = 0;
  std::size_t bytes = 0;
  Err error = Err::kSuccess;
  std::string marker;     ///< Marker label (markers only).
};

/// Destination for trace records. Implementations must be thread-safe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceRecord& rec) = 0;
};

/// Accumulates records in memory; render() emits the DUMPI-like text form,
/// sorted by (start, rank). Appends are interleaving-dependent across ranks,
/// but render()'s stable (start, rank) sort restores a deterministic output:
/// ties share a rank, and one rank's records are appended in that rank's
/// deterministic processing order.
class MemoryTraceSink final : public TraceSink {
 public:
  void record(const TraceRecord& rec) override {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(rec);
  }

  /// Read-side accessors are safe once the simulation has finished.
  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  /// One line per record:
  ///   <start_us> <end_us> rank=R op=send peer=P tag=T bytes=B err=SUCCESS
  std::string render() const;

  /// Writes render() to a file; returns false on I/O error.
  bool write_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceRecord> records_;
};

const char* to_string(TraceRecord::Op op);

}  // namespace exasim::vmpi
