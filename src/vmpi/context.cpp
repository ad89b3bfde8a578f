#include "vmpi/context.hpp"

#include <stdexcept>

#include "vmpi/process.hpp"

namespace exasim::vmpi {

// ---------------------------------------------------------------------------
// Identity & time
// ---------------------------------------------------------------------------

int Context::rank() const { return proc_->world_rank(); }
int Context::size() const { return proc_->world_size(); }
Comm& Context::world() { return proc_->world_comm(); }
void* Context::services() const { return proc_->shared().services; }
double Context::wtime() const {
  const_cast<SimProcess*>(proc_)->fold_native_time();
  return to_seconds(proc_->clock());
}
SimTime Context::now() const {
  const_cast<SimProcess*>(proc_)->fold_native_time();
  return proc_->clock();
}

// ---------------------------------------------------------------------------
// Compute modeling
// ---------------------------------------------------------------------------

void Context::compute_reference_seconds(double s) {
  proc_->fold_native_time();
  proc_->advance_clock(proc_->proc_model().reference_seconds(s));
}

void Context::elapse(SimTime dt) {
  proc_->fold_native_time();
  proc_->advance_clock(dt);
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

Err Context::raw_send(Comm& comm, Rank dest, int tag, const void* data, std::size_t bytes) {
  proc_->fold_native_time();
  const RequestHandle h = proc_->post_send(comm, dest, tag, data, bytes);
  return proc_->wait_all({&h, 1}, nullptr);
}

Err Context::raw_recv(Comm& comm, Rank src, int tag, void* buffer, std::size_t capacity,
                      MsgStatus* status) {
  proc_->fold_native_time();
  const RequestHandle h = proc_->post_recv(comm, src, tag, buffer, capacity);
  return proc_->wait_all({&h, 1}, status);
}

Err Context::send(Comm& comm, Rank dest, int tag, const void* data, std::size_t bytes) {
  if (tag < 0) throw std::invalid_argument("application tags must be >= 0");
  return proc_->apply_error_handler(comm, raw_send(comm, dest, tag, data, bytes));
}

Err Context::recv(Comm& comm, Rank src, int tag, void* buffer, std::size_t capacity,
                  MsgStatus* status) {
  if (tag < 0 && tag != kAnyTag) throw std::invalid_argument("application tags must be >= 0");
  return proc_->apply_error_handler(comm, raw_recv(comm, src, tag, buffer, capacity, status));
}

Err Context::send_modeled(Comm& comm, Rank dest, int tag, std::size_t bytes) {
  if (tag < 0) throw std::invalid_argument("application tags must be >= 0");
  return proc_->apply_error_handler(comm, raw_send(comm, dest, tag, nullptr, bytes));
}

Err Context::recv_modeled(Comm& comm, Rank src, int tag, std::size_t bytes, MsgStatus* status) {
  if (tag < 0 && tag != kAnyTag) throw std::invalid_argument("application tags must be >= 0");
  return proc_->apply_error_handler(comm, raw_recv(comm, src, tag, nullptr, bytes, status));
}

Err Context::sendrecv(Comm& comm, Rank dest, int send_tag, const void* send_data,
                      std::size_t send_bytes, Rank src, int recv_tag, void* recv_buffer,
                      std::size_t recv_capacity, MsgStatus* status) {
  proc_->fold_native_time();
  const RequestHandle rh = proc_->post_recv(comm, src, recv_tag, recv_buffer, recv_capacity);
  const RequestHandle sh = proc_->post_send(comm, dest, send_tag, send_data, send_bytes);
  const RequestHandle handles[] = {rh, sh};
  MsgStatus st[2];
  Err e = proc_->wait_all(handles, st);
  if (status != nullptr) *status = st[0];
  return proc_->apply_error_handler(comm, e);
}

Err Context::send(Rank dest, int tag, const void* data, std::size_t bytes) {
  return send(world(), dest, tag, data, bytes);
}

Err Context::recv(Rank src, int tag, void* buffer, std::size_t capacity, MsgStatus* status) {
  return recv(world(), src, tag, buffer, capacity, status);
}

RequestHandle Context::isend(Comm& comm, Rank dest, int tag, const void* data,
                             std::size_t bytes) {
  proc_->fold_native_time();
  return proc_->post_send(comm, dest, tag, data, bytes);
}

RequestHandle Context::irecv(Comm& comm, Rank src, int tag, void* buffer,
                             std::size_t capacity) {
  proc_->fold_native_time();
  return proc_->post_recv(comm, src, tag, buffer, capacity);
}

RequestHandle Context::isend_modeled(Comm& comm, Rank dest, int tag, std::size_t bytes) {
  return isend(comm, dest, tag, nullptr, bytes);
}

RequestHandle Context::irecv_modeled(Comm& comm, Rank src, int tag, std::size_t bytes) {
  return irecv(comm, src, tag, nullptr, bytes);
}

Err Context::wait(Comm& comm, RequestHandle h, MsgStatus* status) {
  proc_->fold_native_time();
  return proc_->wait_all({&h, 1}, status, &comm);
}

Err Context::waitall(Comm& comm, std::span<const RequestHandle> handles,
                     std::vector<MsgStatus>* statuses) {
  proc_->fold_native_time();
  if (statuses != nullptr) statuses->resize(handles.size());
  // A tail call: a rank blocked in waitall keeps no frame of this function
  // in its saved stack image.
  return proc_->wait_all(handles, statuses == nullptr ? nullptr : statuses->data(), &comm);
}

bool Context::test(RequestHandle h, MsgStatus* status, Err* err) {
  proc_->fold_native_time();
  return proc_->test(h, status, err);
}

Err Context::probe(Comm& comm, Rank src, int tag, MsgStatus* status) {
  proc_->fold_native_time();
  return proc_->apply_error_handler(comm, proc_->probe(comm, src, tag, status));
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

Comm* Context::comm_dup(Comm& comm) {
  Err e = barrier(comm);  // Communicator creation is collective.
  if (e != Err::kSuccess) return nullptr;
  return proc_->comm_dup(comm);
}

void Context::set_error_handler(Comm& comm, ErrorHandlerKind kind, UserErrorHandler handler) {
  comm.handler = kind;
  comm.set_user_handler(std::move(handler));
}

// ---------------------------------------------------------------------------
// Lifecycle & resilience
// ---------------------------------------------------------------------------

void Context::finalize() {
  proc_->fold_native_time();
  proc_->mark_finalized();
}

void Context::abort() { proc_->abort_now(); }

void Context::inject_failure_at(SimTime t) { proc_->inject_failure_at(t); }

void Context::inject_failure(SimTime delay) {
  proc_->inject_failure_at(proc_->clock() + delay);
}

void Context::fail_now() { proc_->fail_now(); }

std::span<const resilience::NoticeArrival> Context::failed_peers() const {
  return proc_->failed_peers();
}

// ---------------------------------------------------------------------------
// ULFM extension
// ---------------------------------------------------------------------------

void Context::trace_marker(const std::string& label) {
  if (proc_->trace() == nullptr) return;
  vmpi::TraceRecord rec;
  rec.op = vmpi::TraceRecord::Op::kMarker;
  rec.rank = proc_->world_rank();
  rec.start = rec.end = proc_->clock();
  rec.marker = label;
  proc_->trace()->record(rec);
}

void Context::register_memory(const std::string& name, void* ptr, std::size_t bytes) {
  proc_->register_memory(name, ptr, bytes);
}

void Context::unregister_memory(const std::string& name) { proc_->unregister_memory(name); }

void Context::schedule_bit_flip(SimTime t, std::uint64_t bit_index) {
  proc_->schedule_bit_flip(t, bit_index);
}

Err Context::comm_revoke(Comm& comm) {
  proc_->fold_native_time();
  proc_->comm_revoke(comm);
  return Err::kSuccess;
}

void Context::failure_ack(Comm& comm) { proc_->failure_ack(comm); }

std::vector<Rank> Context::failure_get_acked(Comm& comm) const { return comm.acked_failures(); }

}  // namespace exasim::vmpi
