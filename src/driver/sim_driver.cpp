#include "driver/sim_driver.hpp"

#include <span>
#include <stdexcept>
#include <string_view>

#include "common/fnv.hpp"

namespace pio::driver {

namespace {

trace::OpKind to_trace_op(workload::OpKind kind) {
  using W = workload::OpKind;
  using T = trace::OpKind;
  switch (kind) {
    case W::kCreate:
    case W::kOpen: return T::kOpen;
    case W::kClose: return T::kClose;
    case W::kRead: return T::kRead;
    case W::kWrite: return T::kWrite;
    case W::kStat: return T::kStat;
    case W::kMkdir: return T::kMkdir;
    case W::kUnlink: return T::kUnlink;
    case W::kReaddir: return T::kReaddir;
    case W::kFsync: return T::kFsync;
    case W::kCompute: return T::kOther;
    case W::kBarrier: return T::kSync;
  }
  return T::kOther;
}

}  // namespace

std::uint64_t digest(const SimRunResult& r) {
  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(r.makespan.ns()));
  for (const std::uint64_t v : {r.ops, r.data_ops, r.meta_ops}) h.mix(v);
  for_each_counter(r, [&](std::string_view name, auto v) {
    // The pinned order keeps cache_writeback_failures, which is not a
    // RunCounters field, in its old slot before cache_absorbed_writes.
    if (name == "cache_absorbed_writes") h.mix(r.cache_writeback_failures);
    h.mix(counter_value(v));
  });
  for (const Bytes b : {r.cache_hit_bytes, r.cache_miss_bytes, r.cache_writeback_bytes,
                        r.bytes_read, r.bytes_written}) {
    h.mix(b.count());
  }
  for (const SimTime t : {r.read_time, r.write_time, r.meta_time}) {
    h.mix(static_cast<std::uint64_t>(t.ns()));
  }
  for (const SimTime t : r.rank_finish) h.mix(static_cast<std::uint64_t>(t.ns()));
  return h.digest();
}

ExecutionDrivenSimulator::ExecutionDrivenSimulator(sim::Engine& engine, pfs::PfsModel& model,
                                                   SimRunConfig config)
    : engine_(engine), model_(model), config_(config) {}

pfs::ClientId ExecutionDrivenSimulator::client_of(std::int32_t rank) const {
  return static_cast<pfs::ClientId>(rank) % model_.config().clients;
}

void ExecutionDrivenSimulator::begin_impl(const workload::Workload& workload,
                                          trace::Sink* sink) {
  sink_ = sink;
  result_ = SimRunResult{};
  paths_ = &workload.paths();
  files_.resize(paths_->size());
  for (FileId f = 0; f < files_.size(); ++f) files_[f] = model_.mds().intern(paths_->path(f));
  layouts_.assign(paths_->size(), config_.layout);
  barrier_waiting_ = 0;
  const auto n = static_cast<std::size_t>(workload.ranks());
  if (n == 0) throw std::invalid_argument("ExecutionDrivenSimulator: zero-rank workload");
  tier_.reset();
  if (config_.cache.enabled) {
    tier_ = std::make_unique<cache::ClientCacheTier>(engine_, model_, config_.cache,
                                                     static_cast<std::int32_t>(n));
  }
  ranks_.clear();
  ranks_.resize(n);
  result_.rank_finish.assign(n, SimTime::zero());
  active_ranks_ = n;
  counters_before_ = model_counters();
  start_time_ = engine_.now();
  for (std::size_t r = 0; r < n; ++r) {
    const std::span<const workload::Op> ops = workload.ops(static_cast<std::int32_t>(r));
    ranks_[r].op = ops.data();
    ranks_[r].end = ops.data() + ops.size();
    // Stagger nothing: all ranks start together, like an MPI job after
    // MPI_Init.
    engine_.schedule_after(SimTime::zero(),
                           [this, r] { advance(static_cast<std::int32_t>(r)); });
  }
}

void ExecutionDrivenSimulator::begin(const workload::Workload& workload, trace::Sink* sink) {
  external_drive_ = true;
  begin_impl(workload, sink);
}

SimRunResult ExecutionDrivenSimulator::collect() {
  if (active_ranks_ != 0) {
    throw std::runtime_error(
        "ExecutionDrivenSimulator: run stalled (mismatched barriers or time limit); "
        "active ranks: " + std::to_string(active_ranks_));
  }
  const std::size_t n = ranks_.size();
  if (tier_ != nullptr) {
    tier_->finalize();
    sim::check::cache_writeback_drained(tier_->dirty_pages());
    const cache::CacheStats cs = tier_->stats();
    static_cast<cache::CacheCounters&>(result_) = cs;
    result_.cache_writeback_failures = cs.writeback_failures;
    result_.cache_hit_bytes = cs.hit_bytes;
    result_.cache_miss_bytes = cs.miss_bytes;
    result_.cache_writeback_bytes = cs.writeback_bytes;
  }
  SimTime last = start_time_;
  for (std::size_t r = 0; r < n; ++r) last = std::max(last, ranks_[r].finish);
  result_.makespan = last - start_time_;
  for (std::size_t r = 0; r < n; ++r) {
    result_.rank_finish[r] = ranks_[r].finish - start_time_;
  }
  // The model's counters span every run on it; this run reports its deltas.
  // The snapshots leave failed_ops and the cache counters at zero, so the
  // values this run already holds for those stay as they are.
  result_ += model_counters() - counters_before_;
  return result_;
}

SimRunResult ExecutionDrivenSimulator::run(const workload::Workload& workload,
                                           trace::Sink* sink) {
  external_drive_ = false;
  begin_impl(workload, sink);
  engine_.run(start_time_ + config_.time_limit);
  if (active_ranks_ == 0 && tier_ != nullptr) {
    // Quiescence drain: any dirty page a workload left behind (a file never
    // closed) is written back now; C1 then requires zero residual.
    tier_->flush_all();
    engine_.run(start_time_ + config_.time_limit);
  }
  return collect();
}

RunCounters ExecutionDrivenSimulator::model_counters() const {
  const pfs::PfsModel::ServerOverloadTotals srv = model_.server_overload_totals();
  RunCounters c;
  static_cast<pfs::ClientCounters&>(c) = model_.resilience_stats();
  c.server_overload_rejected = srv.rejected;
  c.server_shed = srv.shed;
  return c;
}

void ExecutionDrivenSimulator::advance(std::int32_t rank) {
  auto& state = ranks_[static_cast<std::size_t>(rank)];
  if (state.op == state.end) {
    state.done = true;
    state.finish = engine_.now();
    --active_ranks_;
    // A shrinking-communicator barrier: ranks that exited no longer
    // participate, so symmetric workloads with early-exiting ranks cannot
    // deadlock the rest.
    if (barrier_waiting_ > 0 && barrier_waiting_ == active_ranks_) release_barrier();
    if (active_ranks_ == 0 && external_drive_) {
      // Externally driven run: nobody calls engine_.run() on our behalf
      // after the workload, so kick off the cache quiescence flush from the
      // completing event.
      if (tier_ != nullptr) tier_->flush_all();
    }
    return;
  }
  issue(rank);
}

void ExecutionDrivenSimulator::issue(std::int32_t rank) {
  using K = workload::OpKind;
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  const workload::Op& op = *state.op;
  state.start = engine_.now();
  switch (op.kind) {
    case K::kCompute: {
      engine_.schedule_after(op.think_time, [this, rank] { complete_op(rank, true); });
      return;
    }
    case K::kBarrier: {
      ++barrier_waiting_;
      state.at_barrier = true;
      if (barrier_waiting_ == active_ranks_) release_barrier();
      return;
    }
    case K::kRead:
    case K::kWrite: {
      const bool is_write = op.kind == K::kWrite;
      if (tier_ != nullptr) {
        const auto done = [this, rank](bool ok, Bytes hit_bytes) {
          cached_done(rank, ok, hit_bytes);
        };
        if (is_write) {
          tier_->write(rank, files_[op.file], layouts_[op.file], op.offset, op.size, done);
        } else {
          tier_->read(rank, files_[op.file], layouts_[op.file], op.offset, op.size, done);
        }
        return;
      }
      model_.io(client_of(rank), files_[op.file], layouts_[op.file], op.offset, op.size,
                is_write, [this, rank](pfs::IoResult result) { complete_op(rank, result.ok); });
      return;
    }
    case K::kCreate:
    case K::kOpen:
    case K::kStat:
    case K::kMkdir:
    case K::kUnlink:
    case K::kReaddir:
    case K::kClose:
    case K::kFsync: {
      if (tier_ != nullptr && op.kind == K::kUnlink) {
        tier_->invalidate_path(files_[op.file]);
      }
      if (tier_ != nullptr && (op.kind == K::kFsync || op.kind == K::kClose)) {
        // Write-back barrier: the commit RPC is issued only once every dirty
        // page of the file has landed (C1: flush-on-close/fsync).
        tier_->flush_path(rank, files_[op.file], [this, rank] { issue_meta(rank); });
        return;
      }
      issue_meta(rank);
      return;
    }
  }
}

void ExecutionDrivenSimulator::issue_meta(std::int32_t rank) {
  using K = workload::OpKind;
  const workload::Op& op = *ranks_[static_cast<std::size_t>(rank)].op;
  pfs::MetaOp meta_op;
  switch (op.kind) {
    case K::kCreate: meta_op = pfs::MetaOp::kCreate; break;
    case K::kOpen: meta_op = pfs::MetaOp::kOpen; break;
    case K::kStat: meta_op = pfs::MetaOp::kStat; break;
    case K::kMkdir: meta_op = pfs::MetaOp::kMkdir; break;
    case K::kUnlink: meta_op = pfs::MetaOp::kUnlink; break;
    case K::kReaddir: meta_op = pfs::MetaOp::kReaddir; break;
    // fsync has no MDS meaning in this model; charge it as a close-cost
    // round trip (the commit RPC).
    case K::kFsync:
    case K::kClose: meta_op = pfs::MetaOp::kClose; break;
    default: meta_op = pfs::MetaOp::kStat; break;
  }
  const std::optional<pfs::StripeLayout> layout =
      op.kind == K::kCreate ? std::optional<pfs::StripeLayout>(config_.layout) : std::nullopt;
  model_.meta(client_of(rank), meta_op, files_[op.file],
              [this, rank](pfs::MetaResult result) { meta_done(rank, result); }, layout);
}

void ExecutionDrivenSimulator::meta_done(std::int32_t rank, const pfs::MetaResult& result) {
  using K = workload::OpKind;
  const workload::Op& op = *ranks_[static_cast<std::size_t>(rank)].op;
  // Re-creating an existing file behaves like O_CREAT without O_EXCL, and
  // mkdir like mkdir -p: success. (The measured path applies the same
  // tolerance.)
  const bool ok = result.ok() || ((op.kind == K::kCreate || op.kind == K::kMkdir) &&
                                  result.status == pfs::MetaStatus::kExists);
  if (result.inode.has_value()) layouts_[op.file] = result.inode->layout;
  complete_op(rank, ok);
}

void ExecutionDrivenSimulator::cached_done(std::int32_t rank, bool ok, Bytes hit_bytes) {
  const RankState& state = ranks_[static_cast<std::size_t>(rank)];
  if (sink_ != nullptr) {
    // One kCache annotation per data op: size = bytes the cache served
    // (read hits) or absorbed (write-back). Replay and profiling filter on
    // kPosix, so these are purely additive.
    trace::TraceEvent e;
    e.layer = trace::Layer::kCache;
    e.op = state.op->kind == workload::OpKind::kWrite ? trace::OpKind::kWrite
                                                      : trace::OpKind::kRead;
    e.rank = rank;
    e.path = paths_->path(state.op->file);
    e.offset = state.op->offset;
    e.size = hit_bytes.count();
    e.start = state.start;
    e.end = engine_.now();
    e.ok = ok;
    sink_->record(e);
  }
  complete_op(rank, ok);
}

void ExecutionDrivenSimulator::complete_op(std::int32_t rank, bool ok) {
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  const workload::Op& op = *state.op;
  const SimTime start = state.start;
  const SimTime end = engine_.now();
  ++result_.ops;
  if (!ok) ++result_.failed_ops;
  using K = workload::OpKind;
  switch (op.kind) {
    case K::kRead:
      ++result_.data_ops;
      result_.bytes_read += op.size;
      result_.read_time += end - start;
      break;
    case K::kWrite:
      ++result_.data_ops;
      result_.bytes_written += op.size;
      result_.write_time += end - start;
      break;
    case K::kCompute:
    case K::kBarrier:
      break;
    default:
      ++result_.meta_ops;
      result_.meta_time += end - start;
      break;
  }
  if (sink_ != nullptr && op.kind != K::kCompute) {
    trace::TraceEvent e;
    e.layer = trace::Layer::kPosix;
    e.op = to_trace_op(op.kind);
    e.rank = rank;
    e.path = paths_->path(op.file);
    e.offset = op.offset;
    e.size = op.size.count();
    e.start = start;
    e.end = end;
    e.ok = ok;
    sink_->record(e);
  }
  ++state.op;
  advance(rank);
}

void ExecutionDrivenSimulator::release_barrier() {
  barrier_waiting_ = 0;
  // Global barriers delimit DL epochs (the DLIO workload emits one after
  // every epoch): rotate the learned access set and start warming.
  if (tier_ != nullptr) tier_->epoch_mark();
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankState& state = ranks_[r];
    if (!state.at_barrier) continue;
    state.at_barrier = false;
    // The barrier completes as a plain barrier op, timed from its arrival.
    const auto rank = static_cast<std::int32_t>(r);
    engine_.schedule_after(SimTime::zero(), [this, rank] { complete_op(rank, true); });
  }
}

}  // namespace pio::driver
