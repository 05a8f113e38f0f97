#include "pfs/mds.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/check.hpp"

namespace pio::pfs {

const char* to_string(MetaOp op) {
  switch (op) {
    case MetaOp::kCreate: return "create";
    case MetaOp::kOpen: return "open";
    case MetaOp::kStat: return "stat";
    case MetaOp::kUnlink: return "unlink";
    case MetaOp::kMkdir: return "mkdir";
    case MetaOp::kReaddir: return "readdir";
    case MetaOp::kClose: return "close";
    case MetaOp::kRename: return "rename";
  }
  return "?";
}

MetadataServer::MetadataServer(sim::Engine& engine, const MdsConfig& config)
    : engine_(engine), config_(config),
      threads_(config.service_threads, [this](sim::Handle h) { granted(h); }) {
  // Root directory always exists.
  Inode root;
  root.is_dir = true;
  namespace_.emplace("/", root);
}

SimTime MetadataServer::standby_ready(SimTime now) const {
  const SimTime crashed = timeline_->down_since(component_id(), now);
  const auto cached = standby_ready_.find(crashed.ns());
  if (cached != standby_ready_.end()) return cached->second;
  // Crash detection plus journal replay; a primary that recovers faster
  // than the standby can replay bounds the stall either way.
  SimTime ready = crashed + config_.failover_detection +
                  config_.replay_per_entry * static_cast<std::int64_t>(journal_entries_);
  ready = std::min(ready, timeline_->down_until(component_id(), now));
  standby_ready_.emplace(crashed.ns(), ready);
  return ready;
}

bool MetadataServer::standby_active(SimTime t) const {
  return config_.standby_failover && timeline_ != nullptr &&
         timeline_->down(component_id(), t) && t >= standby_ready(t);
}

void MetadataServer::emit_span(const Request& req, MetaStatus status) const {
  engine_.emit({.layer = obs::Layer::kMds, .kind = static_cast<std::uint8_t>(req.op),
                .ok = status == MetaStatus::kOk, .start = req.enqueued, .end = engine_.now()});
}

void MetadataServer::reply(sim::Handle h, MetaResult result) {
  const std::function<void(MetaResult)> done = std::move(requests_[h].on_done);
  requests_[h].on_done = nullptr;
  requests_.release(h);
  if (done) done(std::move(result));
}

void MetadataServer::respond_error(sim::Handle h, MetaStatus status) {
  requests_[h].status = status;
  engine_.schedule_after(SimTime::zero(), [this, h] {
    const Request& req = requests_[h];
    ++stats_.ops_total;
    ++stats_.errors;
    emit_span(req, req.status);
    MetaResult result;
    result.status = req.status;
    reply(h, std::move(result));
  });
}

FileId MetadataServer::intern(std::string_view path) {
  const FileId file = names_.intern(path);
  if (file == inodes_.size()) {
    const auto it = namespace_.find(names_.path(file));
    inodes_.push_back(it == namespace_.end() ? nullptr : &it->second);
  }
  return file;
}

void MetadataServer::request(MetaOp op, FileId file, std::function<void(MetaResult)> on_done,
                             std::optional<StripeLayout> layout) {
  const std::string& path = names_.path(file);
  if (path.empty() || path.front() != '/') {
    throw std::invalid_argument("MetadataServer::request: path must be absolute");
  }
  const SimTime enqueued = engine_.now();
  ++stats_.requests;
  const sim::Handle h = requests_.acquire();
  Request& req = requests_[h];
  req.op = op;
  req.file = file;
  req.layout = layout;
  req.enqueued = enqueued;
  req.cost = SimTime::zero();
  req.on_done = std::move(on_done);

  // A request that arrives while the MDS is down either bounces at the door
  // (no standby: no thread consumed, no namespace mutation) or stalls until
  // the standby has detected the crash and replayed the journal.
  if (timeline_ != nullptr && timeline_->down(component_id(), enqueued)) {
    if (config_.standby_failover) {
      const SimTime ready = standby_ready(enqueued);
      stats_.standby_takeovers = standby_ready_.size();
      if (enqueued >= ready) {
        // Standby already serving: proceed as a normal request.
        enqueue(h);
        return;
      }
      ++stats_.failover_stalls;
      engine_.schedule_at(ready, [this, h] { enqueue(h); });
      return;
    }
    respond_error(h, MetaStatus::kUnavailable);
    return;
  }

  // Admission control (DESIGN.md §14): a metadata storm deep enough to back
  // up the thread pool past the bound is bounced at the door instead of
  // queueing without limit. The data path's retry machinery does not apply
  // here — a bounced meta op surfaces as a failed op, like kUnavailable.
  if (admission_.policy == AdmissionPolicy::kRejectAtDoor &&
      threads_.waiters() >= admission_.max_queue_depth) {
    ++stats_.overload_rejected;
    respond_error(h, MetaStatus::kOverloaded);
    return;
  }

  enqueue(h);
}

void MetadataServer::enqueue(sim::Handle h) {
  threads_.acquire(1, h);
}

void MetadataServer::granted(sim::Handle h) {
  // CoDel-style shed at grant: a request that waited past the sojourn
  // target is dropped before consuming service — its issuer has long
  // since concluded the MDS is overloaded. The sojourn histogram records
  // the queueing delay of served and shed requests alike.
  const SimTime waited = engine_.now() - requests_[h].enqueued;
  stats_.sojourn_us.add(static_cast<std::uint64_t>(waited.ns() / 1000));
  if (admission_.policy == AdmissionPolicy::kCodelShed && waited > admission_.shed_target) {
    threads_.release(1);
    ++stats_.shed_ops;
    respond_error(h, MetaStatus::kOverloaded);
    return;
  }
  // A slowdown (e.g. lock-contention storm) in effect at service start
  // stretches this op's cost by the active factor.
  Request& req = requests_[h];
  SimTime cost = cost_of(req.op, names_.path(req.file));
  if (timeline_ != nullptr) cost = timeline_->scaled(component_id(), engine_.now(), cost);
  req.cost = cost;
  engine_.schedule_after(cost, [this, h] { serviced(h); });
}

void MetadataServer::serviced(sim::Handle h) {
  const SimTime now = engine_.now();
  if (timeline_ != nullptr && timeline_->down(component_id(), now) && !standby_active(now)) {
    if (config_.standby_failover) {
      // Primary died mid-service. The client's RPC is replayed by the
      // standby once its journal replay finishes: a stall, not an error.
      const SimTime ready = standby_ready(now);
      stats_.standby_takeovers = standby_ready_.size();
      ++stats_.failover_stalls;
      engine_.schedule_at(ready, [this, h] { complete(h); });
      return;
    }
    // A crash that hit mid-service loses the op: its failure (and the
    // service thread it held) surfaces at recovery, never inside the down
    // interval (invariant F1), and the mutation is NOT applied.
    const SimTime recovery = timeline_->down_until(component_id(), now);
    engine_.schedule_at(recovery, [this, h] { lost(h); });
    return;
  }
  complete(h);
}

void MetadataServer::lost(sim::Handle h) {
  timeline_->check_handler_allowed(component_id(), engine_.now());
  const Request& req = requests_[h];
  ++stats_.ops_total;
  stats_.busy_time += req.cost;
  ++stats_.errors;
  emit_span(req, MetaStatus::kUnavailable);
  threads_.release(1);
  MetaResult result;
  result.status = MetaStatus::kUnavailable;
  reply(h, std::move(result));
}

void MetadataServer::complete(sim::Handle h) {
  const SimTime now = engine_.now();
  // F1 is judged per *service*: a handler inside a down interval is fine
  // when the standby has taken over and is the one serving.
  if (timeline_ != nullptr && !standby_active(now)) {
    timeline_->check_handler_allowed(component_id(), now);
  }
  const Request& req = requests_[h];
  MetaResult result = apply(req);
  ++stats_.ops_total;
  stats_.busy_time += req.cost;
  if (!result.ok()) ++stats_.errors;
  emit_span(req, result.status);
  threads_.release(1);
  reply(h, std::move(result));
}

bool MetadataServer::dir_exists(const std::string& path) const {
  const auto it = namespace_.find(path);
  return it != namespace_.end() && it->second.is_dir;
}

void MetadataServer::grow_file(FileId file, Bytes new_size, SimTime mtime) {
  if (Inode* inode = find_inode(file); inode != nullptr && !inode->is_dir) {
    inode->size = std::max(inode->size, new_size);
    inode->mtime = mtime;
  }
}

SimTime MetadataServer::cost_of(MetaOp op, const std::string& path) const {
  switch (op) {
    case MetaOp::kCreate: return config_.create_cost;
    case MetaOp::kOpen: return config_.open_cost;
    case MetaOp::kStat: return config_.stat_cost;
    case MetaOp::kUnlink: return config_.unlink_cost;
    case MetaOp::kMkdir: return config_.mkdir_cost;
    case MetaOp::kClose: return config_.close_cost;
    case MetaOp::kRename: return config_.rename_cost;
    case MetaOp::kReaddir: {
      // Per-entry cost is charged for the directory's current child count.
      std::uint64_t children = 0;
      const std::string prefix = path == "/" ? "/" : path + "/";
      for (auto it = namespace_.lower_bound(prefix);
           it != namespace_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
        ++children;
      }
      return config_.readdir_base_cost +
             config_.readdir_per_entry_cost * static_cast<std::int64_t>(children);
    }
  }
  return SimTime::zero();
}

std::string MetadataServer::parent_of(const std::string& path) {
  const auto pos = path.find_last_of('/');
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

MetaResult MetadataServer::apply(const Request& req) {
  const MetaOp op = req.op;
  const std::string& path = names_.path(req.file);
  MetaResult result;
  switch (op) {
    case MetaOp::kCreate: {
      if (find_inode(req.file) != nullptr) {
        result.status = MetaStatus::kExists;
        break;
      }
      if (!dir_exists(parent_of(path))) {
        result.status = MetaStatus::kNotFound;
        break;
      }
      Inode inode;
      inode.is_dir = false;
      inode.layout = req.layout.value_or(config_.default_layout);
      inode.ctime = inode.mtime = engine_.now();
      inodes_[req.file] = &namespace_.emplace(path, inode).first->second;
      result.inode = inode;
      break;
    }
    case MetaOp::kOpen:
    case MetaOp::kStat: {
      const Inode* inode = find_inode(req.file);
      if (inode == nullptr) {
        result.status = MetaStatus::kNotFound;
        break;
      }
      result.inode = *inode;
      break;
    }
    case MetaOp::kUnlink: {
      const auto it = namespace_.find(path);
      if (it == namespace_.end()) {
        result.status = MetaStatus::kNotFound;
        break;
      }
      if (it->second.is_dir) {
        // Directories must be empty.
        const std::string prefix = path + "/";
        const auto child = namespace_.lower_bound(prefix);
        if (child != namespace_.end() &&
            child->first.compare(0, prefix.size(), prefix) == 0) {
          result.status = MetaStatus::kNotEmpty;
          break;
        }
      }
      inodes_[req.file] = nullptr;
      namespace_.erase(it);
      break;
    }
    case MetaOp::kMkdir: {
      if (find_inode(req.file) != nullptr) {
        result.status = MetaStatus::kExists;
        break;
      }
      if (!dir_exists(parent_of(path))) {
        result.status = MetaStatus::kNotFound;
        break;
      }
      Inode inode;
      inode.is_dir = true;
      inode.ctime = inode.mtime = engine_.now();
      inodes_[req.file] = &namespace_.emplace(path, inode).first->second;
      result.inode = inode;
      break;
    }
    case MetaOp::kReaddir: {
      const Inode* dir = find_inode(req.file);
      if (dir == nullptr) {
        result.status = MetaStatus::kNotFound;
        break;
      }
      if (!dir->is_dir) {
        result.status = MetaStatus::kNotDir;
        break;
      }
      const std::string prefix = path == "/" ? "/" : path + "/";
      for (auto it = namespace_.lower_bound(prefix);
           it != namespace_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
        // Direct children only: no further '/' after the prefix.
        const std::string rest = it->first.substr(prefix.size());
        if (!rest.empty() && rest.find('/') == std::string::npos) {
          result.entries.push_back(it->first);
        }
      }
      break;
    }
    case MetaOp::kClose:
      // Close only charges time; the namespace is untouched.
      break;
    case MetaOp::kRename:
      // Rename is modelled as a cost-only op in this release (the bench
      // suite does not exercise cross-directory moves).
      if (find_inode(req.file) == nullptr) result.status = MetaStatus::kNotFound;
      break;
  }
  // Successful namespace mutations append to the journal the standby
  // replays on failover (reads and misses leave it untouched).
  if (result.ok() && (op == MetaOp::kCreate || op == MetaOp::kUnlink ||
                      op == MetaOp::kMkdir || op == MetaOp::kRename)) {
    ++journal_entries_;
  }
  return result;
}

}  // namespace pio::pfs
