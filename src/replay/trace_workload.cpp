#include "replay/trace_workload.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace pio::replay {

namespace {

using workload::Op;

}  // namespace

std::unique_ptr<workload::Workload> workload_from_trace(const trace::Trace& trace,
                                                        const TraceReplayConfig& config) {
  // The chosen layer's events in Trace::sort_by_time order: a stable sort of
  // their indices, so no event is copied.
  const std::vector<trace::TraceEvent>& events = trace.events();
  std::vector<std::size_t> order;
  std::set<std::int32_t> ranks;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].layer != config.layer) continue;
    order.push_back(i);
    ranks.insert(events[i].rank);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return trace::time_order(events[a], events[b]);
  });

  // Dense rank numbering.
  std::map<std::int32_t, std::size_t> rank_slot;
  for (const std::int32_t rank : ranks) rank_slot.emplace(rank, rank_slot.size());
  std::vector<std::vector<Op>> per_rank(std::max<std::size_t>(ranks.size(), 1));
  std::vector<SimTime> last_end(per_rank.size(), SimTime::zero());
  std::vector<bool> saw_op(per_rank.size(), false);
  PathTable paths;
  // Which file is first opened by whom (global order): that open becomes a
  // create; every later open stays an open.
  std::vector<bool> created;
  const auto first_use = [&](FileId file) {
    if (file >= created.size()) created.resize(file + 1, false);
    if (created[file]) return false;
    created[file] = true;
    return true;
  };

  for (const std::size_t i : order) {
    const trace::TraceEvent& e = events[i];
    const std::size_t slot = rank_slot.at(e.rank);
    auto& ops = per_rank[slot];
    if (config.preserve_think_time && saw_op[slot]) {
      const SimTime gap = e.start - last_end[slot];
      if (gap >= config.min_think_time) ops.push_back(Op::compute(gap));
    }
    saw_op[slot] = true;
    last_end[slot] = std::max(last_end[slot], e.end);
    if (e.op == trace::OpKind::kSync) {
      ops.push_back(Op::barrier());
      continue;
    }
    if (e.op == trace::OpKind::kOther) continue;  // untranslatable
    const FileId file = paths.intern(e.path);
    switch (e.op) {
      case trace::OpKind::kOpen:
        ops.push_back(first_use(file) ? Op::create(file) : Op::open(file));
        break;
      case trace::OpKind::kClose: ops.push_back(Op::close(file)); break;
      case trace::OpKind::kRead: ops.push_back(Op::read(file, e.offset, Bytes{e.size})); break;
      case trace::OpKind::kWrite:
        // A write to a never-opened path (e.g. from a filtered trace) still
        // needs the file to exist at replay time.
        if (first_use(file)) ops.push_back(Op::create(file));
        ops.push_back(Op::write(file, e.offset, Bytes{e.size}));
        break;
      case trace::OpKind::kStat: ops.push_back(Op::stat(file)); break;
      case trace::OpKind::kMkdir: ops.push_back(Op::mkdir(file)); break;
      case trace::OpKind::kUnlink: ops.push_back(Op::unlink(file)); break;
      case trace::OpKind::kReaddir: ops.push_back(Op::readdir(file)); break;
      case trace::OpKind::kFsync: ops.push_back(Op::fsync(file)); break;
      case trace::OpKind::kSync:
      case trace::OpKind::kOther: break;
    }
  }
  return std::make_unique<workload::Workload>("replay", std::move(paths), std::move(per_rank));
}

}  // namespace pio::replay
