// PIOEval observability: the one record every layer of the simulated stack
// reports through.
//
// §IV.A.2's server-side monitoring lens is a set of per-server load time
// series. Every layer feeds it the same trivially copyable `Span` — an OST
// op, an MDS op, a client resilience event or a cache event — through the
// one sink its engine holds (sim::Engine::set_span_sink), as Recorder keeps
// one record format across the HDF5, MPI-IO and POSIX layers. A span holds
// only what a consumer reads; a point event has start == end. Emitting
// with no sink set costs one branch. A span is not a counter: each layer
// bumps its own stats where it emits (a client resilience event through
// PfsModel::note and the pfs::kResilienceKinds table), and a sink counts
// client and cache spans per kind by the kind's value.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/types.hpp"

namespace pio::obs {

/// The layer a span comes from; it names the enum `Span::kind` holds.
enum class Layer : std::uint8_t {
  kOst,     ///< kind: DataKind; component: OST index
  kMds,     ///< kind: pfs::MetaOp
  kClient,  ///< kind: pfs::ResilienceEventKind; component: OST involved
  kCache,   ///< kind: cache::CacheEventKind; component: rank
};

/// Span kind of an OST op.
enum class DataKind : std::uint8_t { kRead, kWrite };

struct Span {
  Layer layer = Layer::kOst;
  std::uint8_t kind = 0;  ///< the layer's own event enum, as its underlying value
  bool ok = true;         ///< false: rejected, shed, interrupted or an error status
  std::uint32_t component = 0;
  SimTime start = SimTime::zero();
  SimTime end = SimTime::zero();
  Bytes bytes = Bytes::zero();
  std::uint64_t queue_depth = 0;  ///< server queue depth at enqueue (OST)
};

static_assert(std::is_trivially_copyable_v<Span>);
static_assert(sizeof(Span) <= 48);

}  // namespace pio::obs
