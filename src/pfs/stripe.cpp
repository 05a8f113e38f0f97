#include "pfs/stripe.hpp"

#include <algorithm>
#include <stdexcept>

namespace pio::pfs {

namespace {

void validate(const StripeLayout& layout, std::uint32_t total_osts) {
  if (layout.stripe_size == Bytes::zero()) throw std::invalid_argument("stripe_size == 0");
  if (layout.stripe_count == 0) throw std::invalid_argument("stripe_count == 0");
  if (total_osts == 0) throw std::invalid_argument("total_osts == 0");
  if (layout.stripe_count > total_osts) {
    throw std::invalid_argument("stripe_count exceeds OST pool");
  }
  if (layout.replicas == 0) throw std::invalid_argument("replicas == 0");
  if (layout.replicas > total_osts) {
    throw std::invalid_argument("replicas exceeds OST pool");
  }
}

}  // namespace

std::vector<StripeChunk> decompose(const StripeLayout& layout, std::uint32_t total_osts,
                                   std::uint64_t offset, Bytes size) {
  std::vector<StripeChunk> chunks;
  decompose(layout, total_osts, offset, size, chunks);
  return chunks;
}

void decompose(const StripeLayout& layout, std::uint32_t total_osts, std::uint64_t offset,
               Bytes size, std::vector<StripeChunk>& chunks) {
  validate(layout, total_osts);
  chunks.clear();
  const std::uint64_t ss = layout.stripe_size.count();
  std::uint64_t cur = offset;
  std::uint64_t remaining = size.count();
  while (remaining > 0) {
    const std::uint64_t stripe_index = cur / ss;             // global stripe number
    const std::uint64_t within = cur % ss;                   // offset inside the stripe
    const std::uint64_t run = std::min(remaining, ss - within);
    const auto lane = static_cast<std::uint32_t>(stripe_index % layout.stripe_count);
    const OstIndex ost = (layout.first_ost + lane) % total_osts;
    // Object offset: each full cycle of stripe_count stripes adds one
    // stripe_size to every lane's object.
    const std::uint64_t cycle = stripe_index / layout.stripe_count;
    const std::uint64_t object_offset = cycle * ss + within;
    chunks.push_back(StripeChunk{ost, object_offset, Bytes{run}, cur});
    cur += run;
    remaining -= run;
  }
}

OstIndex ost_for_offset(const StripeLayout& layout, std::uint32_t total_osts,
                        std::uint64_t offset) {
  validate(layout, total_osts);
  const std::uint64_t stripe_index = offset / layout.stripe_size.count();
  const auto lane = static_cast<std::uint32_t>(stripe_index % layout.stripe_count);
  return (layout.first_ost + lane) % total_osts;
}

}  // namespace pio::pfs
