#include "sim/arena.hpp"

namespace pio::sim::detail {

namespace {

/// Smallest size class whose payload area holds `bytes`, or kClasses if
/// `bytes` exceeds the largest class.
int class_for(std::size_t bytes) {
  for (int c = 0; c < OversizeSlab::kClasses; ++c) {
    if (bytes <= OversizeSlab::class_payload_bytes(c)) return c;
  }
  return OversizeSlab::kClasses;
}

PayloadHeader* header_of(void* payload) noexcept {
  return reinterpret_cast<PayloadHeader*>(static_cast<unsigned char*>(payload) -
                                          kPayloadHeaderBytes);
}

void* payload_of(PayloadHeader* header) noexcept {
  return reinterpret_cast<unsigned char*>(header) + kPayloadHeaderBytes;
}

/// Header + payload from the plain heap, ownerless so release_payload frees
/// it with operator delete.
void* plain_heap_allocate(std::size_t bytes) {
  auto* raw = static_cast<unsigned char*>(::operator new(kPayloadHeaderBytes + bytes));
  auto* header = reinterpret_cast<PayloadHeader*>(raw);
  header->owner = nullptr;
  header->size_class = 0;
  header->next_free = nullptr;
  return payload_of(header);
}

}  // namespace

OversizeSlab::~OversizeSlab() {
  for (PayloadHeader* list : free_lists_) {
    while (list != nullptr) {
      PayloadHeader* next = list->next_free;
      ::operator delete(static_cast<void*>(list));
      list = next;
    }
  }
}

void* OversizeSlab::allocate(std::size_t bytes) {
  const int size_class = class_for(bytes);
  if (size_class == kClasses) return plain_heap_allocate(bytes);
  if (PayloadHeader* header = free_lists_[size_class]; header != nullptr) {
    free_lists_[size_class] = header->next_free;
    header->next_free = nullptr;
    return payload_of(header);
  }
  auto* raw = static_cast<unsigned char*>(
      ::operator new(kPayloadHeaderBytes + class_payload_bytes(size_class)));
  auto* header = reinterpret_cast<PayloadHeader*>(raw);
  header->owner = this;
  header->size_class = static_cast<std::uint32_t>(size_class);
  header->next_free = nullptr;
  return payload_of(header);
}

void release_payload(void* payload) noexcept {
  PayloadHeader* header = header_of(payload);
  OversizeSlab* slab = header->owner;
  if (slab == nullptr) {
    ::operator delete(static_cast<void*>(header));
    return;
  }
  header->next_free = slab->free_lists_[header->size_class];
  slab->free_lists_[header->size_class] = header;
}

}  // namespace pio::sim::detail
