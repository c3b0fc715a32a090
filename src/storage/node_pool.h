// NodePool: fixed-size node allocator for the ordered indexes. Nodes are
// carved from 16 KiB chunks and recycled through an intrusive free list, so a
// B+tree split or an AVL insert on a warm tree costs no malloc, and a tree
// that churns (the NEW_ORDER insert-high/erase-min pattern) keeps a flat
// footprint. Chunks are only released when the pool is destroyed.
//
// Under AddressSanitizer a free-listed node is poisoned until it is handed
// out again, so a use-after-free of a recycled node still reports.
#ifndef PARTDB_STORAGE_NODE_POOL_H_
#define PARTDB_STORAGE_NODE_POOL_H_

#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARTDB_NODE_POOL_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PARTDB_NODE_POOL_ASAN 1
#endif

#ifdef PARTDB_NODE_POOL_ASAN
#include <sanitizer/asan_interface.h>
#define PARTDB_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define PARTDB_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define PARTDB_POOL_POISON(p, n) ((void)(p), (void)(n))
#define PARTDB_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace partdb {

template <typename T>
class NodePool {
  union Slot {
    Slot* next;  // while free-listed
    alignas(T) unsigned char storage[sizeof(T)];
  };
  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "chunks come from plain operator new");

 public:
  // Small enough that malloc serves and recycles chunks like any other
  // block: with 32 and 64 KiB chunks, glibc trimmed the heap when a loaded
  // TPC-C partition was freed, and reloading it page-faulted ~10k times.
  static constexpr size_t kChunkBytes = 16 * 1024;
  static constexpr size_t kSlotsPerChunk = std::max<size_t>(1, kChunkBytes / sizeof(Slot));

  NodePool() = default;
  ~NodePool() {
    for (Slot* chunk : chunks_) {
      PARTDB_POOL_UNPOISON(chunk, kSlotsPerChunk * sizeof(Slot));
      ::operator delete(chunk);
    }
  }
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  /// Constructs a T in a recycled slot, or in a fresh one carved from the
  /// current chunk (allocating a chunk only when that is used up).
  template <typename... Args>
  T* New(Args&&... args) {
    Slot* slot = free_;
    if (slot != nullptr) {
      PARTDB_POOL_UNPOISON(slot, sizeof(Slot));
      free_ = slot->next;
    } else {
      if (carved_ == kSlotsPerChunk) AddChunk();
      slot = chunks_.back() + carved_++;
      PARTDB_POOL_UNPOISON(slot, sizeof(Slot));
    }
    return ::new (static_cast<void*>(slot->storage)) T(std::forward<Args>(args)...);
  }

  /// Destroys `node` and puts its slot on the free list.
  void Delete(T* node) {
    node->~T();
    Slot* slot = reinterpret_cast<Slot*>(node);
    slot->next = free_;
    free_ = slot;
    PARTDB_POOL_POISON(slot, sizeof(Slot));
  }

  /// Bytes held in chunks (live plus free-listed nodes).
  size_t reserved_bytes() const { return chunks_.size() * kSlotsPerChunk * sizeof(Slot); }

 private:
  void AddChunk() {
    auto* chunk = static_cast<Slot*>(::operator new(kSlotsPerChunk * sizeof(Slot)));
    PARTDB_POOL_POISON(chunk, kSlotsPerChunk * sizeof(Slot));
    chunks_.push_back(chunk);
    carved_ = 0;
  }

  std::vector<Slot*> chunks_;
  size_t carved_ = kSlotsPerChunk;  // slots handed out from chunks_.back()
  Slot* free_ = nullptr;
};

}  // namespace partdb

#endif  // PARTDB_STORAGE_NODE_POOL_H_
