// AVL binary search tree. The paper represents some TPC-C tables as binary
// trees; we use this for the NEW_ORDER index, whose workload (insert at the
// high end, delete-min per district) exercises rotations heavily. Nodes come
// from a NodePool, so that churn recycles nodes instead of calling malloc.
#ifndef PARTDB_STORAGE_AVL_TREE_H_
#define PARTDB_STORAGE_AVL_TREE_H_

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "engine/work_meter.h"
#include "storage/node_pool.h"

namespace partdb {

template <typename K, typename V>
class AvlTree {
  struct Node {
    K key;
    V value;
    Node* left = nullptr;
    Node* right = nullptr;
    int height = 1;
    Node(K k, V v) : key(std::move(k)), value(std::move(v)) {}
  };

 public:
  AvlTree() = default;
  ~AvlTree() { FreeRec(root_); }
  AvlTree(const AvlTree&) = delete;
  AvlTree& operator=(const AvlTree&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Removes every entry (checkpoint restore rebuilds from scratch). The
  /// nodes go back to the pool for the rebuild to reuse.
  void Clear() {
    FreeRec(root_);
    root_ = nullptr;
    size_ = 0;
  }

  /// Bytes the node pool holds (live and recycled nodes).
  size_t reserved_bytes() const { return nodes_.reserved_bytes(); }

  V* Find(const K& key, WorkMeter* m = nullptr) {
    Node* n = root_;
    while (n != nullptr) {
      Visit(m);
      if (key < n->key) {
        n = n->left;
      } else if (n->key < key) {
        n = n->right;
      } else {
        return &n->value;
      }
    }
    return nullptr;
  }
  const V* Find(const K& key, WorkMeter* m = nullptr) const {
    return const_cast<AvlTree*>(this)->Find(key, m);
  }

  /// Smallest key >= `key`; returns false if none. Outputs are optional.
  bool LowerBound(const K& key, K* out_key, V** out_value, WorkMeter* m = nullptr) {
    Node* n = root_;
    Node* best = nullptr;
    while (n != nullptr) {
      Visit(m);
      if (n->key < key) {
        n = n->right;
      } else {
        best = n;
        n = n->left;
      }
    }
    if (best == nullptr) return false;
    if (out_key != nullptr) *out_key = best->key;
    if (out_value != nullptr) *out_value = &best->value;
    return true;
  }

  /// Inserts (key, value); returns false if the key exists (unchanged).
  bool Insert(const K& key, V value, WorkMeter* m = nullptr) {
    bool inserted = false;
    root_ = InsertRec(root_, key, std::move(value), &inserted, m);
    if (inserted) ++size_;
    return inserted;
  }

  /// Removes `key`; returns true if it was present.
  bool Erase(const K& key, WorkMeter* m = nullptr) {
    bool erased = false;
    root_ = EraseRec(root_, key, &erased, m);
    if (erased) --size_;
    return erased;
  }

  /// In-order traversal: fn(key, value&).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachRec(root_, fn);
  }

  /// Invariant check for tests: BST order, AVL balance, heights, size.
  bool Validate() const {
    size_t counted = 0;
    const K* prev = nullptr;
    return ValidateRec(root_, &prev, &counted) >= 0 && counted == size_;
  }

 private:
  static void Visit(WorkMeter* m) {
    if (m != nullptr) m->index_nodes++;
  }
  static int Height(Node* n) { return n == nullptr ? 0 : n->height; }
  static void Update(Node* n) { n->height = 1 + std::max(Height(n->left), Height(n->right)); }
  static int Balance(Node* n) { return Height(n->left) - Height(n->right); }

  static Node* RotateRight(Node* y) {
    Node* x = y->left;
    y->left = x->right;
    x->right = y;
    Update(y);
    Update(x);
    return x;
  }
  static Node* RotateLeft(Node* x) {
    Node* y = x->right;
    x->right = y->left;
    y->left = x;
    Update(x);
    Update(y);
    return y;
  }

  static Node* Rebalance(Node* n) {
    Update(n);
    const int b = Balance(n);
    if (b > 1) {
      if (Balance(n->left) < 0) n->left = RotateLeft(n->left);
      return RotateRight(n);
    }
    if (b < -1) {
      if (Balance(n->right) > 0) n->right = RotateRight(n->right);
      return RotateLeft(n);
    }
    return n;
  }

  Node* InsertRec(Node* n, const K& key, V&& value, bool* inserted, WorkMeter* m) {
    if (n == nullptr) {
      *inserted = true;
      Visit(m);
      return nodes_.New(key, std::move(value));
    }
    Visit(m);
    if (key < n->key) {
      n->left = InsertRec(n->left, key, std::move(value), inserted, m);
    } else if (n->key < key) {
      n->right = InsertRec(n->right, key, std::move(value), inserted, m);
    } else {
      return n;  // duplicate
    }
    return Rebalance(n);
  }

  Node* EraseRec(Node* n, const K& key, bool* erased, WorkMeter* m) {
    if (n == nullptr) return nullptr;
    Visit(m);
    if (key < n->key) {
      n->left = EraseRec(n->left, key, erased, m);
    } else if (n->key < key) {
      n->right = EraseRec(n->right, key, erased, m);
    } else {
      *erased = true;
      if (n->left == nullptr || n->right == nullptr) {
        Node* child = n->left != nullptr ? n->left : n->right;
        nodes_.Delete(n);
        return child;  // may be nullptr
      }
      // Two children: replace with in-order successor.
      Node* succ = n->right;
      while (succ->left != nullptr) {
        Visit(m);
        succ = succ->left;
      }
      n->key = succ->key;
      n->value = std::move(succ->value);
      bool dummy = false;
      n->right = EraseRec(n->right, n->key, &dummy, m);
    }
    return Rebalance(n);
  }

  void FreeRec(Node* n) {
    if (n == nullptr) return;
    FreeRec(n->left);
    FreeRec(n->right);
    nodes_.Delete(n);
  }

  template <typename Fn>
  static void ForEachRec(Node* n, Fn& fn) {
    if (n == nullptr) return;
    ForEachRec(n->left, fn);
    fn(n->key, n->value);
    ForEachRec(n->right, fn);
  }

  // Returns height, or -1 on violation.
  int ValidateRec(Node* n, const K** prev, size_t* counted) const {
    if (n == nullptr) return 0;
    const int lh = ValidateRec(n->left, prev, counted);
    if (lh < 0) return -1;
    if (*prev != nullptr && !(**prev < n->key)) return -1;
    *prev = &n->key;
    ++*counted;
    const int rh = ValidateRec(n->right, prev, counted);
    if (rh < 0) return -1;
    if (std::abs(lh - rh) > 1) return -1;
    if (n->height != 1 + std::max(lh, rh)) return -1;
    return 1 + std::max(lh, rh);
  }

  NodePool<Node> nodes_;
  Node* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace partdb

#endif  // PARTDB_STORAGE_AVL_TREE_H_
