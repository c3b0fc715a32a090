// SmallVector: a vector of trivially copyable values with room for `N` of
// them inside the object. Routing facts (a transaction's participant list)
// are built, copied and shipped for every routed transaction; with the
// common sizes stored in place that path never touches the heap, and a
// longer list spills to one heap buffer.
#ifndef PARTDB_COMMON_SMALL_VECTOR_H_
#define PARTDB_COMMON_SMALL_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <vector>

namespace partdb {

template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>, "elements are copied bytewise");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  using size_type = size_t;

  SmallVector() = default;
  SmallVector(std::initializer_list<T> init) { Append(init.begin(), init.size()); }
  SmallVector(const SmallVector& o) { Append(o.data(), o.size()); }
  SmallVector(SmallVector&& o) noexcept { Steal(o); }
  SmallVector& operator=(const SmallVector& o) {
    if (this != &o) {
      size_ = 0;
      Append(o.data(), o.size());
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& o) noexcept {
    if (this != &o) Steal(o);
    return *this;
  }
  ~SmallVector() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return heap_ ? heap_.get() : inline_; }
  const T* data() const { return heap_ ? heap_.get() : inline_; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }

  void clear() { size_ = 0; }
  void push_back(const T& v) {
    if (size_ == capacity_) Grow(size_ + 1);
    data()[size_++] = v;
  }

 private:
  void Append(const T* src, size_t n) {
    if (size_ + n > capacity_) Grow(size_ + n);
    std::copy_n(src, n, data() + size_);
    size_ += static_cast<uint32_t>(n);
  }
  void Grow(size_t need) {
    const size_t cap = std::max<size_t>(need, 2 * size_t{capacity_});
    std::unique_ptr<T[]> bigger(new T[cap]);
    std::copy_n(data(), size_, bigger.get());
    heap_ = std::move(bigger);
    capacity_ = static_cast<uint32_t>(cap);
  }
  /// Takes `o`'s heap buffer (or copies its inline elements) and leaves it
  /// empty.
  void Steal(SmallVector& o) {
    if (o.heap_) {
      heap_ = std::move(o.heap_);
      capacity_ = o.capacity_;
      size_ = o.size_;
    } else {
      size_ = 0;
      Append(o.inline_, o.size_);
    }
    o.capacity_ = N;
    o.size_ = 0;
  }

  T inline_[N] = {};
  std::unique_ptr<T[]> heap_;  // null while the elements fit in inline_
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
};

template <typename T, size_t N>
bool operator==(const SmallVector<T, N>& a, const SmallVector<T, N>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

template <typename T, size_t N>
bool operator==(const SmallVector<T, N>& a, const std::vector<T>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace partdb

#endif  // PARTDB_COMMON_SMALL_VECTOR_H_
