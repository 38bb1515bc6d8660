// Flat (open-addressing / inline) replacements for node-based containers
// on the protocol hot path.
//
// std::unordered_map and std::set allocate a node per element; the txn
// tables, lock indexes, and per-txn participant sets churn entries at
// transaction rate, which made node allocation the single largest cost in
// the storm bench.  These containers keep their storage in one flat slab
// (or inline), so steady-state insert/erase cycles allocate nothing once
// the table has grown to its working size:
//
//   * FlatMap / FlatSet — linear-probing open addressing with backward-
//     shift deletion (no tombstones, so load factor never degrades).
//     Iteration order is unspecified, like unordered_map; code that needs
//     an order sorts keys at the (cold) dump site.  Differential tests
//     (tests/core/flat_differential_test.cc) drive these against the
//     std containers they replace.
//   * SmallVec — a vector with inline storage for the common small case
//     (a txn's lock set, a participant list).  Restricted to trivially
//     copyable types, which is all the hot path needs and keeps
//     relocation a memcpy.
//
// Erasing during for_each is not supported (backward shift moves elements
// under the iteration); callsites collect keys first, as the previous
// unordered_map code already did for rehash safety.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/check.h"

namespace opc {

/// Mixing hash for integer-like keys.  Sequential txn/object ids are the
/// common case; splitmix64's finalizer spreads them across the table so
/// linear probing does not cluster.
struct FlatHash {
  [[nodiscard]] std::size_t operator()(std::uint64_t x) const {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Open-addressing hash map from a trivially copyable key (anything
/// convertible to/from its stored form by value) to V.  V may own heap
/// state; it is moved on rehash and backward shift.
template <class K, class V, class Hash = FlatHash>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<K>);

 public:
  FlatMap() = default;
  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;
  FlatMap(FlatMap&& o) noexcept { swap(o); }
  FlatMap& operator=(FlatMap&& o) noexcept {
    if (this != &o) {
      destroy();
      swap(o);
    }
    return *this;
  }
  ~FlatMap() { destroy(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void reserve(std::size_t n) {
    std::size_t want = 8;
    while (want * 3 < n * 4) want *= 2;  // keep load factor under 3/4
    if (want > cap_) rehash(want);
  }

  [[nodiscard]] V* find(const K& key) {
    if (cap_ == 0) return nullptr;
    const std::size_t i = probe(key);
    return full_[i] ? &slots_[i].val : nullptr;
  }
  [[nodiscard]] const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != nullptr;
  }

  /// Inserts default-or-given value if absent; returns (slot, inserted).
  template <class... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    grow_if_needed();
    const std::size_t i = probe(key);
    if (full_[i]) return {&slots_[i].val, false};
    ::new (&slots_[i].key) K(key);
    ::new (&slots_[i].val) V(std::forward<Args>(args)...);
    full_[i] = true;
    ++size_;
    return {&slots_[i].val, true};
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  bool erase(const K& key) {
    if (cap_ == 0) return false;
    std::size_t i = probe(key);
    if (!full_[i]) return false;
    slots_[i].key.~K();
    slots_[i].val.~V();
    full_[i] = false;
    --size_;
    // Backward shift: walk the probe chain after i and move back any
    // element whose ideal slot does not lie strictly after the hole.
    std::size_t hole = i;
    std::size_t j = i;
    while (true) {
      j = (j + 1) & (cap_ - 1);
      if (!full_[j]) break;
      const std::size_t ideal = Hash{}(key_of(j)) & (cap_ - 1);
      // Distance from ideal to j vs. hole to j (cyclic): if the element
      // could legally sit in the hole, move it back.
      if (((j - ideal) & (cap_ - 1)) >= ((j - hole) & (cap_ - 1))) {
        relocate(hole, j);
        hole = j;
      }
    }
    return true;
  }

  void clear() {
    if (cap_ == 0) return;
    for (std::size_t i = 0; i < cap_; ++i) {
      if (full_[i]) {
        slots_[i].key.~K();
        slots_[i].val.~V();
        full_[i] = false;
      }
    }
    size_ = 0;
  }

  /// Visits every (key, value).  Do not insert or erase from `fn`.
  template <class F>
  void for_each(F&& fn) {
    for (std::size_t i = 0; i < cap_; ++i) {
      if (full_[i]) fn(slots_[i].key, slots_[i].val);
    }
  }
  template <class F>
  void for_each(F&& fn) const {
    for (std::size_t i = 0; i < cap_; ++i) {
      if (full_[i]) fn(slots_[i].key, slots_[i].val);
    }
  }

 private:
  struct Slot {
    union {
      K key;
    };
    union {
      V val;
    };
    Slot() {}            // NOLINT: members constructed in place
    ~Slot() {}           // NOLINT: destruction handled by the map
  };

  [[nodiscard]] K key_of(std::size_t i) const { return slots_[i].key; }

  // Returns the slot holding `key`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(const K& key) const {
    std::size_t i = Hash{}(key) & (cap_ - 1);
    while (full_[i] && !(slots_[i].key == key)) i = (i + 1) & (cap_ - 1);
    return i;
  }

  void relocate(std::size_t dst, std::size_t src) {
    ::new (&slots_[dst].key) K(slots_[src].key);
    ::new (&slots_[dst].val) V(std::move(slots_[src].val));
    slots_[src].key.~K();
    slots_[src].val.~V();
    full_[dst] = true;
    full_[src] = false;
  }

  void grow_if_needed() {
    if (cap_ == 0) {
      rehash(8);
    } else if ((size_ + 1) * 4 > cap_ * 3) {
      rehash(cap_ * 2);
    }
  }

  void rehash(std::size_t new_cap) {
    SIM_CHECK((new_cap & (new_cap - 1)) == 0);
    std::unique_ptr<Slot[]> old_slots = std::move(slots_storage_);
    std::unique_ptr<bool[]> old_full = std::move(full_storage_);
    const std::size_t old_cap = cap_;

    slots_storage_ = std::make_unique<Slot[]>(new_cap);
    full_storage_ = std::make_unique<bool[]>(new_cap);
    slots_ = slots_storage_.get();
    full_ = full_storage_.get();
    cap_ = new_cap;
    size_ = 0;

    for (std::size_t i = 0; i < old_cap; ++i) {
      if (!old_full[i]) continue;
      const std::size_t j = probe(old_slots[i].key);
      ::new (&slots_[j].key) K(old_slots[i].key);
      ::new (&slots_[j].val) V(std::move(old_slots[i].val));
      full_[j] = true;
      ++size_;
      old_slots[i].key.~K();
      old_slots[i].val.~V();
    }
  }

  void destroy() {
    clear();
    slots_storage_.reset();
    full_storage_.reset();
    slots_ = nullptr;
    full_ = nullptr;
    cap_ = 0;
  }

  void swap(FlatMap& o) {
    std::swap(slots_storage_, o.slots_storage_);
    std::swap(full_storage_, o.full_storage_);
    std::swap(slots_, o.slots_);
    std::swap(full_, o.full_);
    std::swap(cap_, o.cap_);
    std::swap(size_, o.size_);
  }

  std::unique_ptr<Slot[]> slots_storage_;
  std::unique_ptr<bool[]> full_storage_;
  Slot* slots_ = nullptr;
  bool* full_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

/// Open-addressing set over a trivially copyable key.
template <class K, class Hash = FlatHash>
class FlatSet {
 public:
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  void reserve(std::size_t n) { map_.reserve(n); }
  [[nodiscard]] bool contains(const K& k) const { return map_.contains(k); }
  bool insert(const K& k) { return map_.try_emplace(k).second; }
  bool erase(const K& k) { return map_.erase(k); }
  void clear() { map_.clear(); }
  template <class F>
  void for_each(F&& fn) const {
    map_.for_each([&fn](const K& k, const Empty&) { fn(k); });
  }

 private:
  struct Empty {};
  FlatMap<K, Empty, Hash> map_;
};

/// Vector with inline storage for the first N elements.  Restricted to
/// trivially copyable element types (ids, small PODs) so growth and move
/// are memcpys and destruction is free.
template <class T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  SmallVec() = default;
  SmallVec(const SmallVec& o) { assign_from(o); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      size_ = 0;
      assign_from(o);
    }
    return *this;
  }
  SmallVec(SmallVec&& o) noexcept { take(o); }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      release_heap();
      take(o);
    }
    return *this;
  }
  ~SmallVec() { release_heap(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }

  void clear() { size_ = 0; }  // capacity (inline or heap) is retained

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    data_[size_++] = v;
  }

  /// Appends iff absent; returns true when added.  The linear scan is the
  /// right tool at participant-set sizes (≤ a handful of nodes).
  bool insert_unique(const T& v) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (data_[i] == v) return false;
    }
    push_back(v);
    return true;
  }

  [[nodiscard]] bool contains(const T& v) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (data_[i] == v) return true;
    }
    return false;
  }

  /// Removes the first occurrence, preserving order of the rest.
  bool erase_value(const T& v) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (data_[i] == v) {
        std::memmove(data_ + i, data_ + i + 1,
                     (size_ - i - 1) * sizeof(T));
        --size_;
        return true;
      }
    }
    return false;
  }

 private:
  void grow() {
    const std::size_t new_cap = cap_ * 2;
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    std::memcpy(fresh, data_, size_ * sizeof(T));
    release_heap();
    data_ = fresh;
    cap_ = new_cap;
  }

  void release_heap() {
    if (data_ != inline_ptr()) ::operator delete(data_);
  }

  void assign_from(const SmallVec& o) {
    if (o.size_ > cap_) {
      release_heap();
      data_ = static_cast<T*>(::operator new(o.cap_ * sizeof(T)));
      cap_ = o.cap_;
    }
    std::memcpy(data_, o.data_, o.size_ * sizeof(T));
    size_ = o.size_;
  }

  void take(SmallVec& o) {
    if (o.data_ == o.inline_ptr()) {
      data_ = inline_ptr();
      cap_ = N;
      std::memcpy(data_, o.data_, o.size_ * sizeof(T));
    } else {
      data_ = o.data_;
      cap_ = o.cap_;
      o.data_ = o.inline_ptr();
      o.cap_ = N;
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  [[nodiscard]] T* inline_ptr() {
    return std::launder(reinterpret_cast<T*>(inline_buf_));
  }
  [[nodiscard]] const T* inline_ptr() const {
    return std::launder(reinterpret_cast<const T*>(inline_buf_));
  }

  alignas(T) unsigned char inline_buf_[N * sizeof(T)];
  T* data_ = inline_ptr();
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace opc
