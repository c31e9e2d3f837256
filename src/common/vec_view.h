// VecView<T>: the storage cell behind every histogram array — either an
// owning std::vector<T> or a borrowed read-only span into memory someone
// else keeps alive (a memory-mapped PWS3 synopsis file).
//
// The two modes sit behind one vector-like interface so the execution
// layer reads flat arrays without knowing where they live:
//  - const access (data/size/operator[]/begin/end) never allocates and is
//    identical in both modes;
//  - any mutating call (resize, assign, push_back, non-const operator[],
//    mut_data, vec) first *promotes* a borrowed view to a private owned
//    copy — copy-on-write, so a caller can copy a mapped synopsis and
//    update the copy (PairwiseHist::Update) without touching the mapping,
//    paying for each array copy only when it is first written.
//
// Lifetime: a borrowed VecView does NOT keep its backing memory alive.
// The object that binds views (SynopsisSet's PWS3 open path) must hold the
// mapping (see PairwiseHist's backing handle) for as long as any borrowed
// view can be read.
#ifndef PAIRWISEHIST_COMMON_VEC_VIEW_H_
#define PAIRWISEHIST_COMMON_VEC_VIEW_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace pairwisehist {

namespace internal {
/// Called once per borrowed→owned promotion, BEFORE the bytes are copied,
/// with the borrowed source range. The PWS3 integrity layer installs a
/// hook here that checksum-verifies the mapped blocks a copy-on-write
/// promotion reads from; with no hook installed this is one relaxed
/// atomic load. Defined in vec_view.cc.
void NotifyVecViewPromotion(const void* data, size_t bytes);
using VecViewPromotionHook = void (*)(const void* data, size_t bytes);
void SetVecViewPromotionHook(VecViewPromotionHook hook);
}  // namespace internal

template <typename T>
class VecView {
 public:
  VecView() = default;
  VecView(std::vector<T> v) : own_(std::move(v)) {}  // NOLINT(runtime/explicit)

  VecView(const VecView& o) { *this = o; }
  VecView& operator=(const VecView& o) {
    if (this == &o) return *this;
    own_ = o.own_;
    view_ = o.view_;  // a copy of a borrow is another borrow
    view_size_ = o.view_size_;
    return *this;
  }
  VecView(VecView&& o) noexcept { *this = std::move(o); }
  VecView& operator=(VecView&& o) noexcept {
    if (this == &o) return *this;
    own_ = std::move(o.own_);
    view_ = o.view_;
    view_size_ = o.view_size_;
    o.own_.clear();
    o.view_ = nullptr;
    o.view_size_ = 0;
    return *this;
  }

  VecView& operator=(std::vector<T> v) {
    own_ = std::move(v);
    view_ = nullptr;
    view_size_ = 0;
    return *this;
  }

  /// Borrows [data, data + n) without copying. The caller guarantees the
  /// memory outlives every read through this view.
  void BindView(const T* data, size_t n) {
    own_.clear();
    own_.shrink_to_fit();
    view_ = data;
    view_size_ = n;
  }

  bool borrowed() const { return view_ != nullptr; }

  // ---- Const access (no allocation, identical in both modes) ------------
  const T* data() const { return borrowed() ? view_ : own_.data(); }
  size_t size() const { return borrowed() ? view_size_ : own_.size(); }
  bool empty() const { return size() == 0; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size() - 1]; }
  operator std::span<const T>() const { return {data(), size()}; }

  // ---- Mutation (promotes a borrow to an owned copy first) --------------
  T& operator[](size_t i) { return EnsureOwned()[i]; }
  T* mut_data() { return EnsureOwned().data(); }
  T* begin_mut() { return mut_data(); }
  void resize(size_t n) { EnsureOwned().resize(n); }
  void resize(size_t n, const T& v) { EnsureOwned().resize(n, v); }
  void assign(size_t n, const T& v) { EnsureOwned().assign(n, v); }
  template <typename It>
  void assign(It first, It last) {
    EnsureOwned().assign(first, last);
  }
  void push_back(const T& v) { EnsureOwned().push_back(v); }
  void reserve(size_t n) { EnsureOwned().reserve(n); }
  void clear() {
    own_.clear();
    view_ = nullptr;
    view_size_ = 0;
  }
  /// The underlying owned vector (promoting if borrowed), for bulk ops.
  std::vector<T>& vec() { return EnsureOwned(); }

  /// Element-wise equality, mode-agnostic (a borrow equals an owned copy).
  friend bool operator==(const VecView& a, const VecView& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const VecView& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<T>& a, const VecView& b) {
    return b == a;
  }

 private:
  std::vector<T>& EnsureOwned() {
    if (borrowed()) {
      internal::NotifyVecViewPromotion(view_, view_size_ * sizeof(T));
      own_.assign(view_, view_ + view_size_);
      view_ = nullptr;
      view_size_ = 0;
    }
    return own_;
  }

  std::vector<T> own_;
  const T* view_ = nullptr;  ///< non-null iff borrowed
  size_t view_size_ = 0;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_COMMON_VEC_VIEW_H_
