// VecView<T>: the storage cell behind every histogram array — either an
// owning std::vector<T> or a borrowed read-only span into memory someone
// else keeps alive (a memory-mapped PWS3 synopsis file).
//
// The two modes sit behind one read-only, vector-like interface so the
// execution layer reads flat arrays without knowing where they live:
// const access (data/size/operator[]/begin/end) never allocates and is
// identical in both modes. A VecView is written once, when its synopsis is
// built or decoded: the writer fills a local std::vector and move-assigns
// it (or binds a view). There is no element-wise mutation, so a write
// through a VecView does not compile and a borrowed mapping is never
// copied or modified.
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

template <typename T>
class VecView {
 public:
  VecView() = default;
  VecView(std::vector<T> v) : own_(std::move(v)) {}  // NOLINT(runtime/explicit)

  // A copy of a borrow is another borrow; a copy of an owned vector owns.
  VecView(const VecView&) = default;
  VecView& operator=(const VecView&) = default;
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

  const T* data() const { return borrowed() ? view_ : own_.data(); }
  size_t size() const { return borrowed() ? view_size_ : own_.size(); }
  bool empty() const { return size() == 0; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size() - 1]; }
  operator std::span<const T>() const { return {data(), size()}; }

  void clear() {
    own_.clear();
    view_ = nullptr;
    view_size_ = 0;
  }

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
  std::vector<T> own_;
  const T* view_ = nullptr;  ///< non-null iff borrowed
  size_t view_size_ = 0;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_COMMON_VEC_VIEW_H_
