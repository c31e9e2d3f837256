#include "storage/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace pairwisehist {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path +
                          "' failed: " + std::strerror(errno));
}

/// fsyncs the directory containing `path` so a rename inside it is durable.
Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open-for-fsync dir", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync dir", dir);
  return Status::OK();
}

}  // namespace

StatusOr<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("MappedFile: '" + path + "' does not exist");
    }
    return Errno("MappedFile: open", path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("MappedFile: fstat", path);
  }
  MappedFile out;
  out.size_ = static_cast<size_t>(st.st_size);
  out.path_ = path;
  if (out.size_ > 0) {
    void* base = ::mmap(nullptr, out.size_, PROT_READ, MAP_SHARED, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      return Errno("MappedFile: mmap", path);
    }
    out.base_ = base;
  }
  ::close(fd);  // the mapping pins the file
  return out;
}

MappedFile::~MappedFile() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

MappedFile& MappedFile::operator=(MappedFile&& o) noexcept {
  if (this == &o) return *this;
  if (base_ != nullptr) ::munmap(base_, size_);
  base_ = o.base_;
  size_ = o.size_;
  path_ = std::move(o.path_);
  o.base_ = nullptr;
  o.size_ = 0;
  return *this;
}

namespace {

int AdviceFlag(MappedFile::Advice advice) {
  switch (advice) {
    case MappedFile::Advice::kNormal: return MADV_NORMAL;
    case MappedFile::Advice::kSequential: return MADV_SEQUENTIAL;
    case MappedFile::Advice::kRandom: return MADV_RANDOM;
    case MappedFile::Advice::kWillNeed: return MADV_WILLNEED;
    case MappedFile::Advice::kDontNeed: return MADV_DONTNEED;
  }
  return MADV_NORMAL;
}

}  // namespace

void MappedFile::Advise(Advice advice) const {
  if (base_ == nullptr) return;
  (void)::madvise(base_, size_, AdviceFlag(advice));
}

void MappedFile::Advise(Advice advice, size_t offset, size_t length) const {
  if (base_ == nullptr || offset >= size_) return;
  length = std::min(length, size_ - offset);
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t begin = offset & ~(page - 1);  // round down to a page
  const size_t end = (offset + length + page - 1) & ~(page - 1);  // up
  (void)::madvise(static_cast<uint8_t*>(base_) + begin, end - begin,
                  AdviceFlag(advice));
}

Status WriteFileDurable(const std::string& path, const uint8_t* data,
                        size_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("WriteFileDurable: open", path);
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(path.c_str());
      return Errno("WriteFileDurable: write", path);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    return Errno("WriteFileDurable: fsync", path);
  }
  ::close(fd);
  return Status::OK();
}

Status RenameDurable(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    const Status st = Errno("RenameDurable: rename", to);
    ::unlink(from.c_str());
    return st;
  }
  return FsyncParentDir(to);
}

Status WriteFileAtomic(const std::string& path, const uint8_t* data,
                       size_t size) {
  const std::string tmp = path + ".tmp";
  PH_RETURN_IF_ERROR(WriteFileDurable(tmp, data, size));
  return RenameDurable(tmp, path);
}

void DropFileCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
#if defined(POSIX_FADV_DONTNEED)
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
#endif
  ::close(fd);
}

}  // namespace pairwisehist
