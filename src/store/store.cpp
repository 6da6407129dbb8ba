#include "store/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <set>

#include "base/bytes.hpp"
#include "runtime/hash.hpp"

namespace interop::store {

namespace {

constexpr char kSegMagic[4] = {'I', 'O', 'S', 'G'};
constexpr std::uint32_t kSegVersion = 1;
constexpr std::size_t kSegHeaderBytes = 8;
/// u64 checksum | u32 kind | u32 payload_len | u64 key
constexpr std::size_t kRecHeaderBytes = 24;
constexpr std::uint32_t kKindPut = 1;
constexpr std::uint32_t kKindRef = 2;
constexpr std::uint32_t kKindTombstone = 3;
/// Sanity bound applied before trusting a decoded length: a flipped bit in
/// payload_len must become "corrupt record", not a 4 GB allocation.
constexpr std::uint32_t kMaxPayload = 256u << 20;

/// The 8-byte header every segment file opens with.
std::string segment_header() {
  std::string out;
  base::ByteWriter w(out);
  w.bytes({kSegMagic, sizeof(kSegMagic)});
  w.u32(kSegVersion);
  return out;
}

/// Serialize one record: checksum word, then the checksummed tail.
std::string encode_record(std::uint32_t kind, std::uint64_t key,
                          std::string_view payload) {
  std::string tail;
  tail.reserve(16 + payload.size());
  base::ByteWriter t(tail);
  t.u32(kind);
  t.u32(std::uint32_t(payload.size()));
  t.u64(key);
  t.bytes(payload);
  std::string rec;
  rec.reserve(8 + tail.size());
  base::ByteWriter w(rec);
  w.u64(runtime::fnv1a(tail));
  w.bytes(tail);
  return rec;
}

bool write_all(int fd, const char* data, std::size_t n, std::uint64_t off) {
  std::size_t done = 0;
  while (done < n) {
    ssize_t w = ::pwrite(fd, data + done, n - done, off_t(off + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += std::size_t(w);
  }
  return true;
}

bool read_all(int fd, char* data, std::size_t n, std::uint64_t off) {
  std::size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, data + done, n - done, off_t(off + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // short file
    done += std::size_t(r);
  }
  return true;
}

/// fsync the directory so a freshly created/unlinked segment name is
/// durable too (the classic create-then-crash hole).
void fsync_dir(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;
  ::fsync(dfd);
  ::close(dfd);
}

}  // namespace

ObjectStore::~ObjectStore() { close(); }

std::string ObjectStore::segment_path(std::uint64_t seg_no) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.iosg",
                static_cast<unsigned long long>(seg_no));
  return dir_ + "/" + name;
}

bool ObjectStore::open(const std::string& dir, StoreOptions opt) {
  std::lock_guard<std::mutex> lock(mu_);
  close_locked();
  dir_ = dir;
  opt_ = opt;
  error_.clear();
  stats_ = Stats{};
  died_ = false;
  death_fault_ = runtime::StoreFaultKind::None;
  append_seq_ = 0;

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    error_ = "cannot create store directory " + dir_ + ": " + ec.message();
    return false;
  }

  // Enumerate existing segments, lowest number first: recovery replays
  // them in append order so last-wins semantics (refs, tombstones) hold.
  std::vector<std::uint64_t> seg_nos;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long n = 0;
    if (std::sscanf(name.c_str(), "seg-%6llu.iosg", &n) == 1 && n > 0)
      seg_nos.push_back(n);
  }
  if (ec) {
    error_ = "cannot list store directory " + dir_ + ": " + ec.message();
    return false;
  }
  std::sort(seg_nos.begin(), seg_nos.end());

  for (std::uint64_t n : seg_nos) {
    if (!scan_segment_locked(n)) {
      close_locked();
      return false;
    }
  }

  if (seg_nos.empty()) {
    // A fresh store: rotating past "segment 0" creates segment 1.
    if (!rotate_locked()) {
      error_ = "cannot create " + segment_path(1) + ": " +
               std::strerror(errno);
      return false;
    }
  } else {
    cur_segment_ = seg_nos.back();
  }

  open_ = true;
  return true;
}

bool ObjectStore::scan_segment_locked(std::uint64_t seg_no) {
  const std::string path = segment_path(seg_no);
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    error_ = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    error_ = "cannot stat " + path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  std::string buf(std::size_t(st.st_size), '\0');
  if (!buf.empty() && !read_all(fd, buf.data(), buf.size(), 0)) {
    error_ = "cannot read " + path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }

  // Header first; a segment without a whole valid header holds nothing
  // trustworthy and is truncated to empty (recreated header on append).
  std::size_t valid_end = 0;
  base::ByteReader r(buf);
  std::string_view magic;
  std::uint32_t version = 0;
  if (r.bytes(4, &magic) && magic == std::string_view(kSegMagic, 4) &&
      r.u32(&version) && version == kSegVersion) {
    valid_end = r.pos();
    for (;;) {
      std::uint64_t checksum = 0, key = 0;
      std::uint32_t kind = 0, len = 0;
      std::string_view payload;
      if (!r.u64(&checksum) || !r.u32(&kind) || !r.u32(&len) || !r.u64(&key))
        break;  // torn header
      if (len > kMaxPayload || !r.bytes(len, &payload))
        break;  // torn or length-corrupted payload
      std::string_view tail(buf.data() + valid_end + 8, 16 + len);
      if (runtime::fnv1a(tail) != checksum) break;  // bit flip anywhere
      switch (kind) {
        case kKindPut:
          index_[key] = Location{seg_no, valid_end, len};
          order_.push_back(key);
          break;
        case kKindRef:
          refs_[std::string(payload)] = key;
          break;
        case kKindTombstone:
          index_.erase(key);
          break;
        default:
          // A checksum-clean record of unknown kind means a newer writer
          // or deeper corruption; either way nothing after it is ours.
          goto scan_done;
      }
      ++stats_.recovered_records;
      stats_.recovered_bytes += kRecHeaderBytes + len;
      valid_end = r.pos();
    }
  }
scan_done:
  if (valid_end < buf.size()) {
    // Physically remove the torn/corrupt tail: recovery must be a fixed
    // point (re-opening scans a clean file) and a later append must not
    // splice new records after garbage bytes.
    if (::ftruncate(fd, off_t(valid_end)) != 0) {
      error_ = "cannot truncate " + path + ": " + std::strerror(errno);
      ::close(fd);
      return false;
    }
    ::fsync(fd);
    stats_.truncated_bytes += buf.size() - valid_end;
    ++stats_.truncated_segments;
  }
  segment_fds_[seg_no] = fd;
  cur_size_ = valid_end;
  return true;
}

void ObjectStore::close() {
  std::lock_guard<std::mutex> lock(mu_);
  close_locked();
}

void ObjectStore::close_locked() {
  for (auto& [no, fd] : segment_fds_) ::close(fd);
  segment_fds_.clear();
  index_.clear();
  order_.clear();
  refs_.clear();
  open_ = false;
  cur_segment_ = 0;
  cur_size_ = 0;
}

bool ObjectStore::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

bool ObjectStore::rotate_locked() {
  std::uint64_t next = cur_segment_ + 1;
  int fd = ::open(segment_path(next).c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return false;
  const std::string header = segment_header();
  if (!write_all(fd, header.data(), header.size(), 0)) {
    ::close(fd);
    return false;
  }
  ::fsync(fd);
  fsync_dir(dir_);
  segment_fds_[next] = fd;
  cur_segment_ = next;
  cur_size_ = kSegHeaderBytes;
  return true;
}

bool ObjectStore::append_locked(std::uint32_t kind, std::uint64_t key,
                                std::string_view payload, Location* loc) {
  if (!open_ || died_) return false;
  int fd = segment_fds_[cur_segment_];

  // A segment truncated to empty by recovery lost its header too.
  if (cur_size_ < kSegHeaderBytes) {
    const std::string header = segment_header();
    if (!write_all(fd, header.data(), header.size(), 0)) return false;
    ::fsync(fd);
    cur_size_ = kSegHeaderBytes;
  }

  std::string rec = encode_record(kind, key, payload);
  if (cur_size_ + rec.size() > opt_.segment_bytes &&
      cur_size_ > kSegHeaderBytes) {
    if (!rotate_locked()) return false;
    fd = segment_fds_[cur_segment_];
  }

  const std::uint64_t off = cur_size_;
  runtime::StoreFaultKind fault = runtime::StoreFaultKind::None;
  if (faults_) fault = faults_->decide_store(++append_seq_);
  switch (fault) {
    case runtime::StoreFaultKind::TornAppend: {
      // The process died mid-write: a strict prefix of the record is on
      // disk. Leave it there — recovery must detect and truncate it.
      std::size_t torn = faults_->pick_torn_bytes(append_seq_, rec.size());
      write_all(fd, rec.data(), torn, off);
      ::fsync(fd);
      died_ = true;
      death_fault_ = fault;
      return false;
    }
    case runtime::StoreFaultKind::ShortFsync:
      // fsync failed/lied and the machine died: the bytes never reached
      // stable storage. Model "never durable" by not writing them at all
      // past the commit point — the caller was never acked.
      died_ = true;
      death_fault_ = fault;
      return false;
    case runtime::StoreFaultKind::CrashBeforeIndex:
      // Fully durable, then death before the index update / ack.
      if (!write_all(fd, rec.data(), rec.size(), off)) return false;
      ::fsync(fd);
      died_ = true;
      death_fault_ = fault;
      return false;
    case runtime::StoreFaultKind::None:
      break;
  }

  if (!write_all(fd, rec.data(), rec.size(), off)) return false;
  if (opt_.fsync_each && ::fsync(fd) != 0) return false;
  cur_size_ += rec.size();
  ++stats_.appends;
  stats_.appended_bytes += rec.size();
  if (loc) *loc = Location{cur_segment_, off, std::uint32_t(payload.size())};
  return true;
}

bool ObjectStore::put(std::uint64_t key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_ || died_) return false;
  if (index_.count(key)) {
    ++stats_.dedup_hits;
    return true;  // content-addressed: same key, same bytes, already durable
  }
  Location loc;
  if (!append_locked(kKindPut, key, value, &loc)) return false;
  index_[key] = loc;
  order_.push_back(key);
  return true;
}

bool ObjectStore::read_record_locked(const Location& loc,
                                     std::uint64_t expect_key,
                                     std::string* payload) const {
  auto it = segment_fds_.find(loc.segment);
  if (it == segment_fds_.end()) return false;
  std::string buf(kRecHeaderBytes + loc.payload_len, '\0');
  if (!read_all(it->second, buf.data(), buf.size(), loc.offset)) return false;
  base::ByteReader r(buf);
  std::uint64_t checksum = 0, key = 0;
  std::uint32_t kind = 0, len = 0;
  bool whole = r.u64(&checksum) && r.u32(&kind) && r.u32(&len) && r.u64(&key);
  std::string_view tail(buf.data() + 8, 16 + loc.payload_len);
  if (!whole || runtime::fnv1a(tail) != checksum || key != expect_key) {
    ++stats_.read_checksum_failures;
    return false;
  }
  payload->assign(buf, kRecHeaderBytes, loc.payload_len);
  return true;
}

std::optional<std::string> ObjectStore::get(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  std::string payload;
  if (!read_record_locked(it->second, key, &payload)) return std::nullopt;
  return payload;
}

bool ObjectStore::contains(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(key) > 0;
}

bool ObjectStore::remove(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_ || died_) return false;
  if (!index_.count(key)) return true;
  if (!append_locked(kKindTombstone, key, {}, nullptr)) return false;
  index_.erase(key);
  return true;
}

bool ObjectStore::set_ref(const std::string& name, std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_ || died_) return false;
  if (!append_locked(kKindRef, key, name, nullptr)) return false;
  refs_[name] = key;
  return true;
}

std::optional<std::uint64_t> ObjectStore::ref(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = refs_.find(name);
  if (it == refs_.end()) return std::nullopt;
  return it->second;
}

std::map<std::string, std::uint64_t> ObjectStore::refs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refs_;
}

std::vector<std::uint64_t> ObjectStore::keys_in_order() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  out.reserve(index_.size());
  std::set<std::uint64_t> seen;
  for (std::uint64_t key : order_)
    if (index_.count(key) && seen.insert(key).second) out.push_back(key);
  return out;
}

std::size_t ObjectStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

std::map<std::uint64_t, std::string> ObjectStore::contents() const {
  std::map<std::uint64_t, std::string> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, loc] : index_) {
    std::string payload;
    if (read_record_locked(loc, key, &payload))
      out.emplace(key, std::move(payload));
  }
  return out;
}

bool ObjectStore::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_ || died_) return false;
  auto it = segment_fds_.find(cur_segment_);
  return it != segment_fds_.end() && ::fsync(it->second) == 0;
}

bool ObjectStore::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_ || died_) return false;

  // Write every live record into one fresh segment. The old files stay on
  // disk until the new one is fully durable, so death at any point here
  // recovers either the old state (new segment torn: its valid prefix is
  // a subset re-write of the same content) or the compacted one.
  std::uint64_t new_seg = cur_segment_ + 1;
  const std::string path = segment_path(new_seg);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::string header = segment_header();
  if (!write_all(fd, header.data(), header.size(), 0)) {
    ::close(fd);
    return false;
  }
  auto abandon = [&] {
    ::close(fd);
    ::unlink(path.c_str());
    return false;
  };
  std::uint64_t off = kSegHeaderBytes;
  std::map<std::uint64_t, Location> new_index;
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> new_order;
  for (std::uint64_t key : order_) {
    auto it = index_.find(key);
    if (it == index_.end() || !seen.insert(key).second) continue;
    std::string payload;
    if (!read_record_locked(it->second, key, &payload)) return abandon();
    std::string rec = encode_record(kKindPut, key, payload);
    if (!write_all(fd, rec.data(), rec.size(), off)) return abandon();
    new_index[key] = Location{new_seg, off, std::uint32_t(payload.size())};
    new_order.push_back(key);
    off += rec.size();
  }
  for (const auto& [name, key] : refs_) {
    std::string rec = encode_record(kKindRef, key, name);
    if (!write_all(fd, rec.data(), rec.size(), off)) return abandon();
    off += rec.size();
  }
  if (::fsync(fd) != 0) return abandon();
  fsync_dir(dir_);

  // Commit: drop the old segments. Death between these unlinks leaves a
  // mix; recovery replays old-then-new in segment order and the new
  // segment's records win/duplicate identically — same contents.
  for (auto& [no, old_fd] : segment_fds_) {
    ::close(old_fd);
    ::unlink(segment_path(no).c_str());
  }
  fsync_dir(dir_);
  segment_fds_.clear();
  segment_fds_[new_seg] = fd;
  index_ = std::move(new_index);
  order_ = std::move(new_order);
  cur_segment_ = new_seg;
  cur_size_ = off;
  ++stats_.compactions;
  return true;
}

ObjectStore::Stats ObjectStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ObjectStore::set_fault_injector(
    std::shared_ptr<runtime::FaultInjector> faults) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = std::move(faults);
}

bool ObjectStore::died() const {
  std::lock_guard<std::mutex> lock(mu_);
  return died_;
}

runtime::StoreFaultKind ObjectStore::death_fault() const {
  std::lock_guard<std::mutex> lock(mu_);
  return death_fault_;
}

}  // namespace interop::store
