#include "store/persistent_cache.hpp"

#include <sstream>

#include "base/bytes.hpp"
#include "runtime/hash.hpp"

namespace interop::store {

namespace {

/// 'IOCE' — interop cache entry. Journal objects are TSV text starting
/// "interop-journal", which cannot collide with this word.
constexpr std::uint32_t kEntryMagic = 0x45434f49;
constexpr std::uint32_t kEntryVersion = 1;
/// Decode-side cap per string field; cache entries are step effects, not
/// bulk design data, and a corrupt length must not drive an allocation.
constexpr std::uint32_t kMaxField = 256u << 20;

using Pairs = std::vector<std::pair<std::string, std::string>>;

void write_pairs(base::ByteWriter& w, const Pairs& pairs) {
  w.u32(std::uint32_t(pairs.size()));
  for (const auto& [first, second] : pairs) {
    w.str(first);
    w.str(second);
  }
}

bool read_pairs(base::ByteReader& r, Pairs* out) {
  std::uint32_t n = 0;
  if (!r.u32(&n)) return false;
  out->reserve(std::min(n, 1u << 16));
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string first, second;
    if (!r.str(&first, kMaxField) || !r.str(&second, kMaxField)) return false;
    out->emplace_back(std::move(first), std::move(second));
  }
  return true;
}

}  // namespace

std::string encode_cache_entry(const runtime::CacheEntry& entry) {
  std::string out;
  base::ByteWriter w(out);
  w.u32(kEntryMagic);
  w.u32(kEntryVersion);
  write_pairs(w, entry.outputs);
  write_pairs(w, entry.variables);
  w.str(entry.log);
  return out;
}

bool decode_cache_entry(std::string_view blob, runtime::CacheEntry* out) {
  base::ByteReader r(blob);
  std::uint32_t magic = 0, version = 0;
  if (!r.u32(&magic) || magic != kEntryMagic) return false;
  if (!r.u32(&version) || version != kEntryVersion) return false;
  runtime::CacheEntry e;
  if (!read_pairs(r, &e.outputs) || !read_pairs(r, &e.variables) ||
      !r.str(&e.log, kMaxField) || !r.done())
    return false;
  *out = std::move(e);
  return true;
}

bool PersistentResultCache::open(const std::string& dir, StoreOptions opt) {
  recovered_ = 0;
  skipped_ = 0;
  if (!store_.open(dir, opt)) return false;
  // Replay in first-append order so FIFO eviction in a bounded cache
  // keeps/drops the same entries a never-crashed process would have.
  for (std::uint64_t key : store_.keys_in_order()) {
    auto blob = store_.get(key);
    runtime::CacheEntry entry;
    if (!blob || !decode_cache_entry(*blob, &entry)) {
      ++skipped_;
      continue;
    }
    runtime::ResultCache::store(key, std::move(entry));
    ++recovered_;
  }
  reset_stats();
  return true;
}

void PersistentResultCache::store(std::uint64_t key,
                                  runtime::CacheEntry entry) {
  // Durable first, visible second: once another worker can find() the
  // entry it must already be on disk, or a crash could recover a cache
  // missing results the run observed.
  if (store_.is_open() && !store_.died())
    store_.put(key, encode_cache_entry(entry));
  runtime::ResultCache::store(key, std::move(entry));
}

bool save_journal(ObjectStore& store, const runtime::RunJournal& journal,
                  const std::string& name) {
  std::ostringstream os;
  journal.save(os);
  std::string text = os.str();
  std::uint64_t key = runtime::fnv1a(text);
  if (!store.put(key, text)) return false;
  return store.set_ref("journal/" + name, key);
}

bool load_journal(const ObjectStore& store, const std::string& name,
                  runtime::RunJournal* journal) {
  auto key = store.ref("journal/" + name);
  if (!key) return false;
  auto text = store.get(*key);
  if (!text) return false;
  std::istringstream is(*text);
  return journal->load(is);
}

}  // namespace interop::store
