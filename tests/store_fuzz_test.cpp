// Seeded byte-mutation fuzz for the store's recovery scan: starting from
// a pristine segment, each iteration applies a random mutation (bit
// flip, truncation, garbage append, or a combination) and re-opens the
// store. Recovery must never crash, never mis-verify a checksum (every
// surviving key maps byte-identically to its original value, and no key
// the original store never held appears), and must be a fixed point (a
// second open finds nothing left to truncate). Runs under the ASan/UBSan
// CI job like the reproducer corpus; INTEROP_STORE_FUZZ_ITERS widens the
// nightly sweep.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "store/store.hpp"

namespace interop::store {
namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::atoi(v) : fallback;
}

struct TempDir {
  explicit TempDir(const std::string& tag) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / (tag + ".XXXXXX")).string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* p = ::mkdtemp(buf.data());
    EXPECT_NE(p, nullptr);
    if (p) path = p;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
}

TEST(StoreFuzz, MutatedSegmentsNeverCrashOrMisverify) {
  const int iters = env_int("INTEROP_STORE_FUZZ_ITERS", 200);

  // Pristine store: mixed payload sizes (including empty and binary),
  // refs, and a tombstone, all in one segment.
  TempDir pristine_dir("store_fuzz_pristine");
  // The oracle is every value EVER put, not the final live view: a
  // truncation that cuts before the key-7 tombstone legitimately
  // resurfaces key 7 — that is an earlier committed state, not
  // corruption. Mis-verification means a key appears with bytes that
  // were never written, or a key that never existed at all.
  std::map<std::uint64_t, std::string> original;
  {
    ObjectStore store;
    ASSERT_TRUE(store.open(pristine_dir.path)) << store.error();
    base::Rng rng(99);
    for (std::uint64_t k = 1; k <= 24; ++k) {
      std::string value(rng.index(96), '\0');
      for (char& c : value) c = char(rng.index(256));
      ASSERT_TRUE(store.put(k, value));
      original[k] = value;
    }
    ASSERT_TRUE(store.remove(7));
    ASSERT_TRUE(store.set_ref("head", 3));
  }
  const std::string pristine =
      read_file(pristine_dir.path + "/seg-000001.iosg");
  ASSERT_GT(pristine.size(), 100u);

  TempDir work_dir("store_fuzz_work");
  const std::string seg = work_dir.path + "/seg-000001.iosg";
  for (int iter = 0; iter < iters; ++iter) {
    base::Rng rng(std::uint64_t(iter) * 6364136223846793005ull + 1);
    std::string bytes = pristine;
    // 1-3 stacked mutations per iteration.
    int mutations = 1 + int(rng.index(3));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.index(4)) {
        case 0:  // single bit flip anywhere (header, length, payload...)
          bytes[rng.index(bytes.size())] ^= char(1 << rng.index(8));
          break;
        case 1:  // truncate to an arbitrary length, including 0
          bytes.resize(rng.index(bytes.size() + 1));
          break;
        case 2: {  // append garbage (a torn or alien tail)
          std::size_t n = 1 + rng.index(64);
          for (std::size_t i = 0; i < n; ++i)
            bytes.push_back(char(rng.index(256)));
          break;
        }
        case 3: {  // zero out a run of bytes (lost sector)
          if (bytes.empty()) break;
          std::size_t at = rng.index(bytes.size());
          std::size_t n = std::min(bytes.size() - at, 1 + rng.index(32));
          for (std::size_t i = 0; i < n; ++i) bytes[at + i] = '\0';
          break;
        }
      }
      if (bytes.empty()) break;
    }
    write_file(seg, bytes);

    ObjectStore store;
    ASSERT_TRUE(store.open(work_dir.path))
        << "iter " << iter << ": open must not fail on corruption: "
        << store.error();
    // No mis-verification: every surviving key is original and intact.
    for (const auto& [key, value] : store.contents()) {
      auto it = original.find(key);
      ASSERT_TRUE(it != original.end())
          << "iter " << iter << ": key " << key
          << " surfaced that the pristine store never held";
      EXPECT_EQ(value, it->second)
          << "iter " << iter << ": key " << key
          << " survived with corrupted bytes (checksum mis-verified)";
    }
    if (auto head = store.ref("head")) {
      EXPECT_EQ(*head, 3u) << "iter " << iter;
    }
    // Recovery is a fixed point: a re-open finds a clean file.
    std::uint64_t size_once = store.size();
    store.close();
    ASSERT_TRUE(store.open(work_dir.path)) << store.error();
    EXPECT_EQ(store.stats().truncated_segments, 0u)
        << "iter " << iter << ": second open must find nothing to cut";
    EXPECT_EQ(store.size(), size_once) << "iter " << iter;
    // The recovered store must accept new writes.
    ASSERT_TRUE(store.put(1'000'000 + std::uint64_t(iter), "post"))
        << "iter " << iter;
  }
}

}  // namespace
}  // namespace interop::store
