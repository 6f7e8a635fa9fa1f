#include "core/index_file.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/serialize.hpp"
#include "core/sharded_hash.hpp"
#include "core/tree_source.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "phylo/vector_codec.hpp"
#include "support/test_util.hpp"
#include "util/error.hpp"
#include "util/group_table.hpp"
#include "util/hash.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;
using phylo::Tree;

/// Self-deleting scratch path under the system temp dir (per process:
/// ctest runs every test as its own process, concurrently).
class TempFile {
 public:
  explicit TempFile(const char* tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("bfhrf_index_test_" + std::to_string(::getpid()) + "_" + tag +
              ".bfi"))
                .string();
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  [[nodiscard]] std::vector<char> bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_bytes(const std::vector<char>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

 private:
  std::string path_;
};

struct BuiltEngine {
  phylo::TaxonSetPtr taxa;
  std::vector<Tree> reference;
  std::vector<Tree> queries;
};

BuiltEngine make_workload(std::size_t n, std::size_t r, std::size_t q,
                          std::uint64_t seed) {
  BuiltEngine w;
  w.taxa = TaxonSet::make_numbered(n);
  util::Rng rng(seed);
  w.reference = test::random_collection(w.taxa, r, 4, rng);
  w.queries = test::random_collection(w.taxa, q, 6, rng);
  return w;
}

TEST(IndexFileTest, HeaderLayoutIsPinned) {
  // These sizes ARE the on-disk format; a change is a format revision.
  EXPECT_EQ(sizeof(MappedHeader), 128u);
  EXPECT_EQ(sizeof(MappedTableRecord), 64u);
  EXPECT_EQ(kMappedSectionAlign % 16u, 0u);  // vector ctrl loads
}

TEST(IndexFileTest, MappedQueriesMatchMemoryExactly) {
  const BuiltEngine w = make_workload(26, 30, 10, 3);
  for (const bool include_trivial : {false, true}) {
    Bfhrf engine(w.taxa->size(), {.include_trivial = include_trivial});
    engine.build(w.reference);
    const auto want = engine.query(w.queries);

    const TempFile file("roundtrip");
    save_bfhrf_file(engine, file.path());
    const Bfhrf mapped = load_bfhrf_file(file.path(), {.threads = 3});

    // The load serves in place (the store's bytes are the file's), with
    // the caller's runtime options and the file's trivial-split
    // convention.
    EXPECT_EQ(mapped.store().memory_bytes(),
              std::filesystem::file_size(file.path()));
    EXPECT_EQ(mapped.options().threads, 3u);
    EXPECT_EQ(mapped.options().include_trivial, include_trivial);
    EXPECT_EQ(mapped.stats().reference_trees, engine.stats().reference_trees);
    EXPECT_EQ(mapped.stats().unique_bipartitions,
              engine.stats().unique_bipartitions);
    EXPECT_EQ(mapped.stats().total_bipartitions,
              engine.stats().total_bipartitions);

    const auto got = mapped.query(w.queries);
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "query " << i;
    }
  }
}

/// Fill a 4-shard store with every split of `trees`, each key into the
/// shard its fingerprint picks, in stream order or in reverse: the store a
/// 4-worker build makes, on any host (an engine shards only when its build
/// has workers).
ShardedFrequencyHash four_shards(std::span<const Tree> trees,
                                 KeyEncoding encoding, bool reverse) {
  ShardedFrequencyHash sharded(trees.front().taxa()->size(), 4, 0, encoding);
  std::vector<std::vector<std::uint64_t>> keys;
  for (const Tree& t : trees) {
    phylo::extract_bipartitions(t).for_each([&](util::ConstWordSpan key) {
      keys.emplace_back(key.begin(), key.end());
    });
  }
  if (reverse) {
    std::reverse(keys.begin(), keys.end());
  }
  for (const std::vector<std::uint64_t>& key : keys) {
    sharded.shard(shard_of(util::fingerprint(key), sharded.shard_bits()))
        .add(key);
  }
  return sharded;
}

TEST(IndexFileTest, ShardedLayoutRoundTrips) {
  // A 4-shard store saves one table holding every shard's keys, sized by
  // the build's own rule, and loads as a one-table store with the built
  // store's contents and answers.
  const BuiltEngine w = make_workload(20, 24, 8, 5);
  Bfhrf engine(w.taxa->size());
  engine.build(w.reference);
  const auto want = engine.query(w.queries);

  for (const KeyEncoding encoding : {KeyEncoding::Raw, KeyEncoding::Sparse}) {
    const ShardedFrequencyHash sharded =
        four_shards(w.reference, encoding, false);
    const double total_weight = engine.store().total_weight();
    const BfhIndexView built(sharded, total_weight);
    ASSERT_EQ(built.shard_count(), 4u);
    ASSERT_EQ(test::store_image(built), test::store_image(engine.store()));

    const TempFile file("sharded");
    write_index_file(sharded, total_weight,
                     {.reference_trees = w.reference.size()}, file.path());
    const MappedIndex index(file.path());
    const std::size_t unique = engine.stats().unique_bipartitions;
    EXPECT_EQ(index.header().shard_count, 1u);
    EXPECT_EQ(index.header().unique_keys, unique);
    EXPECT_EQ(index.header().total_weight, total_weight);
    EXPECT_EQ(index.table().total_weight, total_weight);
    EXPECT_EQ(index.table().live_keys, unique);
    EXPECT_EQ(index.table().slot_count, table_size_for(unique));
    EXPECT_EQ(index.table().key_bytes, built.key_bytes());
    EXPECT_EQ(index.table().ctrl_offset % kMappedSectionAlign, 0u);
    EXPECT_EQ(index.table().slots_offset % kMappedSectionAlign, 0u);
    EXPECT_EQ(index.table().keys_offset % kMappedSectionAlign, 0u);

    const Bfhrf loaded = load_bfhrf_file(file.path(), {.threads = 4});
    EXPECT_EQ(loaded.store().shard_count(), 1u);
    EXPECT_EQ(loaded.options().compressed_keys,
              encoding == KeyEncoding::Sparse);
    EXPECT_EQ(test::store_image(loaded.store()),
              test::store_image(engine.store()));
    const auto got = loaded.query(w.queries);
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]);
    }
  }
}

TEST(IndexFileTest, CompressedStoreRoundTrips) {
  const BuiltEngine w = make_workload(40, 20, 6, 7);
  Bfhrf raw(w.taxa->size());
  raw.build(w.reference);
  const auto want = raw.query(w.queries);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Bfhrf engine(w.taxa->size(),
                 {.threads = threads, .compressed_keys = true});
    engine.build(w.reference);
    const std::size_t shards = test::expected_shards(threads);
    ASSERT_EQ(engine.store().shard_count(), shards);
    ASSERT_EQ(engine.query(w.queries), want) << "shards=" << shards;

    const TempFile file("compressed");
    save_bfhrf_file(engine, file.path());
    const Bfhrf loaded = load_bfhrf_file(file.path());
    const MappedIndex index(file.path());
    EXPECT_EQ(index.encoding(), KeyEncoding::Sparse);
    EXPECT_EQ(index.header().store_kind,
              static_cast<std::uint32_t>(MappedStoreKind::Sparse));
    EXPECT_EQ(loaded.store().shard_count(), 1u);
    EXPECT_TRUE(loaded.options().compressed_keys);
    EXPECT_EQ(test::store_image(loaded.store()),
              test::store_image(raw.store()))
        << "shards=" << shards;
    EXPECT_EQ(loaded.store().key_bytes(), engine.store().key_bytes());
    const auto got = loaded.query(w.queries);
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "shards=" << shards << " query " << i;
    }
  }
}

TEST(IndexFileTest, LoadAllocatesNoTable) {
  // A load maps the file and allocates no table, whatever pre-size hint
  // the options carry. 1 << 24 expected keys would size 2^25 slots: about
  // 290 MB of slots and ctrl bytes, touched as they are cleared.
  const BuiltEngine w = make_workload(40, 30, 8, 37);
  Bfhrf engine(w.taxa->size());
  engine.build(w.reference);
  const auto want = engine.query(w.queries);
  const TempFile file("noalloc");
  save_bfhrf_file(engine, file.path());

  const std::size_t before = util::peak_rss_bytes();
  const Bfhrf loaded = load_bfhrf_file(
      file.path(), {.threads = 4, .expected_unique = std::size_t{1} << 24});
  const std::size_t rise = util::peak_rss_bytes() - before;
  EXPECT_LT(rise, std::size_t{64} << 20) << "peak RSS rose by " << rise;
  EXPECT_EQ(loaded.query(w.queries), want);
}

/// FNV-1a over a file's bytes: a fixed hash that owes nothing to the
/// engine's own hashing.
std::uint64_t fnv1a(const std::vector<char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

TEST(IndexFileTest, SingleTableFileBytesArePinned) {
  // A BFHMAP file, byte for byte, for a fixed hand-written corpus: the size
  // and FNV-1a of each file the writer produces. A writer change that
  // moves any byte fails here, so it must be a deliberate format revision
  // that re-records these constants. They were last recorded for the
  // canonical one-table layout of BFHMAP version 2 (keys placed by
  // util::fingerprint in fingerprint-then-words order), and the portable
  // fingerprint kernel of a BFHRF_DISABLE_SIMD build must write the same
  // bytes. A save depends only on the store's contents, so an inline
  // build and a 4-shard store filled with the same splits, in stream order
  // or in reverse, write these same bytes.
  static constexpr const char* kCorpus[] = {
      "((Ant,Bee),(Cat,Dog),((Elk,Fox),(Gnu,(Hen,(Ibis,Jay)))));",
      "((Ant,Cat),(Bee,Dog),((Elk,Gnu),(Fox,(Hen,(Ibis,Jay)))));",
      "(((Ant,Bee),Cat),Dog,((Elk,Fox),((Gnu,Hen),(Ibis,Jay))));",
      "((Ant,Bee),(Cat,Dog),(Elk,(Fox,(Gnu,(Hen,(Ibis,Jay))))));",
      "((Jay,Ibis),(Hen,Gnu),((Fox,Elk),(Dog,(Cat,(Bee,Ant)))));",
      "((Ant,(Bee,(Cat,(Dog,Elk)))),Fox,(Gnu,(Hen,(Ibis,Jay))));",
      "((Ant,Bee),(Cat,Dog),((Elk,Fox),(Gnu,(Hen,(Ibis,Jay)))));",
      "((Ant,Dog),(Bee,Cat),((Elk,Jay),(Gnu,(Hen,(Ibis,Fox)))));",
  };
  struct Pin {
    bool compressed;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  static constexpr Pin kPins[] = {
      {false, 952, 0xb07fff989fab141f},
      {true, 877, 0x7ca9c6127abde434},
  };
  const auto taxa = std::make_shared<TaxonSet>();
  std::vector<Tree> trees;
  for (const char* newick : kCorpus) {
    trees.push_back(phylo::parse_newick(newick, taxa));
  }
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.compressed ? "sparse keys" : "raw keys");
    Bfhrf engine(taxa->size(),
                 {.threads = 1, .compressed_keys = pin.compressed});
    engine.build(trees);
    const TempFile file(pin.compressed ? "pin_sparse" : "pin_raw");
    save_bfhrf_file(engine, file.path());
    const std::vector<char> bytes = file.bytes();
    EXPECT_EQ(bytes.size(), pin.bytes);
    EXPECT_EQ(fnv1a(bytes), pin.fnv)
        << std::hex << "0x" << fnv1a(bytes);

    const KeyEncoding encoding =
        pin.compressed ? KeyEncoding::Sparse : KeyEncoding::Raw;
    for (const bool reverse : {false, true}) {
      SCOPED_TRACE(reverse ? "4 shards, reverse order" : "4 shards");
      const ShardedFrequencyHash sharded =
          four_shards(trees, encoding, reverse);
      write_index_file(sharded, engine.store().total_weight(),
                       {.reference_trees = trees.size()}, file.path());
      EXPECT_EQ(file.bytes(), bytes);
    }
  }
}

TEST(IndexFileTest, VersionOneFileAsksForARebuild) {
  // Version 1 placed keys by util::hash_words; a version-2 probe would look
  // for them in other slots, so such a file must not open. Its layout is
  // otherwise the one a version-2 save writes.
  const BuiltEngine w = make_workload(16, 10, 4, 13);
  Bfhrf engine(w.taxa->size());
  engine.build(w.reference);
  const TempFile file("version1");
  save_bfhrf_file(engine, file.path());
  std::vector<char> old = file.bytes();
  const std::uint32_t v1 = 1;
  std::memcpy(old.data() + offsetof(MappedHeader, version), &v1, sizeof v1);
  file.write_bytes(old);
  try {
    (void)load_bfhrf_file(file.path());
    ADD_FAILURE() << "a version-1 file opened";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("rebuild"), std::string::npos) << what;
  }
}

TEST(IndexFileTest, ShardedFileAsksForARebuild) {
  // Multi-threaded saves once wrote one table record per shard, each
  // shard's sections after the last. Such a file (here four empty 16-slot
  // shards, which the per-shard reader accepted) must not open: an index
  // file is one table.
  constexpr std::uint32_t kShards = 4;
  MappedHeader h{};
  std::memcpy(h.magic, kMappedMagic, sizeof h.magic);
  h.version = kMappedVersion;
  h.store_kind = static_cast<std::uint32_t>(MappedStoreKind::Raw);
  h.shard_count = kShards;
  h.n_bits = 16;
  h.words_per_key = 1;
  h.reference_trees = 1;
  std::vector<MappedTableRecord> records(kShards);
  std::uint64_t off =
      sizeof(MappedHeader) + kShards * sizeof(MappedTableRecord);
  for (MappedTableRecord& r : records) {
    r.slot_count = util::kGroupWidth;
    r.ctrl_offset = off;
    r.slots_offset = r.ctrl_offset + kMappedSectionAlign;
    r.keys_offset =
        r.slots_offset + r.slot_count * sizeof(FrequencyHash::Slot);
    off = r.keys_offset;  // an empty key arena
  }
  h.file_bytes = off;
  std::vector<char> bytes(off, 0);
  std::memcpy(bytes.data(), &h, sizeof h);
  std::memcpy(bytes.data() + sizeof h, records.data(),
              kShards * sizeof(MappedTableRecord));
  for (const MappedTableRecord& r : records) {
    std::memset(bytes.data() + r.ctrl_offset, util::kCtrlEmpty, r.slot_count);
  }
  const TempFile file("sharded_old");
  file.write_bytes(bytes);
  try {
    (void)load_bfhrf_file(file.path());
    ADD_FAILURE() << "a 4-shard file opened";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4 shard tables"), std::string::npos) << what;
    EXPECT_NE(what.find("rebuild"), std::string::npos) << what;
  }
}

TEST(IndexFileTest, RejectsForeignAndCorruptFiles) {
  const BuiltEngine w = make_workload(16, 10, 4, 13);
  Bfhrf engine(w.taxa->size());
  engine.build(w.reference);
  const TempFile file("corrupt");
  save_bfhrf_file(engine, file.path());
  const std::vector<char> good = file.bytes();
  ASSERT_GE(good.size(), sizeof(MappedHeader));

  {  // bad magic
    std::vector<char> bad = good;
    bad[0] = 'X';
    file.write_bytes(bad);
    EXPECT_THROW(MappedIndex{file.path()}, ParseError);
  }
  {  // unsupported version
    std::vector<char> bad = good;
    const std::uint32_t v = 999;
    std::memcpy(bad.data() + offsetof(MappedHeader, version), &v, sizeof v);
    file.write_bytes(bad);
    EXPECT_THROW(MappedIndex{file.path()}, ParseError);
  }
  {  // truncated mid-section
    std::vector<char> bad = good;
    bad.resize(bad.size() - 32);
    file.write_bytes(bad);
    EXPECT_THROW(MappedIndex{file.path()}, ParseError);
  }
  {  // truncated inside the header
    std::vector<char> bad = good;
    bad.resize(sizeof(MappedHeader) / 2);
    file.write_bytes(bad);
    EXPECT_THROW(MappedIndex{file.path()}, ParseError);
  }
  {  // misaligned section offset
    std::vector<char> bad = good;
    std::uint64_t off = 0;
    const std::size_t field =
        sizeof(MappedHeader) + offsetof(MappedTableRecord, ctrl_offset);
    std::memcpy(&off, bad.data() + field, sizeof off);
    off += 8;  // still in bounds, no longer 64-byte aligned
    std::memcpy(bad.data() + field, &off, sizeof off);
    file.write_bytes(bad);
    EXPECT_THROW(MappedIndex{file.path()}, ParseError);
  }
  {  // the table's totals no longer match the header
    std::vector<char> bad = good;
    std::uint64_t live = 0;
    const std::size_t field =
        sizeof(MappedHeader) + offsetof(MappedTableRecord, live_keys);
    std::memcpy(&live, bad.data() + field, sizeof live);
    live += 1;
    std::memcpy(bad.data() + field, &live, sizeof live);
    file.write_bytes(bad);
    EXPECT_THROW(MappedIndex{file.path()}, ParseError);
  }
  MappedTableRecord record{};
  std::memcpy(&record, good.data() + sizeof(MappedHeader), sizeof record);
  {  // live slots address keys far outside the arena (segfaulted a query)
    std::vector<char> bad = good;
    for (std::uint64_t i = 0; i < record.slot_count; ++i) {
      FrequencyHash::Slot slot{};
      char* at = bad.data() + record.slots_offset + i * sizeof slot;
      std::memcpy(&slot, at, sizeof slot);
      if (slot.count != 0) {
        slot.key_index = 0x7fffffff;
        std::memcpy(at, &slot, sizeof slot);
      }
    }
    file.write_bytes(bad);
    EXPECT_THROW((void)load_bfhrf_file(file.path()).query(w.queries),
                 ParseError);
  }
  {  // every ctrl byte FULL: no EMPTY byte ends a probe (hung a query)
    std::vector<char> bad = good;
    std::memset(bad.data() + record.ctrl_offset, 0x2a, record.slot_count);
    file.write_bytes(bad);
    EXPECT_THROW((void)load_bfhrf_file(file.path()).query(w.queries),
                 ParseError);
  }
  {  // a retired tombstone byte (0xfe) over an EMPTY ctrl byte: probes
     // read every top-bit byte as EMPTY, so the loader must refuse it
    std::vector<char> bad = good;
    char* ctrl = bad.data() + record.ctrl_offset;
    char* empty = std::find(ctrl, ctrl + record.slot_count,
                            static_cast<char>(util::kCtrlEmpty));
    ASSERT_NE(empty, ctrl + record.slot_count);
    *empty = static_cast<char>(0xfe);
    file.write_bytes(bad);
    EXPECT_THROW(MappedIndex{file.path()}, ParseError);
  }
  {  // sparse slots whose encodings start at the arena's end
    Bfhrf compressed(w.taxa->size(), {.compressed_keys = true});
    compressed.build(w.reference);
    save_bfhrf_file(compressed, file.path());
    std::vector<char> bad = file.bytes();
    MappedTableRecord r{};
    std::memcpy(&r, bad.data() + sizeof(MappedHeader), sizeof r);
    for (std::uint64_t i = 0; i < r.slot_count; ++i) {
      FrequencyHash::Slot slot{};
      char* at = bad.data() + r.slots_offset + i * sizeof slot;
      std::memcpy(&slot, at, sizeof slot);
      if (slot.count != 0) {
        slot.key_index = static_cast<std::uint32_t>(r.key_bytes);
        std::memcpy(at, &slot, sizeof slot);
      }
    }
    file.write_bytes(bad);
    EXPECT_THROW(MappedIndex{file.path()}, ParseError);
  }
  {  // the retired kind-1 layout (compressed keys in 24-byte slots)
    MappedHeader h{};
    std::memcpy(h.magic, kMappedMagic, sizeof h.magic);
    h.version = kMappedVersion;
    h.store_kind = 1;
    h.shard_count = 1;
    h.n_bits = 16;
    h.words_per_key = 1;
    MappedTableRecord r{};
    r.slot_count = util::kGroupWidth;
    r.ctrl_offset = sizeof(MappedHeader) + sizeof(MappedTableRecord);
    r.slots_offset = r.ctrl_offset + kMappedSectionAlign;
    r.keys_offset = r.slots_offset + r.slot_count * 24;
    h.file_bytes = r.keys_offset;
    std::vector<char> old(h.file_bytes, 0);
    std::memcpy(old.data(), &h, sizeof h);
    std::memcpy(old.data() + sizeof h, &r, sizeof r);
    std::memset(old.data() + r.ctrl_offset, util::kCtrlEmpty, r.slot_count);
    file.write_bytes(old);
    try {
      (void)load_bfhrf_file(file.path());
      ADD_FAILURE() << "a kind-1 file opened";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("rebuild"), std::string::npos)
          << e.what();
    }
  }
  {  // a retired "BFHv" stream is not an index file
    std::vector<char> bad = good;
    std::memcpy(bad.data(), "BFHv", 4);
    file.write_bytes(bad);
    EXPECT_THROW((void)load_bfhrf_file(file.path()), ParseError);
  }
  EXPECT_THROW((void)load_bfhrf_file("/nonexistent/x.bfh"), Error);
}

TEST(IndexFileTest, SavingAMappedEngineToMappedFormatThrows) {
  const BuiltEngine w = make_workload(16, 8, 2, 17);
  Bfhrf engine(w.taxa->size());
  engine.build(w.reference);
  const TempFile file("remap");
  save_bfhrf_file(engine, file.path());
  const Bfhrf mapped = load_bfhrf_file(file.path());
  const TempFile second("remap2");
  // Its file already IS the saved form; re-serializing the read-only
  // store is an error, as is saving an engine that was never built.
  EXPECT_THROW(save_bfhrf_file(mapped, second.path()), InvalidArgument);
  EXPECT_THROW(save_bfhrf_file(Bfhrf(w.taxa->size()), second.path()),
               InvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(second.path()));
}

TEST(IndexFileTest, ResavingUnderALiveMappingKeepsItsAnswers) {
  // Save A, map it, save a much smaller B over the same path, query the
  // mapping. An in-place rewrite would truncate the mapped file (SIGBUS);
  // the atomic save renames a new inode into place instead.
  const BuiltEngine w = make_workload(26, 30, 8, 29);
  Bfhrf a(w.taxa->size());
  a.build(w.reference);
  Bfhrf b(w.taxa->size());
  b.build(std::span<const Tree>(w.reference).first(2));
  const auto want_a = a.query(w.queries);
  const auto want_b = b.query(w.queries);

  const TempFile file("resave");
  save_bfhrf_file(a, file.path());
  const Bfhrf live = load_bfhrf_file(file.path());
  save_bfhrf_file(b, file.path());
  const auto got = live.query(w.queries);
  const auto reopened = load_bfhrf_file(file.path()).query(w.queries);
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    EXPECT_EQ(got[i], want_a[i]) << "query " << i;
    EXPECT_EQ(reopened[i], want_b[i]) << "query " << i;
  }
  // Both temp files were renamed into place; none is left behind.
  const std::string prefix =
      std::filesystem::path(file.path()).filename().string() + ".tmp.";
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(file.path()).parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(prefix, 0), 0u)
        << entry.path();
  }
}

void kill_self(int /*signal*/) { ::kill(::getpid(), SIGKILL); }

/// Run `write` in a forked child that is SIGKILLed once it writes past
/// `limit` bytes of a file: RLIMIT_FSIZE raises SIGXFSZ at that offset,
/// and the child's handler turns it into SIGKILL, so no destructor, exit
/// handler or core dump runs. Returns the child's wait status.
int write_until_killed(std::uint64_t limit,
                       const std::function<void()>& write) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::signal(SIGXFSZ, kill_self);
    const rlimit cap{limit, limit};
    ::setrlimit(RLIMIT_FSIZE, &cap);
    try {
      write();
    } catch (...) {
    }
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

TEST(IndexFileTest, WritersKilledMidWriteLeaveTheOldFile) {
  // Both persisted formats replace their file atomically
  // (util::AtomicFile): a writer killed halfway through the new file's
  // bytes leaves the old file byte for byte. Its temp file stays, as
  // nothing ran to remove it.
  const BuiltEngine w = make_workload(40, 60, 0, 31);
  const std::span<const Tree> all(w.reference);
  Bfhrf small(w.taxa->size());
  small.build(all.first(2));
  Bfhrf large(w.taxa->size());
  large.build(all);
  const auto check = [](const char* tag, const auto& write_old,
                        const auto& write_new) {
    SCOPED_TRACE(tag);
    const TempFile file(tag);
    write_new(file.path());
    const std::uint64_t limit = file.bytes().size() / 2;
    write_old(file.path());
    const std::vector<char> old = file.bytes();
    const int status =
        write_until_killed(limit, [&] { write_new(file.path()); });
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "wait status " << status;
    EXPECT_EQ(file.bytes(), old);
    const std::filesystem::path path(file.path());
    const std::string prefix = path.filename().string() + ".tmp.";
    std::size_t left = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(path.parent_path())) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) {
        ++left;
        EXPECT_LE(entry.file_size(), limit);
        std::filesystem::remove(entry.path());
      }
    }
    EXPECT_EQ(left, 1u);
  };
  check(
      "killed_index", [&](const std::string& p) { save_bfhrf_file(small, p); },
      [&](const std::string& p) { save_bfhrf_file(large, p); });
  check(
      "killed_corpus",
      [&](const std::string& p) { phylo::write_p2v_file(p, all.first(2)); },
      [&](const std::string& p) { phylo::write_p2v_file(p, all); });
}

TEST(IndexFileTest, MappedStoreIsReadOnly) {
  const BuiltEngine w = make_workload(16, 8, 2, 19);
  Bfhrf engine(w.taxa->size());
  engine.build(w.reference);
  const TempFile file("readonly");
  save_bfhrf_file(engine, file.path());
  const test::TempNewick trees("readonly", w.reference);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Bfhrf mapped = load_bfhrf_file(file.path(), {.threads = threads});
    // Building more trees into a mapped engine throws before any input is
    // read, whichever ingest path the thread count picks: the stream still
    // frames the file's first record afterwards.
    EXPECT_THROW(mapped.build(std::span<const Tree>(w.reference)), Error);
    FileTreeSource source(trees.path(), w.taxa);
    EXPECT_THROW(mapped.build(source), Error);
    std::string record;
    ASSERT_TRUE(source.next_record(record)) << "threads=" << threads;
    EXPECT_EQ(record, phylo::write_newick(w.reference.front()))
        << "threads=" << threads;
    EXPECT_EQ(mapped.stats().reference_trees, w.reference.size());
  }
}

}  // namespace
}  // namespace bfhrf::core
