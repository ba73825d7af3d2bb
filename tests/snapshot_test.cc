// Tests for the checksummed snapshot formats: the SnapshotWriter/Reader
// container, PMI3 and StructuralFilter round trips with byte-identical
// re-saves, rejection of the retired PMI1/PMI2 formats, and — the
// robustness pin — a truncation sweep proving every proper prefix of every
// snapshot file is rejected with an error (never loaded as zeros), plus
// bit-flip detection.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/graph.h"
#include "pgsim/graph/io.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/structural_filter.h"
#include "pgsim/storage/io_util.h"

namespace pgsim {
namespace {

std::vector<ProbabilisticGraph> SmallDatabase(uint64_t seed, size_t n) {
  SyntheticOptions options;
  options.num_graphs = n;
  options.avg_vertices = 8;
  options.num_vertex_labels = 4;
  options.seed = seed;
  return GenerateDatabase(options).value();
}

PmiBuildOptions FastBuild() {
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 1000;
  build.sip.mc.max_samples = 1000;
  return build;
}

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotContainerTest, RoundTripsSections) {
  const std::string path = testing::TempDir() + "/pgsim_container.bin";
  SnapshotWriter writer(0x41424344u, 7);
  writer.AddSection("first");
  writer.AddSection("");  // empty sections are legal
  writer.AddSection(std::string("bin\0ary", 7));
  ASSERT_TRUE(writer.Commit(path, "snapshot.test").ok());

  auto reader = SnapshotReader::Open(path, 0x41424344u);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->version(), 7u);
  ASSERT_EQ(reader->num_sections(), 3u);
  EXPECT_EQ(reader->section(0), "first");
  EXPECT_EQ(reader->section(1), "");
  EXPECT_EQ(reader->section(2), std::string("bin\0ary", 7));

  // A different expected magic is InvalidArgument (wrong kind of file), not
  // DataLoss (damaged file).
  EXPECT_EQ(SnapshotReader::Open(path, 0x55555555u).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotContainerTest, EveryPrefixIsRejected) {
  const std::string path = testing::TempDir() + "/pgsim_container_trunc.bin";
  SnapshotWriter writer(0x41424344u, 1);
  writer.AddSection("some payload bytes");
  writer.AddSection("more payload");
  ASSERT_TRUE(writer.Commit(path, "snapshot.test").ok());
  const std::string full = Slurp(path);

  for (size_t cut = 0; cut < full.size(); ++cut) {
    Spit(path, full.substr(0, cut));
    auto reader = SnapshotReader::Open(path, 0x41424344u);
    ASSERT_FALSE(reader.ok()) << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

TEST(SnapshotContainerTest, EveryBitFlipIsDetected) {
  const std::string path = testing::TempDir() + "/pgsim_container_flip.bin";
  SnapshotWriter writer(0x41424344u, 1);
  writer.AddSection("payload under test");
  ASSERT_TRUE(writer.Commit(path, "snapshot.test").ok());
  const std::string full = Slurp(path);

  for (size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    Spit(path, bad);
    auto reader = SnapshotReader::Open(path, 0x41424344u);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << i << " loaded";
  }
  std::remove(path.c_str());
}

TEST(PmiSnapshotTest, TruncationSweepNeverLoads) {
  const auto db = SmallDatabase(9001, 5);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild()).value();
  const std::string path = testing::TempDir() + "/pgsim_pmi_sweep.bin";
  ASSERT_TRUE(pmi.Save(path).ok());
  const std::string full = Slurp(path);
  ASSERT_TRUE(ProbabilisticMatrixIndex::Load(path).ok());

  // Every proper prefix must be an error — truncated bounds loaded as zeros
  // would silently pass wrong graphs through the pruning stage.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Spit(path, full.substr(0, cut));
    auto loaded = ProbabilisticMatrixIndex::Load(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

TEST(PmiSnapshotTest, BitFlipIsDataLoss) {
  const auto db = SmallDatabase(9011, 4);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild()).value();
  const std::string path = testing::TempDir() + "/pgsim_pmi_flip.bin";
  ASSERT_TRUE(pmi.Save(path).ok());
  std::string bytes = Slurp(path);
  // Flip a byte in the middle of the column data.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  Spit(path, bytes);
  auto loaded = ProbabilisticMatrixIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// Writes a legacy PMI2 file (flat stream: magic, counts, features, columns,
// epoch/alive/beta/adds/removes trailer — no checksums) equivalent to
// `pmi`'s state, byte-compatible with the pre-PMI3 Save.
void WriteLegacyPmi2(const std::string& path,
                     const ProbabilisticMatrixIndex& pmi, uint64_t epoch,
                     const std::vector<uint8_t>& alive) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  WriteU32(os, 0x504d4932u);  // "PMI2"
  WriteU32(os, static_cast<uint32_t>(pmi.features().size()));
  WriteU32(os, pmi.num_graphs());
  for (const Feature& f : pmi.features()) {
    WriteGraph(os, f.graph);
    WriteU32(os, static_cast<uint32_t>(f.support.size()));
    for (uint32_t gi : f.support) WriteU32(os, gi);
    WriteDouble(os, f.frequency);
    WriteDouble(os, f.discriminative);
    WriteU32(os, f.level);
  }
  for (uint32_t gi = 0; gi < pmi.num_graphs(); ++gi) {
    const auto column = pmi.EntriesFor(gi);
    WriteU32(os, static_cast<uint32_t>(column.size()));
    for (const PmiEntry& e : column) {
      WriteU32(os, e.feature_id);
      WriteDouble(os, e.lower_opt);
      WriteDouble(os, e.upper_opt);
      WriteDouble(os, e.lower_simple);
      WriteDouble(os, e.upper_simple);
    }
  }
  WriteU64(os, epoch);
  for (uint32_t gi = 0; gi < pmi.num_graphs(); ++gi) {
    os.put(alive[gi] ? '\1' : '\0');
  }
  WriteDouble(os, 0.2);
  WriteU64(os, 0);
  WriteU64(os, 0);
}

TEST(PmiSnapshotTest, LegacyPmiFilesAreRejected) {
  // Load reads PMI3 only: a legacy file, whole or cut short, and the same
  // bytes under the pre-epoch PMI1 magic are not an index.
  const auto db = SmallDatabase(9021, 4);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild()).value();
  const std::string path = testing::TempDir() + "/pgsim_pmi_legacy.bin";
  WriteLegacyPmi2(path, pmi, /*epoch=*/5,
                  std::vector<uint8_t>(pmi.num_graphs(), 1));
  const std::string pmi2 = Slurp(path);
  std::string pmi1 = pmi2;
  pmi1[0] = '1';  // little-endian "PMI2" magic: the version digit comes first
  for (const std::string& full : {pmi2, pmi1}) {
    Spit(path, full);
    EXPECT_EQ(ProbabilisticMatrixIndex::Load(path).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (size_t cut = 0; cut < pmi2.size(); ++cut) {
    Spit(path, pmi2.substr(0, cut));
    ASSERT_EQ(ProbabilisticMatrixIndex::Load(path).status().code(),
              StatusCode::kInvalidArgument)
        << "prefix of " << cut << " bytes";
  }
  std::remove(path.c_str());
}

struct FilterSetup {
  std::vector<ProbabilisticGraph> db;
  ProbabilisticMatrixIndex pmi;
  std::vector<Graph> certain;
  StructuralFilter filter;
};

FilterSetup BuildFilter(uint64_t seed, size_t n) {
  FilterSetup s;
  s.db = SmallDatabase(seed, n);
  s.pmi = ProbabilisticMatrixIndex::Build(s.db, FastBuild()).value();
  for (const auto& g : s.db) s.certain.push_back(g.certain());
  StructuralFilterOptions options;
  options.exact_check = true;
  s.filter = StructuralFilter::Build(s.certain, s.pmi.features(), options);
  return s;
}

TEST(FilterSnapshotTest, SaveLoadPreservesStateAndResaveIsByteIdentical) {
  FilterSetup s = BuildFilter(9041, 6);
  const std::string path1 = testing::TempDir() + "/pgsim_filter_1.bin";
  const std::string path2 = testing::TempDir() + "/pgsim_filter_2.bin";
  ASSERT_TRUE(s.filter.Save(path1).ok());

  auto loaded = StructuralFilter::Load(path1, s.certain, s.pmi.features());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_graphs(), s.filter.num_graphs());
  EXPECT_EQ(loaded->num_alive(), s.filter.num_alive());
  ASSERT_EQ(loaded->num_features(), s.filter.num_features());
  for (uint32_t fi = 0; fi < s.filter.num_features(); ++fi) {
    for (uint32_t gi = 0; gi < s.filter.num_graphs(); ++gi) {
      EXPECT_EQ(loaded->CountAt(fi, gi), s.filter.CountAt(fi, gi))
          << "cell (" << fi << ", " << gi << ")";
    }
  }
  // The loaded filter filters identically.
  const Graph& q = s.certain[1];
  const std::vector<Graph> relaxed = {q};
  EXPECT_EQ(loaded->Filter(q, relaxed, 0), s.filter.Filter(q, relaxed, 0));

  ASSERT_TRUE(loaded->Save(path2).ok());
  EXPECT_EQ(Slurp(path1), Slurp(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(FilterSnapshotTest, TruncationSweepNeverLoads) {
  FilterSetup s = BuildFilter(9043, 4);
  const std::string path = testing::TempDir() + "/pgsim_filter_sweep.bin";
  ASSERT_TRUE(s.filter.Save(path).ok());
  const std::string full = Slurp(path);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Spit(path, full.substr(0, cut));
    auto loaded = StructuralFilter::Load(path, s.certain, s.pmi.features());
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

TEST(FilterSnapshotTest, MismatchedDatabaseIsRejected) {
  FilterSetup s = BuildFilter(9047, 5);
  const std::string path = testing::TempDir() + "/pgsim_filter_mismatch.bin";
  ASSERT_TRUE(s.filter.Save(path).ok());
  // Wrong graph count: rebinding would index out of range.
  std::vector<Graph> fewer(s.certain.begin(), s.certain.end() - 1);
  auto loaded = StructuralFilter::Load(path, fewer, s.pmi.features());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // Wrong feature count likewise.
  std::vector<Feature> fewer_features(s.pmi.features().begin(),
                                      s.pmi.features().end() - 1);
  auto loaded2 = StructuralFilter::Load(path, s.certain, fewer_features);
  ASSERT_FALSE(loaded2.ok());
  EXPECT_EQ(loaded2.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pgsim
