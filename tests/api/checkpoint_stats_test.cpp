// Checkpoint directory scanning (the substrate of `ethsm checkpoint-stats`
// and its --prune GC): per-file fingerprint/record/byte accounting, corrupt
// header handling, and agreement between the scanner's record counts and
// what a CheckpointStore actually persisted.

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "api/presets.h"
#include "api/runner.h"
#include "api/study.h"
#include "support/checkpoint.h"

namespace ethsm::support {
namespace {

namespace fs = std::filesystem;

class CheckpointScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::path(::testing::TempDir()) /
           ("ethsm_scan_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(CheckpointScanTest, ReportsEveryFileWithFingerprintAndRecords) {
  {
    CheckpointStore store_a(dir_.string(), 0xAAAAu);
    ByteWriter w;
    w.f64(1.5);
    store_a.append(0, w.bytes());
    store_a.append(1, w.bytes());
    store_a.append(2, w.bytes());
    CheckpointStore store_b(dir_.string(), 0xBBBBu, ShardSpec{0, 2});
    store_b.append(0, w.bytes());
  }
  // A file with a corrupt header must be listed as unreadable, not trusted.
  std::ofstream(dir_ / "garbage.ethsmck") << "not a checkpoint";

  const auto files = scan_checkpoint_directory(dir_.string());
  ASSERT_EQ(files.size(), 3u);

  std::size_t readable = 0;
  for (const auto& file : files) {
    if (!file.readable) {
      EXPECT_NE(file.path.find("garbage"), std::string::npos);
      continue;
    }
    ++readable;
    if (file.fingerprint == 0xAAAAu) {
      EXPECT_EQ(file.records, 3u);
    } else {
      EXPECT_EQ(file.fingerprint, 0xBBBBu);
      EXPECT_EQ(file.records, 1u);
    }
    EXPECT_GT(file.bytes, 0u);
  }
  EXPECT_EQ(readable, 2u);
}

TEST_F(CheckpointScanTest, MissingDirectoryYieldsEmpty) {
  EXPECT_TRUE(scan_checkpoint_directory((dir_ / "nope").string()).empty());
}

TEST_F(CheckpointScanTest, TruncatedTailCountsOnlyValidRecords) {
  {
    CheckpointStore store(dir_.string(), 0xCCCCu);
    ByteWriter w;
    w.f64(2.5);
    store.append(0, w.bytes());
    store.append(1, w.bytes());
  }
  const auto before = scan_checkpoint_directory(dir_.string());
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(before[0].records, 2u);
  // Chop a few bytes off the second record: the scan must stop at the first
  // broken record, exactly like CheckpointStore's loader.
  fs::resize_file(before[0].path, fs::file_size(before[0].path) - 3);
  const auto after = scan_checkpoint_directory(dir_.string());
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].readable);
  EXPECT_EQ(after[0].records, 1u);
}

TEST_F(CheckpointScanTest, PresetSweepFingerprintsEqualARealSweepStore) {
  // For every preset, run a fresh checkpointed quick sweep and verify that
  // sweep_fingerprints (the plan listed without running) names exactly the
  // stores it wrote -- none missing, none extra -- and that the GC keep-set
  // (api::referenced_fingerprints) attributes each of them to that preset,
  // the property `ethsm checkpoint-stats --prune` relies on to never delete
  // a preset's records.
  const auto keep = api::referenced_fingerprints();
  for (const api::Preset& preset : api::presets()) {
    const fs::path dir = dir_ / preset.name;
    api::RunOptions options;
    options.checkpoint.directory = dir.string();
    const api::ExperimentSpec spec = preset.spec(/*quick=*/true);
    const auto result = api::run(spec, options);
    ASSERT_TRUE(result.complete()) << preset.name;

    std::set<std::uint64_t> written;
    for (const auto& file : scan_checkpoint_directory(dir.string())) {
      ASSERT_TRUE(file.readable) << file.path;
      written.insert(file.fingerprint);
    }
    const auto listed = api::sweep_fingerprints(spec);
    EXPECT_EQ(written, std::set<std::uint64_t>(listed.begin(), listed.end()))
        << preset.name;
    for (const std::uint64_t fp : written) {
      bool referenced = false;
      for (const auto& ref : keep) {
        referenced |= ref.fingerprint == fp &&
                      ref.owner == preset.name + " --quick";
      }
      EXPECT_TRUE(referenced) << preset.name;
    }
  }
}

// Runs under both `ctest -L checkpoint`-adjacent full suite and the Study*
// label filter (`ctest -L study`): it ties the two layers together.
using StudyGcScanTest = CheckpointScanTest;

TEST_F(StudyGcScanTest, StudyKeepSetCoversItsOwnSweepStore) {
  // A custom (non-preset) study sharing a checkpoint directory: the
  // fingerprints `checkpoint-stats --keep-study` derives from the expansion
  // must cover every file run_study wrote, or --prune would eat the
  // study's records.
  const api::StudySpec study = api::parse_study(
      "study = gc\n"
      "kind = threshold\n"
      "gammas = 0,1\n"
      "tolerance = 1e-2\n"
      "threshold_max_lead = 25\n"
      "variant.byz.rewards = byzantium\n"
      "variant.flat.rewards = flat:0.5\n");
  const auto entries = api::expand_study(study, /*quick=*/false);

  api::RunOptions options;
  options.checkpoint.directory = dir_.string();
  const auto result = api::run_study("gc", "", entries, options);
  ASSERT_TRUE(result.complete());

  std::set<std::uint64_t> keep;
  for (const bool quick : {false, true}) {
    for (const api::StudyEntry& entry : api::expand_study(study, quick)) {
      for (std::uint64_t fp : api::sweep_fingerprints(entry.spec)) {
        keep.insert(fp);
      }
    }
  }
  const auto files = scan_checkpoint_directory(dir_.string());
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    ASSERT_TRUE(file.readable) << file.path;
    EXPECT_TRUE(keep.count(file.fingerprint)) << file.path;
  }
}

}  // namespace
}  // namespace ethsm::support
