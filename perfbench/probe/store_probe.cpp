// Times the CheckpointStore constructor, which walks every checkpoint file
// in its directory, on a directory a workload left behind.
//
//   store_probe DIR REPEATS
//
// Prints one JSON object: the number of checkpoint files and the median
// constructor time in seconds over REPEATS opens. The store is opened under
// a fingerprint no sweep uses, so the directory is read but never written.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "support/checkpoint.h"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: store_probe DIR REPEATS\n");
    return 2;
  }
  const std::string dir = argv[1];
  const int repeats = std::atoi(argv[2]);
  if (!std::filesystem::is_directory(dir) || repeats < 1) {
    std::fprintf(stderr, "store_probe: need an existing DIR and REPEATS >= 1\n");
    return 2;
  }
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files += entry.path().extension() == ".ethsmck";
  }
  constexpr std::uint64_t kUnusedFingerprint = 0x70726f6265ULL;
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const ethsm::support::CheckpointStore store(dir, kUnusedFingerprint);
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::nth_element(seconds.begin(), seconds.begin() + seconds.size() / 2,
                   seconds.end());
  std::printf("{\"files\": %zu, \"open_s\": %.9f}\n", files,
              seconds[seconds.size() / 2]);
  return 0;
}
