// Fixture pair of push_taint_violation.cc: the same push after collecting
// the frames and sorting them — the sort cleanses the hash-order taint
// before anything reaches WriteAll.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

struct PushStream {
  bool WriteAll(const std::string& line);
};

class SortedPusher {
 public:
  void PushAll() {
    std::vector<std::string> lines;
    for (const auto& [site, frame] : frames_) {
      lines.push_back(site + " " + frame);
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& line : lines) {
      stream_.WriteAll(line);
    }
  }

 private:
  PushStream stream_;
  std::unordered_map<std::string, std::string> frames_;
};
