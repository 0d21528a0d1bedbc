// Fixture: invalidation frames pushed straight from a hash-map walk — the
// proxies hear their frames in the container's hash order, which differs
// from run to run. determinism-taint fires on the WriteAll with the loop
// as witness.
#include <string>
#include <unordered_map>

struct PushStream {
  bool WriteAll(const std::string& line);
};

class HashOrderPusher {
 public:
  void PushAll() {
    for (const auto& [site, frame] : frames_) {
      stream_.WriteAll(site + " " + frame);  // BUG: hash order
    }
  }

 private:
  PushStream stream_;
  std::unordered_map<std::string, std::string> frames_;
};
