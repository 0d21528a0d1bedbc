// Tests for the replay farm (determinism across worker counts, the JSONL
// stream's submission order) and the string interner backing the
// proxy-cache and site-list hot paths.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/intern.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "replay/experiments.h"
#include "replay/farm.h"
#include "trace/presets.h"
#include "trace/workload.h"
#include "util/rng.h"

namespace webcc::replay {
namespace {

// Miniature traces for the six table rows (1% of the real request counts)
// keep the 36 replays of the determinism test inside test budgets; the
// code path is identical to the full-size runs.
std::map<trace::TraceName, trace::Trace> ScaledDownTraces(
    const std::vector<ExperimentSpec>& specs) {
  std::map<trace::TraceName, trace::Trace> traces;
  for (const ExperimentSpec& spec : specs) {
    if (traces.count(spec.trace) != 0) continue;
    trace::WorkloadConfig small = trace::GetPreset(spec.trace).workload;
    small.total_requests /= 100;
    small.num_documents /= 10;
    small.num_clients /= 10;
    traces.emplace(spec.trace, trace::GenerateTrace(small));
  }
  return traces;
}

std::vector<ReplayConfig> AllCells(
    const std::vector<ExperimentSpec>& specs,
    const std::map<trace::TraceName, trace::Trace>& traces) {
  std::vector<ReplayConfig> configs;
  for (const ExperimentSpec& spec : specs) {
    for (const core::Protocol protocol :
         {core::Protocol::kAdaptiveTtl, core::Protocol::kPollEveryTime,
          core::Protocol::kInvalidation}) {
      configs.push_back(
          MakeReplayConfig(spec, protocol, traces.at(spec.trace)));
    }
  }
  return configs;
}

TEST(Farm, WorkerCountDoesNotChangeTheSimulation) {
  // Every Table 3 + Table 4 cell, replayed with one worker and with eight:
  // each replay is its own single-threaded deterministic simulation, so
  // every metric except host timing must match bit for bit.
  const auto specs = AllTableExperiments();
  const auto traces = ScaledDownTraces(specs);
  const auto configs = AllCells(specs, traces);

  const std::vector<ReplayMetrics> serial = RunAll(configs, 1);
  const std::vector<ReplayMetrics> farmed = RunAll(configs, 8);

  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(farmed.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_TRUE(SameSimulation(serial[i], farmed[i])) << "cell " << i;
    EXPECT_GT(serial[i].sim_events_executed, 0u);
    EXPECT_GT(serial[i].sim_peak_queue_depth, 0u);
  }
}

TEST(Farm, MatchesDirectRunReplay) {
  const auto specs = Table3Experiments();
  const auto traces = ScaledDownTraces({specs[0]});
  const ReplayConfig config = MakeReplayConfig(
      specs[0], core::Protocol::kInvalidation, traces.at(specs[0].trace));

  const ReplayMetrics direct = RunReplay(config);
  const std::vector<ReplayMetrics> farmed = RunAll({config}, 4);
  ASSERT_EQ(farmed.size(), 1u);
  EXPECT_TRUE(SameSimulation(direct, farmed[0]));
}

TEST(Farm, ResultsArriveInSubmissionOrder) {
  const auto specs = Table3Experiments();
  const auto traces = ScaledDownTraces(specs);
  const auto configs = AllCells(specs, traces);

  const std::vector<ReplayMetrics> results = RunAll(configs, 8);
  ASSERT_EQ(results.size(), configs.size());
  // Slot i must hold config i's replay: requests_issued equals that
  // config's trace size, which differs across the three traces.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i].requests_issued, configs[i].trace->records.size())
        << "slot " << i;
  }
  EXPECT_TRUE(RunAll({}, 2).empty());  // an empty batch returns empty
}

// Each config's trace, replayed alone into its own JsonlTraceSink.
std::string OwnSinkTrace(ReplayConfig config) {
  std::ostringstream text;
  obs::JsonlTraceSink sink(text);
  config.trace_sink = &sink;
  RunReplay(config);
  return text.str();
}

TEST(Farm, JsonlStreamConcatenatesEachReplaysOwnTrace) {
  const auto specs = Table3Experiments();
  const auto traces = ScaledDownTraces(specs);
  const auto configs = AllCells(specs, traces);
  std::string expected;
  for (const ReplayConfig& config : configs) expected += OwnSinkTrace(config);
  ASSERT_FALSE(expected.empty());

  for (const unsigned workers : {1u, 8u}) {
    std::ostringstream streamed;
    RunAll(configs, workers, &streamed);
    EXPECT_EQ(streamed.str(), expected) << workers << " workers";
  }
}

// Records which thread made each write. The first write stalls: it is the
// first replay's run_begin (that replay streams straight into the sink), so
// the stall keeps the first replay running while a short second one ends.
class RecordingStreambuf final : public std::streambuf {
 public:
  struct Write {
    std::thread::id thread;
    std::string bytes;
  };
  // RunAll hands the stream from writer to writer under its lock, so only
  // one thread touches this at a time.
  std::vector<Write> writes;

 protected:
  std::streamsize xsputn(const char* data, std::streamsize size) override {
    if (writes.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    writes.push_back({std::this_thread::get_id(),
                      std::string(data, static_cast<std::size_t>(size))});
    return size;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char byte = traits_type::to_char_type(c);
      xsputn(&byte, 1);
    }
    return traits_type::not_eof(c);
  }
};

TEST(Farm, LongFirstReplayStillStreamsFirst) {
  // The first replay runs the whole scaled-down trace, the second its first
  // 50 requests. Under two workers the second starts beside the first,
  // buffers, and finishes first; the first replay's thread then writes the
  // buffer out after its own trace, in one piece.
  const auto specs = Table3Experiments();
  const auto traces = ScaledDownTraces({specs[0]});
  const trace::Trace& full = traces.at(specs[0].trace);
  trace::Trace head = full;
  head.records.resize(50);
  const std::vector<ReplayConfig> configs = {
      MakeReplayConfig(specs[0], core::Protocol::kInvalidation, full),
      MakeReplayConfig(specs[0], core::Protocol::kInvalidation, head)};
  const std::string first = OwnSinkTrace(configs[0]);
  const std::string second = OwnSinkTrace(configs[1]);

  RecordingStreambuf recording;
  std::ostream jsonl(&recording);
  RunAll(configs, 2, &jsonl);

  std::string streamed;
  for (const RecordingStreambuf::Write& write : recording.writes) {
    streamed += write.bytes;
  }
  EXPECT_EQ(streamed, first + second);
  // The first replay streamed line by line; the second arrived buffered.
  ASSERT_GT(recording.writes.size(), 2u);
  EXPECT_EQ(recording.writes.back().bytes, second);
  for (const RecordingStreambuf::Write& write : recording.writes) {
    EXPECT_EQ(write.thread, recording.writes.front().thread);
  }
}

TEST(Farm, DigestStreambufMatchesDigestJsonl) {
  const auto specs = Table3Experiments();
  const auto traces = ScaledDownTraces({specs[0]});
  const auto configs = AllCells({specs[0]}, traces);
  std::ostringstream text;
  RunAll(configs, 2, &text);
  obs::DigestStreambuf digest;
  std::ostream hashed(&digest);
  RunAll(configs, 2, &hashed);
  ASSERT_FALSE(text.str().empty());
  EXPECT_EQ(digest.digest(), obs::DigestJsonl(text.str()));

  // Single characters (overflow) and blocks (xsputn) hash alike.
  obs::DigestStreambuf mixed;
  std::ostream out(&mixed);
  out.put('{');
  out << "\"e\":\"run_begin\"";
  out.put('}');
  out << '\n';
  EXPECT_EQ(mixed.digest(), obs::DigestJsonl("{\"e\":\"run_begin\"}\n"));
  EXPECT_EQ(obs::DigestStreambuf().digest(), obs::DigestJsonl(""));
}

TEST(Interner, RoundTripsIdsAndNames) {
  core::Interner interner;
  const core::InternId a = interner.Intern("/docs/a.html");
  const core::InternId b = interner.Intern("/docs/b.html");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("/docs/a.html"), a);  // same string, same id
  EXPECT_EQ(interner.NameOf(a), "/docs/a.html");
  EXPECT_EQ(interner.NameOf(b), "/docs/b.html");
  EXPECT_EQ(interner.Find("/docs/a.html"), a);
  EXPECT_EQ(interner.Find("/docs/zzz.html"), core::kNoInternId);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(Interner, SurvivesIndexRehashAndStorageGrowth) {
  // Enough strings to force many rehashes of the id index and growth of
  // the name storage; every id and lookup must stay valid throughout
  // (the index keys are views into the stored names).
  core::Interner interner;
  std::vector<core::InternId> ids;
  constexpr int kCount = 10000;
  ids.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    ids.push_back(interner.Intern("/path/to/document-" + std::to_string(i)));
  }
  ASSERT_EQ(interner.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    const std::string name = "/path/to/document-" + std::to_string(i);
    EXPECT_EQ(interner.NameOf(ids[i]), name);
    EXPECT_EQ(interner.Find(name), ids[i]);
    EXPECT_EQ(interner.Intern(name), ids[i]);
  }
}

TEST(Interner, MatchesHashMapOracleOverRandomizedInternAndFind) {
  // 1.5e5 seeded calls, 1e5 of them Interns, against an unordered_map
  // oracle. Names
  // include the empty string and long shared prefixes (equal-length names
  // that differ only in their last bytes stress the stored-hash compare and
  // the probe chains). Ids must be dense and in first-sight order, a Find
  // of an absent name must never grow the table, and a NameOf reference
  // taken early must survive every later growth.
  const std::string prefix(200, '/');
  const auto name_of = [&prefix](std::uint64_t k) {
    if (k == 0) return std::string();
    switch (k % 4) {
      case 0:
        return prefix + std::to_string(k);
      case 1:
        return "/docs/" + std::to_string(k) + ".html";
      case 2:
        return std::string(k % 23, 'a') + std::to_string(k);
      default:
        return prefix + "site@" + std::to_string(k) + prefix;
    }
  };
  core::Interner interner;
  std::unordered_map<std::string, core::InternId> oracle;
  const std::string& first_name = interner.NameOf(interner.Intern("anchor"));
  oracle.emplace("anchor", 0);

  util::Rng rng(20241017);
  constexpr int kCalls = 150000;
  for (int call = 0; call < kCalls; ++call) {
    const std::string name = name_of(rng.NextBelow(60000));
    const auto known = oracle.find(name);
    if (rng.NextBelow(3) == 0) {
      const std::size_t before = interner.size();
      const core::InternId found = interner.Find(name);
      ASSERT_EQ(interner.size(), before);
      ASSERT_EQ(found,
                known == oracle.end() ? core::kNoInternId : known->second);
      continue;
    }
    const core::InternId id = interner.Intern(name);
    if (known == oracle.end()) {
      ASSERT_EQ(id, oracle.size());  // dense, first-sight order
      oracle.emplace(name, id);
    } else {
      ASSERT_EQ(id, known->second);
    }
    ASSERT_EQ(interner.size(), oracle.size());
  }
  ASSERT_GT(oracle.size(), 30000u);  // the table grew many times
  EXPECT_EQ(first_name, "anchor");
  for (const auto& [name, id] : oracle) {
    ASSERT_EQ(interner.NameOf(id), name);
    ASSERT_EQ(interner.Find(name), id);
  }
  EXPECT_EQ(interner.Find("never interned"), core::kNoInternId);
  EXPECT_EQ(interner.size(), oracle.size());
}

TEST(IdTable, MatchesMapOracleUnderRandomInsertAndErase) {
  // The proxy cache's resident-key index: ids are recycled through a free
  // list and keys come and go. Keys below 32 share the last nine home
  // slots of the table, whatever its size, so their probe runs wrap around
  // its end and every erase shifts a long run back; the rest hash
  // normally. After every operation each live key must still be found, and
  // the table must stay sized by the 64 keys that can be live at once.
  const auto hash_of = [](int key) {
    return key < 32 ? 0xffffffffu - static_cast<std::uint32_t>(key % 9)
                    : core::HashName(std::to_string(key));
  };
  core::IdTable table;
  std::vector<int> key_of;  // by id
  std::vector<core::InternId> free_ids;
  std::map<int, core::InternId> oracle;
  const auto find = [&](int key) {
    return table.Find(hash_of(key),
                      [&](core::InternId id) { return key_of[id] == key; });
  };
  util::Rng rng(20261018);
  for (int step = 0; step < 20000; ++step) {
    const int key = static_cast<int>(rng.NextBelow(64));
    const auto known = oracle.find(key);
    ASSERT_EQ(find(key),
              known == oracle.end() ? core::kNoInternId : known->second);
    if (known != oracle.end()) {
      table.Erase(known->second, hash_of(key));
      free_ids.push_back(known->second);
      oracle.erase(known);
    } else {
      core::InternId id = static_cast<core::InternId>(key_of.size());
      if (free_ids.empty()) {
        key_of.push_back(key);
      } else {
        id = free_ids.back();
        free_ids.pop_back();
        key_of[id] = key;
      }
      table.Insert(id, hash_of(key));
      oracle.emplace(key, id);
    }
    for (const auto& [live, id] : oracle) ASSERT_EQ(find(live), id);
  }
  EXPECT_LE(key_of.size(), 64u);
  EXPECT_LE(table.MemoryFootprintBytes(), 128u * 8u);
}

}  // namespace
}  // namespace webcc::replay
