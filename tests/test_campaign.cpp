#include "runtime/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace ril::runtime {
namespace {

/// Unique-ish scratch path under the test working directory.
std::string scratch_path(const char* tag) {
  return std::string("campaign_test_") + tag + ".jsonl";
}

CampaignJob simple_job(const std::string& key, const std::string& payload) {
  CampaignJob job;
  job.key = key;
  job.run = [payload](JobContext&) { return payload; };
  return job;
}

TEST(Campaign, RunsJobsAndKeepsSubmissionOrder) {
  std::vector<CampaignJob> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(simple_job("job-" + std::to_string(i),
                              "\"value\":" + std::to_string(i * 10)));
  }
  const auto summary = run_campaign(jobs, {});
  ASSERT_EQ(summary.records.size(), 5u);
  EXPECT_EQ(summary.completed, 5u);
  EXPECT_EQ(summary.errors, 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(summary.records[i].key, "job-" + std::to_string(i));
    EXPECT_EQ(summary.records[i].status, "ok");
    EXPECT_EQ(json_number_field("{" + summary.records[i].payload + "}",
                                "value"),
              i * 10);
  }
}

TEST(Campaign, WorkersRunJobsConcurrently) {
  // Two jobs that each wait for the other to start: they can only both
  // finish if two workers run them at the same time.
  std::atomic<int> started{0};
  auto rendezvous = [&started](JobContext&) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("partner never started");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::string("\"met\":1");
  };
  std::vector<CampaignJob> jobs;
  jobs.push_back({"a", 0, rendezvous});
  jobs.push_back({"b", 0, rendezvous});
  CampaignOptions options;
  options.jobs = 2;
  const auto summary = run_campaign(jobs, options);
  EXPECT_EQ(summary.errors, 0u);
  EXPECT_EQ(summary.records[0].status, "ok");
  EXPECT_EQ(summary.records[1].status, "ok");
}

TEST(Campaign, ThrowingJobIsIsolated) {
  std::vector<CampaignJob> jobs;
  jobs.push_back(simple_job("good-1", "\"x\":1"));
  CampaignJob bad;
  bad.key = "bad";
  bad.run = [](JobContext&) -> std::string {
    throw std::runtime_error("cell exploded");
  };
  jobs.push_back(std::move(bad));
  jobs.push_back(simple_job("good-2", "\"x\":2"));

  const auto summary = run_campaign(jobs, {});
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.records[0].status, "ok");
  EXPECT_EQ(summary.records[1].status, "error");
  EXPECT_EQ(summary.records[1].error, "cell exploded");
  EXPECT_TRUE(summary.records[1].payload.empty());
  EXPECT_EQ(summary.records[2].status, "ok");
}

TEST(Campaign, WatchdogRaisesCancelAtDeadline) {
  CampaignJob job;
  job.key = "slow";
  job.timeout_seconds = 0.05;
  job.run = [](JobContext& ctx) -> std::string {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!ctx.cancelled()) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("cancel flag never raised");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return "\"cancelled\":1";
  };
  std::vector<CampaignJob> jobs;
  jobs.push_back(std::move(job));
  const auto summary = run_campaign(jobs, {});
  EXPECT_EQ(summary.records[0].status, "ok");
  EXPECT_EQ(json_number_field("{" + summary.records[0].payload + "}",
                              "cancelled"),
            1);
}

TEST(Campaign, NoDeadlineMeansNoCancel) {
  CampaignJob job;
  job.key = "steady";
  job.run = [](JobContext& ctx) -> std::string {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return ctx.cancelled() ? "\"cancelled\":1" : "\"cancelled\":0";
  };
  std::vector<CampaignJob> jobs;
  jobs.push_back(std::move(job));
  const auto summary = run_campaign(jobs, {});
  EXPECT_EQ(json_number_field("{" + summary.records[0].payload + "}",
                              "cancelled"),
            0);
}

TEST(Campaign, DuplicateKeysRejected) {
  std::vector<CampaignJob> jobs;
  jobs.push_back(simple_job("same", "\"x\":1"));
  jobs.push_back(simple_job("same", "\"x\":2"));
  EXPECT_THROW(run_campaign(jobs, {}), std::invalid_argument);
}

TEST(Campaign, CheckpointStreamsOneLinePerJob) {
  const std::string path = scratch_path("checkpoint");
  std::remove(path.c_str());
  std::vector<CampaignJob> jobs;
  jobs.push_back(simple_job("c-1", "\"v\":1"));
  jobs.push_back(simple_job("c-2", "\"v\":2"));
  CampaignOptions options;
  options.out_path = path;
  run_campaign(jobs, options);

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(json_string_field(line, "status"), "ok");
    EXPECT_FALSE(json_string_field(line, "key").empty());
    EXPECT_FALSE(json_object_field(line, "data").empty());
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(Campaign, ResumeSkipsCompletedJobs) {
  const std::string path = scratch_path("resume");
  std::remove(path.c_str());
  std::atomic<int> runs{0};
  auto counting_job = [&runs](const std::string& key) {
    CampaignJob job;
    job.key = key;
    job.run = [&runs, key](JobContext&) {
      runs.fetch_add(1);
      return "\"ran\":\"" + key + "\"";
    };
    return job;
  };

  CampaignOptions options;
  options.out_path = path;
  options.resume = true;
  {
    std::vector<CampaignJob> jobs;
    jobs.push_back(counting_job("r-1"));
    jobs.push_back(counting_job("r-2"));
    const auto summary = run_campaign(jobs, options);
    EXPECT_EQ(summary.completed, 2u);
    EXPECT_EQ(summary.cached, 0u);
  }
  EXPECT_EQ(runs.load(), 2);
  {
    // Second invocation with a third job: only the new job runs; cached
    // records come back with their recorded payloads.
    std::vector<CampaignJob> jobs;
    jobs.push_back(counting_job("r-1"));
    jobs.push_back(counting_job("r-2"));
    jobs.push_back(counting_job("r-3"));
    const auto summary = run_campaign(jobs, options);
    EXPECT_EQ(summary.completed, 1u);
    EXPECT_EQ(summary.cached, 2u);
    EXPECT_EQ(summary.records[0].status, "cached");
    EXPECT_EQ(json_string_field("{" + summary.records[0].payload + "}",
                                "ran"),
              "r-1");
    EXPECT_EQ(summary.records[2].status, "ok");
  }
  EXPECT_EQ(runs.load(), 3);
  std::remove(path.c_str());
}

TEST(Campaign, ResumeAfterKillIgnoresTruncatedLine) {
  // Simulate a campaign killed mid-write: the stream holds one complete
  // record, one error record, and one line cut off mid-JSON. Resume must
  // restore the first two and re-run the third.
  const std::string path = scratch_path("kill");
  {
    std::ofstream out(path);
    out << R"({"key":"k-1","status":"ok","queue_seconds":0.1,)"
        << R"("run_seconds":0.5,"data":{"verdict":"broken"}})" << "\n";
    out << R"({"key":"k-2","status":"error","queue_seconds":0.1,)"
        << R"("run_seconds":0.2,"error":"boom"})" << "\n";
    out << R"({"key":"k-3","status":"o)";  // killed mid-write
  }
  std::atomic<int> runs{0};
  std::vector<CampaignJob> jobs;
  for (const char* key : {"k-1", "k-2", "k-3"}) {
    CampaignJob job;
    job.key = key;
    job.run = [&runs](JobContext&) {
      runs.fetch_add(1);
      return std::string("\"fresh\":1");
    };
    jobs.push_back(std::move(job));
  }
  CampaignOptions options;
  options.out_path = path;
  options.resume = true;
  const auto summary = run_campaign(jobs, options);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(summary.cached, 2u);
  EXPECT_EQ(summary.records[0].status, "cached");
  EXPECT_EQ(json_string_field("{" + summary.records[0].payload + "}",
                              "verdict"),
            "broken");
  EXPECT_EQ(summary.records[1].status, "cached");
  EXPECT_EQ(summary.records[1].error, "boom");
  EXPECT_EQ(summary.records[2].status, "ok");
  std::remove(path.c_str());
}

TEST(Campaign, ResumeReadsRecordFieldsFromTheTopLevel) {
  // A cell's payload may carry fields named like the record's own. The
  // record has no "error" and its "data" object does: the restored record
  // must keep the top-level fields and leave "error" empty.
  const std::string path = scratch_path("top_level");
  {
    std::ofstream out(path);
    out << R"({"data":{"key":"other","status":"error","error":"inner",)"
        << R"("queue_seconds":9,"run_seconds":9},"key":"t-1","status":"ok",)"
        << R"("queue_seconds":0.25,"run_seconds":0.5})" << "\n";
  }
  std::atomic<int> runs{0};
  std::vector<CampaignJob> jobs;
  for (const char* key : {"t-1", "other"}) {
    CampaignJob job;
    job.key = key;
    job.run = [&runs](JobContext&) {
      runs.fetch_add(1);
      return std::string("\"fresh\":1");
    };
    jobs.push_back(std::move(job));
  }
  CampaignOptions options;
  options.out_path = path;
  options.resume = true;
  const auto summary = run_campaign(jobs, options);
  EXPECT_EQ(runs.load(), 1);  // only "other" runs: it has no record
  EXPECT_EQ(summary.cached, 1u);
  EXPECT_EQ(summary.records[0].status, "cached");
  EXPECT_EQ(summary.records[0].error, "");
  EXPECT_DOUBLE_EQ(summary.records[0].queue_seconds, 0.25);
  EXPECT_DOUBLE_EQ(summary.records[0].run_seconds, 0.5);
  EXPECT_EQ(json_string_field("{" + summary.records[0].payload + "}",
                              "error"),
            "inner");
  EXPECT_EQ(summary.records[1].status, "ok");
  std::remove(path.c_str());
}

TEST(Campaign, RecordJsonRoundTrips) {
  JobRecord record;
  record.key = "table1/2x2/3-blocks";
  record.status = "ok";
  record.payload = "\"cell\":\"0.61\",\"iterations\":12";
  record.queue_seconds = 1.25;
  record.run_seconds = 3.5;
  const std::string line = job_record_json(record);
  EXPECT_EQ(json_string_field(line, "key"), record.key);
  EXPECT_EQ(json_string_field(line, "status"), "ok");
  EXPECT_DOUBLE_EQ(json_number_field(line, "queue_seconds"), 1.25);
  EXPECT_DOUBLE_EQ(json_number_field(line, "run_seconds"), 3.5);
  EXPECT_EQ(json_object_field(line, "data"), record.payload);
  EXPECT_EQ(json_string_field("{" + json_object_field(line, "data") + "}",
                              "cell"),
            "0.61");
}

TEST(Campaign, JsonNumberFieldIsLocaleIndependent) {
  // Regression: json_number_field used std::stod, whose decimal separator
  // follows the global LC_NUMERIC — resuming a campaign under a
  // comma-decimal locale truncated "0.5" to 0, corrupting the restored
  // queue_seconds/run_seconds of every cached record.
  const std::string line =
      R"({"key":"k","status":"ok","queue_seconds":0.5,"run_seconds":1.25})";
  EXPECT_DOUBLE_EQ(json_number_field(line, "queue_seconds"), 0.5);

  const char* before = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = before ? before : "C";
  bool switched = false;
  for (const char* name :
       {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      switched = true;
      break;
    }
  }
  if (!switched) GTEST_SKIP() << "no comma-decimal locale installed";

  char formatted[16];
  std::snprintf(formatted, sizeof(formatted), "%.1f", 0.5);
  const bool comma_decimal =
      std::string(formatted).find(',') != std::string::npos;
  const double queue_seconds = json_number_field(line, "queue_seconds");
  const double run_seconds = json_number_field(line, "run_seconds");
  std::setlocale(LC_NUMERIC, saved.c_str());
  if (!comma_decimal) {
    GTEST_SKIP() << "selected locale does not use comma decimals";
  }
  EXPECT_DOUBLE_EQ(queue_seconds, 0.5);
  EXPECT_DOUBLE_EQ(run_seconds, 1.25);
}

TEST(Campaign, CheckpointWriteFailureCountedNotSilent) {
  // Regression: a checkpoint stream on a full disk used to drop JSONL
  // records without any signal, so --resume re-ran or lost those cells.
  {
    std::ofstream probe("/dev/full", std::ios::app);
    if (!probe.is_open()) GTEST_SKIP() << "/dev/full not available";
    probe << "x";
    probe.flush();
    if (!probe.fail()) GTEST_SKIP() << "/dev/full does not reject writes";
  }
  std::vector<CampaignJob> jobs;
  jobs.push_back(simple_job("a", "\"v\":1"));
  jobs.push_back(simple_job("b", "\"v\":2"));
  CampaignOptions options;
  options.out_path = "/dev/full";
  const auto summary = run_campaign(jobs, options);
  EXPECT_EQ(summary.completed, 2u);
  EXPECT_EQ(summary.errors, 0u);  // the cells themselves succeeded
  EXPECT_EQ(summary.checkpoint_failures, 2u);
}

TEST(Campaign, JsonlWriterReportsFailuresPerLine) {
  {
    std::ofstream probe("/dev/full", std::ios::app);
    if (!probe.is_open()) GTEST_SKIP() << "/dev/full not available";
    probe << "x";
    probe.flush();
    if (!probe.fail()) GTEST_SKIP() << "/dev/full does not reject writes";
  }
  JsonlWriter writer;
  writer.open("/dev/full");
  EXPECT_FALSE(writer.write_line("{\"a\":1}"));
  EXPECT_FALSE(writer.write_line("{\"b\":2}"));
  EXPECT_EQ(writer.failures(), 2u);

  JsonlWriter good;
  const std::string path = scratch_path("jsonl_writer");
  std::remove(path.c_str());
  good.open(path);
  EXPECT_TRUE(good.write_line("{\"a\":1}"));
  EXPECT_EQ(good.failures(), 0u);
  std::remove(path.c_str());
}

TEST(Campaign, JobQueueRunsSubmittedJobsAndCancelsQueued) {
  JobQueue queue(2);
  std::mutex mutex;
  std::vector<std::string> done_keys;
  for (int i = 0; i < 4; ++i) {
    queue.submit("q-" + std::to_string(i), 0,
                 [](JobContext&) { return std::string("\"ok\":1"); },
                 [&](JobRecord&& record) {
                   std::lock_guard<std::mutex> lock(mutex);
                   done_keys.push_back(record.key + ":" + record.status);
                 });
  }
  queue.wait_idle();
  EXPECT_EQ(done_keys.size(), 4u);
  for (const std::string& k : done_keys) {
    EXPECT_NE(k.find(":ok"), std::string::npos) << k;
  }

  // After cancel_all, running jobs see their cancel flag and queued or
  // newly submitted jobs fail fast as "cancelled".
  queue.cancel_all();
  JobRecord late;
  queue.submit("late", 0, [](JobContext&) { return std::string(); },
               [&](JobRecord&& record) { late = std::move(record); });
  EXPECT_EQ(late.status, "error");
  EXPECT_EQ(late.error, "cancelled");
}

TEST(Campaign, CancelAllReachesJobsPoppedButNotYetArmed) {
  // Regression: a worker could pop a job (cancelling_ still false), lose
  // the CPU before arm() registered its JobContext, and then miss the
  // cancel_all() sweep over active_ entirely — with no deadline the job
  // spun forever and wait_idle()/~JobQueue hung. arm() now re-checks the
  // cancelling flag after registering. Hammer the window: submit spin-
  // until-cancelled jobs and cancel immediately; every round must drain.
  for (int round = 0; round < 25; ++round) {
    JobQueue queue(2);
    for (int i = 0; i < 4; ++i) {
      queue.submit("spin-" + std::to_string(i), /*timeout_seconds=*/0,
                   [](JobContext& ctx) {
                     while (!ctx.cancelled()) {
                       std::this_thread::sleep_for(
                           std::chrono::microseconds(50));
                     }
                     return std::string();
                   },
                   nullptr);
    }
    queue.cancel_all();
    queue.wait_idle();  // hangs here (test timeout) without the fix
  }
}

TEST(Campaign, JsonHelpersHandleEscapesAndNesting) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  const std::string line =
      R"({"key":"x","msg":"say \"hi\"","data":{"inner":{"n":2},"s":"{"}})";
  EXPECT_EQ(json_string_field(line, "msg"), "say \"hi\"");
  EXPECT_EQ(json_object_field(line, "data"), R"("inner":{"n":2},"s":"{")");
  EXPECT_EQ(json_number_field(line, "absent", -7), -7);
  EXPECT_EQ(json_string_field(line, "absent"), "");
}

TEST(Campaign, JsonStringFieldRoundTripsEveryByte) {
  // json_escape emits \u00XX for control characters; json_string_field
  // must read every byte back as it was written.
  std::string all;
  for (int b = 0; b <= 0xff; ++b) all += static_cast<char>(b);
  const std::string line = "{\"s\":\"" + json_escape(all) + "\"}";
  EXPECT_EQ(json_string_field(line, "s"), all);
  const std::string mixed = "a\x01" "b\fc/";
  const std::string mixed_line = "{\"s\":\"" + json_escape(mixed) + "\"}";
  EXPECT_EQ(json_string_field(mixed_line, "s"), mixed);
}

TEST(Campaign, JsonStringFieldDecodesStandardEscapes) {
  EXPECT_EQ(json_string_field(R"({"s":"x\u0041\b"})", "s"), "xA\b");
  EXPECT_EQ(json_string_field(R"({"s":"\u0041\b\f\/\"\\"})", "s"),
            "A\b\f/\"\\");
  EXPECT_EQ(json_string_field(R"({"s":"\n\r\t"})", "s"), "\n\r\t");
  // \uXXXX decodes to UTF-8; a surrogate pair joins into one code point.
  EXPECT_EQ(json_string_field(R"({"s":"\u00e9\u20AC"})", "s"),
            "\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(json_string_field(R"({"s":"\ud83d\ude00"})", "s"),
            "\xf0\x9f\x98\x80");
  // An unpaired surrogate becomes U+FFFD.
  EXPECT_EQ(json_string_field(R"({"s":"\ud83dx"})", "s"), "\xef\xbf\xbdx");
  // Malformed hex reads like an unterminated string.
  EXPECT_EQ(json_string_field(R"({"s":"a\u12G4"})", "s"), "");
  EXPECT_EQ(json_string_field(R"({"s":"a\u12"})", "s"), "");
  EXPECT_EQ(json_string_field(R"({"s":"unterminated)", "s"), "");
}

TEST(Campaign, JsonBoolAndTopLevelFields) {
  const std::string line =
      R"({"a":true,"data":{"b":true,"list":[{"c":1}]},"b": false})";
  EXPECT_TRUE(json_bool_field(line, "a"));
  EXPECT_TRUE(json_bool_field(line, "absent", true));
  EXPECT_FALSE(json_bool_field(R"({"a":"true"})", "a"));
  const std::string top = top_level_fields(line);
  EXPECT_EQ(top, R"({"a":true,"data":{},"b": false})");
  EXPECT_FALSE(json_bool_field(top, "b", true));
  EXPECT_TRUE(json_bool_field(line, "b"));  // the nested one comes first
}

}  // namespace
}  // namespace ril::runtime
