// `rtp_cli --socket=PATH` against an in-process Server must print exactly
// what in-process `rtp_cli` prints for the same inputs: both render
// through the result contract of serve/ops.h. Also pins the matrix
// decoder's rejection of replies that do not describe the requested grid
// (a corrupted reply must not reach the renderer, which indexes by them).

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/json.h"
#include "serve/ops.h"
#include "serve/server.h"

namespace rtp::serve {
namespace {

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

std::string DataPath(const char* name) {
  return std::string(RTP_EXAMPLES_DATA_DIR) + "/" + name;
}

struct RunResult {
  int exit_code;
  std::string stdout_text;
};

RunResult RunCli(const std::string& args) {
  std::string cmd = Quoted(RTP_CLI_BINARY) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  int status = pclose(pipe);
  return RunResult{WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

class ServeCliTest : public testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    const std::string name =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    ServerOptions options;
    options.socket_path = "/tmp/rtp_serve_cli_test_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1)) + ".sock";
    auto server_or = Server::Start(options);
    ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
    server_ = std::move(server_or).value();
    remote_ = "--socket=" + Quoted(options.socket_path) + " ";

    // exam.xml with the second math exam (same mark 15) ranked 3, not 2:
    // fd1 ("same discipline and mark, same rank") is violated.
    std::ifstream in(DataPath("exam.xml"));
    std::ostringstream exam;
    exam << in.rdbuf();
    std::string bad = exam.str();
    size_t second = bad.find("<rank>2</rank>", bad.find("<rank>2</rank>") + 1);
    ASSERT_NE(second, std::string::npos);
    bad.replace(second, 14, "<rank>3</rank>");
    bad_xml_ = testing::TempDir() + "/serve_cli_" + name + "_bad.xml";
    std::ofstream(bad_xml_) << bad;

    ASSERT_EQ(RunCli(remote_ + "load t exam " + Quoted(DataPath("exam.xml")))
                  .exit_code,
              0);
    ASSERT_EQ(RunCli(remote_ + "load t bad " + Quoted(bad_xml_)).exit_code,
              0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    std::remove(bad_xml_.c_str());
  }

  // Runs `remote_args` through the daemon and `local_args` in-process and
  // expects the same stdout and exit code; returns the remote run.
  RunResult ExpectIdentical(const std::string& remote_args,
                            const std::string& local_args) {
    RunResult remote = RunCli(remote_ + remote_args);
    RunResult local = RunCli(local_args);
    EXPECT_EQ(remote.stdout_text, local.stdout_text) << remote_args;
    EXPECT_EQ(remote.exit_code, local.exit_code) << remote_args;
    return remote;
  }

  std::unique_ptr<Server> server_;
  std::string remote_;
  std::string bad_xml_;
};

TEST_F(ServeCliTest, RemoteOutputIsByteIdenticalToLocal) {
  const std::string exam = Quoted(DataPath("exam.xml"));
  const std::string pattern = Quoted(DataPath("update_u.pattern"));
  const std::string fd1 = Quoted(DataPath("fd1.fd"));
  const std::string fds = Quoted(DataPath("fd1.fd") + "," + DataPath("fd5.fd"));
  const std::string schema = Quoted(DataPath("exam.schema"));

  RunResult eval = ExpectIdentical("eval t exam " + pattern,
                                   "eval " + pattern + " " + exam);
  EXPECT_EQ(eval.stdout_text, "1 tuple(s)\n<level>B</level>\n");

  EXPECT_EQ(ExpectIdentical("checkfd t exam " + fd1,
                            "checkfd " + fd1 + " " + exam)
                .exit_code,
            0);
  RunResult violated = ExpectIdentical(
      "checkfd t bad " + fd1, "checkfd " + fd1 + " " + Quoted(bad_xml_));
  EXPECT_EQ(violated.exit_code, 1);
  EXPECT_EQ(violated.stdout_text.rfind("VIOLATED", 0), 0u)
      << violated.stdout_text;

  EXPECT_EQ(ExpectIdentical("matrix t " + fds + " " + pattern + " " + schema,
                            "matrix " + fds + " " + pattern + " " + schema)
                .exit_code,
            0);
  EXPECT_EQ(ExpectIdentical("matrix t " + fds + " " + pattern,
                            "matrix " + fds + " " + pattern)
                .exit_code,
            1);
  RunResult tripped =
      ExpectIdentical("--max-states=50 matrix t " + fds + " " + pattern +
                          " " + schema,
                      "--max-states=50 matrix " + fds + " " + pattern + " " +
                          schema);
  EXPECT_NE(tripped.stdout_text.find("pair(s) over budget"),
            std::string::npos)
      << tripped.stdout_text;
}

// A budget trip on a single-document eval or checkfd has no verdict: both
// ways exit 2 (the texts differ — an error status remotely, a "no result"
// line locally).
TEST_F(ServeCliTest, BudgetTripExitsTwoBothWays) {
  const std::string exam = Quoted(DataPath("exam.xml"));
  const std::string pattern = Quoted(DataPath("update_u.pattern"));
  const std::string fd1 = Quoted(DataPath("fd1.fd"));
  EXPECT_EQ(RunCli(remote_ + "--max-steps=1 eval t exam " + pattern).exit_code,
            2);
  EXPECT_EQ(RunCli("--max-steps=1 eval " + pattern + " " + exam).exit_code, 2);
  EXPECT_EQ(RunCli(remote_ + "--max-steps=1 checkfd t exam " + fd1).exit_code,
            2);
  EXPECT_EQ(RunCli("--max-steps=1 checkfd " + fd1 + " " + exam).exit_code, 2);
}

TEST(ServeCliConnectTest, UnreachableDaemonExitsThree) {
  EXPECT_EQ(RunCli("--socket=/nonexistent/rtpd.sock stats").exit_code, 3);
}

TEST(ServeOpsTest, MatrixDecoderRoundTripsTheEncoder) {
  MatrixResult result;
  result.num_fds = 1;
  result.num_classes = 2;
  result.independent = 1;
  result.cells = {MatrixCell{0, 0, true, 7, StatusCode::kOk},
                  MatrixCell{0, 1, false, 0, StatusCode::kDeadlineExceeded}};
  JsonValue reply = JsonValue::Object();
  EncodeMatrixResult(result, &reply);
  auto decoded = DecodeMatrixResult(reply, 1, 2);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->independent, 1u);
  ASSERT_EQ(decoded->cells.size(), 2u);
  EXPECT_TRUE(decoded->cells[0].independent);
  EXPECT_EQ(decoded->cells[0].product_size, 7);
  EXPECT_EQ(decoded->cells[1].class_index, 1u);
  EXPECT_EQ(decoded->cells[1].status, StatusCode::kDeadlineExceeded);
}

// A hand-made matrix reply with one entry per (fd, class) pair listed.
JsonValue MatrixReply(int64_t num_fds, int64_t num_classes,
                      const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  JsonValue entries = JsonValue::Array();
  for (const auto& [fd, cls] : pairs) {
    entries.Push(JsonValue::Object()
                     .Add("fd", JsonValue::Int(fd))
                     .Add("class", JsonValue::Int(cls))
                     .Add("independent", JsonValue::Bool(true))
                     .Add("product_size", JsonValue::Int(1)));
  }
  return JsonValue::Object()
      .Add("num_fds", JsonValue::Int(num_fds))
      .Add("num_classes", JsonValue::Int(num_classes))
      .Add("independent", JsonValue::Int(static_cast<int64_t>(pairs.size())))
      .Add("entries", std::move(entries));
}

// Every reply below answers a 1x2 request; only the first fits it.
TEST(ServeOpsTest, MatrixDecoderRejectsRepliesOutsideTheRequestedGrid) {
  EXPECT_TRUE(DecodeMatrixResult(MatrixReply(1, 2, {{0, 0}, {0, 1}}), 1, 2)
                  .ok());
  const JsonValue kBad[] = {
      MatrixReply(2, 2, {{0, 0}, {0, 1}}),   // dimensions differ
      MatrixReply(1, -1, {{0, 0}, {0, 1}}),  // negative dimension
      MatrixReply(1, 2, {{0, 0}}),           // too few entries
      MatrixReply(1, 2, {{0, 0}, {0, 1}, {0, 1}}),  // too many entries
      MatrixReply(1, 2, {{0, 0}, {0, 2}}),   // class index out of range
      MatrixReply(1, 2, {{0, 0}, {1, 1}}),   // fd index out of range
      MatrixReply(1, 2, {{0, 0}, {-1, 1}}),  // negative index
      MatrixReply(1, 2, {{0, 1}, {0, 0}}),   // not row-major
      JsonValue::Object().Add("entries", JsonValue::String("x")),
  };
  for (const JsonValue& reply : kBad) {
    auto decoded = DecodeMatrixResult(reply, 1, 2);
    ASSERT_FALSE(decoded.ok()) << reply.Serialize();
    EXPECT_EQ(decoded.status().code(), StatusCode::kTransportError)
        << decoded.status().ToString();
  }
}

}  // namespace
}  // namespace rtp::serve
