// Golden test for `rtp_cli eval` output ordering: tuples print sorted by
// document order (lexicographic preorder comparison), not in enumeration
// order, and multi-document output is prefixed per file in command-line
// order. The pattern below selects (q, p) with q listed before p but
// enumerated innermost, so raw enumeration order would be
// (d3,b1),(d4,b1),(d3,b2),(d4,b2) — the sorted golden output differs.

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace {

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

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

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

class CliEvalOrderTest : public testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test as its own concurrent process, so every test
    // writes files of its own.
    const std::string prefix =
        testing::TempDir() + "/eval_order_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() + "_";
    pattern_file_ = prefix + "qp.pattern";
    doc1_file_ = prefix + "doc1.xml";
    doc2_file_ = prefix + "doc2.xml";
    // q precedes p in the select clause but q's image is chosen innermost
    // by the enumerator (the y edge expands after p under x).
    WriteFileOrDie(pattern_file_,
                   "root {\n"
                   "  w = r {\n"
                   "    x = a {\n"
                   "      p = b;\n"
                   "    }\n"
                   "    y = c {\n"
                   "      q = d;\n"
                   "    }\n"
                   "  }\n"
                   "}\n"
                   "select q, p;\n");
    WriteFileOrDie(doc1_file_,
                   "<r><a><b>1</b><b>2</b></a><c><d>3</d><d>4</d></c></r>");
    WriteFileOrDie(doc2_file_, "<r><a><b>9</b></a></r>");
  }

  std::string pattern_file_, doc1_file_, doc2_file_;
};

// The golden tuple block for doc1, in document order. Enumeration order
// would put <d>4</d>\t<b>1</b> second.
constexpr char kDoc1Tuples[] =
    "<d>3</d>\t<b>1</b>\n"
    "<d>3</d>\t<b>2</b>\n"
    "<d>4</d>\t<b>1</b>\n"
    "<d>4</d>\t<b>2</b>\n";

TEST_F(CliEvalOrderTest, SingleDocumentPrintsSortedWithoutPrefix) {
  RunResult r = RunCli("eval " + Quoted(pattern_file_) + " " +
                       Quoted(doc1_file_));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;
  EXPECT_EQ(r.stdout_text, "4 tuple(s)\n" + std::string(kDoc1Tuples));
}

TEST_F(CliEvalOrderTest, MultiDocumentPrefixesInCommandLineOrder) {
  RunResult r = RunCli("eval " + Quoted(pattern_file_) + " " +
                       Quoted(doc1_file_) + " " + Quoted(doc2_file_));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;
  EXPECT_EQ(r.stdout_text, doc1_file_ + ": 4 tuple(s)\n" +
                               std::string(kDoc1Tuples) + doc2_file_ +
                               ": 0 tuple(s)\n");
}

TEST_F(CliEvalOrderTest, OutputIdenticalForEveryJobsValue) {
  RunResult serial = RunCli("--jobs=1 eval " + Quoted(pattern_file_) + " " +
                            Quoted(doc1_file_) + " " + Quoted(doc2_file_));
  EXPECT_EQ(serial.exit_code, 0);
  for (const char* jobs : {"--jobs=2", "--jobs=8"}) {
    RunResult parallel = RunCli(std::string(jobs) + " eval " +
                                Quoted(pattern_file_) + " " +
                                Quoted(doc1_file_) + " " +
                                Quoted(doc2_file_));
    EXPECT_EQ(parallel.exit_code, 0);
    EXPECT_EQ(parallel.stdout_text, serial.stdout_text) << jobs;
  }
}

}  // namespace
