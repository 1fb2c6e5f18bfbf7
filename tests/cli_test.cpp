// Drives the `desword` CLI in-process through a full
// ps-gen -> aggregate -> prove -> verify workflow in a temp directory.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli_lib.h"
#include "common/rng.h"

namespace desword::cli {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("desword-cli-test-" + std::to_string(random_u64()));
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  int run_cli(std::initializer_list<std::string> args) {
    out_.str("");
    err_.str("");
    return run(std::vector<std::string>(args), out_, err_);
  }

  void write_traces_json() {
    std::ofstream f(path("traces.json"));
    f << R"({"traces": [
      {"id": {"manager": 1, "class": 2, "serial": 100},
       "operation": "manufacture", "timestamp": 5,
       "ingredients": ["api", "excipient"], "parameters": ["temp=20C"]},
      {"id": {"manager": 1, "class": 2, "serial": 101},
       "operation": "manufacture", "timestamp": 6}
    ]})";
  }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

// Hex EPC for manager=1 class=2 serial=100 (see supplychain::make_epc).
constexpr const char* kProduct100 = "300000000100000200000064";
constexpr const char* kGhost = "300000000900000900000009";

TEST_F(CliTest, FullWorkflow) {
  ASSERT_EQ(run_cli({"ps-gen", "--q", "4", "--height", "8", "--rsa-bits",
                     "512", "--out", path("ps.bin")}),
            0)
      << err_.str();
  write_traces_json();
  ASSERT_EQ(run_cli({"aggregate", "--ps", path("ps.bin"), "--participant",
                     "v1", "--traces", path("traces.json"), "--poc",
                     path("v1.poc"), "--dpoc", path("v1.dpoc")}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("aggregated 2 traces"), std::string::npos);

  // Ownership proof for a committed product verifies.
  ASSERT_EQ(run_cli({"prove", "--ps", path("ps.bin"), "--dpoc",
                     path("v1.dpoc"), "--product", kProduct100, "--out",
                     path("own.proof")}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("ownership proof"), std::string::npos);
  ASSERT_EQ(run_cli({"verify", "--ps", path("ps.bin"), "--poc",
                     path("v1.poc"), "--product", kProduct100, "--proof",
                     path("own.proof")}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("VALID ownership proof"), std::string::npos);
  EXPECT_NE(out_.str().find("operation=manufacture"), std::string::npos);

  // Non-ownership proof for an unknown product verifies.
  ASSERT_EQ(run_cli({"prove", "--ps", path("ps.bin"), "--dpoc",
                     path("v1.dpoc"), "--product", kGhost, "--out",
                     path("nown.proof")}),
            0);
  EXPECT_NE(out_.str().find("non-ownership proof"), std::string::npos);
  ASSERT_EQ(run_cli({"verify", "--ps", path("ps.bin"), "--poc",
                     path("v1.poc"), "--product", kGhost, "--proof",
                     path("nown.proof")}),
            0);
  EXPECT_NE(out_.str().find("VALID non-ownership proof"), std::string::npos);

  // Cross-product proof replay is rejected with exit code 1.
  EXPECT_EQ(run_cli({"verify", "--ps", path("ps.bin"), "--poc",
                     path("v1.poc"), "--product", kGhost, "--proof",
                     path("own.proof")}),
            1);
  EXPECT_NE(out_.str().find("BAD proof"), std::string::npos);
}

TEST_F(CliTest, InspectCommands) {
  ASSERT_EQ(run_cli({"ps-gen", "--q", "4", "--height", "8", "--rsa-bits",
                     "512", "--out", path("ps.bin")}),
            0);
  ASSERT_EQ(run_cli({"inspect", "--ps", path("ps.bin")}), 0);
  EXPECT_NE(out_.str().find("q=4 height=8"), std::string::npos);

  write_traces_json();
  ASSERT_EQ(run_cli({"aggregate", "--ps", path("ps.bin"), "--participant",
                     "v1", "--traces", path("traces.json"), "--poc",
                     path("v1.poc"), "--dpoc", path("v1.dpoc")}),
            0);
  ASSERT_EQ(run_cli({"inspect", "--poc", path("v1.poc")}), 0);
  EXPECT_NE(out_.str().find("POC of participant v1"), std::string::npos);
}

TEST_F(CliTest, UsageErrors) {
  EXPECT_EQ(run_cli({}), 2);
  EXPECT_EQ(run_cli({"no-such-command"}), 2);
  EXPECT_EQ(run_cli({"ps-gen"}), 2);  // missing --out
  EXPECT_EQ(run_cli({"ps-gen", "--out"}), 2);  // flag without value
  EXPECT_EQ(run_cli({"ps-gen", "--out", path("x"), "--bogus", "1"}), 2);
  // ps-gen has no soft-backing flag: backing is always shared.
  EXPECT_EQ(run_cli({"ps-gen", "--out", path("x"), "--soft-mode", "per-child"}),
            2);
  EXPECT_EQ(run_cli({"inspect"}), 2);
  EXPECT_FALSE(err_.str().empty());
}

TEST_F(CliTest, OperationalErrors) {
  // Missing file -> exit 1, not a crash.
  EXPECT_EQ(run_cli({"inspect", "--ps", path("missing.bin")}), 1);
  // Malformed product id.
  ASSERT_EQ(run_cli({"ps-gen", "--q", "4", "--height", "8", "--rsa-bits",
                     "512", "--out", path("ps.bin")}),
            0);
  write_traces_json();
  ASSERT_EQ(run_cli({"aggregate", "--ps", path("ps.bin"), "--participant",
                     "v1", "--traces", path("traces.json"), "--poc",
                     path("v1.poc"), "--dpoc", path("v1.dpoc")}),
            0);
  EXPECT_EQ(run_cli({"prove", "--ps", path("ps.bin"), "--dpoc",
                     path("v1.dpoc"), "--product", "zz", "--out",
                     path("p.bin")}),
            2);
  // Corrupt DPOC file.
  std::ofstream(path("broken.dpoc")) << "garbage";
  EXPECT_EQ(run_cli({"prove", "--ps", path("ps.bin"), "--dpoc",
                     path("broken.dpoc"), "--product", kProduct100, "--out",
                     path("p.bin")}),
            1);
}

TEST_F(CliTest, DemoRuns) {
  EXPECT_EQ(run_cli({"demo"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("good product query"), std::string::npos);
  EXPECT_NE(out_.str().find("[complete]"), std::string::npos);
}

}  // namespace
}  // namespace desword::cli
