// Drives the `desword` CLI in-process through a full
// ps-gen -> aggregate -> prove -> verify workflow in a temp directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "cli_lib.h"
#include "common/rng.h"
#include "poc/poc.h"
#include "supplychain/rfid.h"
#include "zkedb/proof.h"

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

// A non-ownership proof is a function of the DPOC's key and its trie, so
// `prove` repeats byte for byte across runs, and two products' proofs
// share a child commitment only at one level, below a digit prefix they
// share.
TEST_F(CliTest, NonOwnershipProofsArePathFunctions) {
  ASSERT_EQ(run_cli({"ps-gen", "--q", "4", "--height", "8", "--rsa-bits",
                     "512", "--out", path("ps.bin")}),
            0);
  write_traces_json();
  ASSERT_EQ(run_cli({"aggregate", "--ps", path("ps.bin"), "--participant",
                     "v1", "--traces", path("traces.json"), "--poc",
                     path("v1.poc"), "--dpoc", path("v1.dpoc")}),
            0);
  const auto read = [this](const std::string& name) {
    std::ifstream in(path(name), std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  };
  const auto crs = std::make_shared<zkedb::EdbCrs>(
      zkedb::EdbPublicParams::deserialize(read("ps.bin")));
  const auto digits = [&](const Bytes& product) {
    return crs->digits_of(zkedb::key_for_identifier(*crs, product));
  };
  // A second absent product whose digit path shares its first two digits
  // with the first one's.
  const Bytes a = supplychain::make_epc(9, 9, 9);
  Bytes b;
  for (std::uint32_t serial = 10; b.empty(); ++serial) {
    ASSERT_LT(serial, 10000u);
    const Bytes candidate = supplychain::make_epc(9, 9, serial);
    const auto da = digits(a);
    const auto dc = digits(candidate);
    if (da[0] == dc[0] && da[1] == dc[1] && da != dc) b = candidate;
  }
  const auto prove = [&](const Bytes& product, const std::string& out) {
    ASSERT_EQ(run_cli({"prove", "--ps", path("ps.bin"), "--dpoc",
                       path("v1.dpoc"), "--product", to_hex(product), "--out",
                       path(out)}),
              0)
        << err_.str();
    EXPECT_NE(out_.str().find("non-ownership proof"), std::string::npos);
  };
  prove(a, "a1.proof");
  prove(a, "a2.proof");
  prove(b, "b.proof");
  EXPECT_EQ(read("a1.proof"), read("a2.proof"));

  const auto zk = [&](const std::string& name) {
    const poc::PocProof proof = poc::PocProof::deserialize(read(name));
    return zkedb::EdbNonMembershipProof::deserialize(*crs, proof.zk_proof);
  };
  const zkedb::EdbNonMembershipProof pa = zk("a1.proof");
  const std::vector<Bytes>& ca = pa.child_commitments;
  const std::vector<Bytes> cb = zk("b.proof").child_commitments;
  const std::vector<std::uint32_t> da = digits(a);
  const std::vector<std::uint32_t> db = digits(b);
  std::size_t shared = 0;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    for (std::size_t j = 0; j < cb.size(); ++j) {
      if (ca[i] != cb[j]) continue;
      ++shared;
      EXPECT_EQ(i, j) << "one commitment at two levels";
      // Above a shared level the paths agree, except where both leave one
      // trie node, at different digits, onto its soft backing.
      for (std::size_t k = 0; k < i; ++k) {
        EXPECT_TRUE(da[k] == db[k] || ca[k] == cb[k])
            << "level " << i << " shared below diverging digit " << k;
      }
    }
  }
  // The nodes at depths 1 and 2 lie on the shared digit prefix.
  EXPECT_GE(shared, 2u);

  // A third absent product that leaves the trie node the first one leaves,
  // at another absent digit, and follows the first one's digits below it:
  // every absent child of that node shows one backing, so from the backing
  // down the two proofs are one.
  const std::vector<std::vector<std::uint32_t>> committed = {
      digits(supplychain::make_epc(1, 2, 100)),
      digits(supplychain::make_epc(1, 2, 101))};
  std::size_t off = 0;  // the depth of the trie node `a` leaves
  for (const auto& dk : committed) {
    const auto m = std::mismatch(da.begin(), da.end(), dk.begin()).first;
    off = std::max(off, static_cast<std::size_t>(m - da.begin()));
  }
  const auto leaves_with_a = [&](const std::vector<std::uint32_t>& dc) {
    for (std::size_t k = 0; k < dc.size(); ++k) {
      if (k != off && dc[k] != da[k]) return false;
    }
    if (dc[off] == da[off]) return false;
    for (const auto& dk : committed) {
      if (std::equal(dk.begin(), dk.begin() + static_cast<long>(off) + 1,
                     dc.begin())) {
        return false;  // dc[off] is a committed child
      }
    }
    return true;
  };
  Bytes c;
  for (std::uint32_t serial = 10; c.empty(); ++serial) {
    ASSERT_LT(serial, 2000000u);
    const Bytes candidate = supplychain::make_epc(9, 9, serial);
    if (leaves_with_a(digits(candidate))) c = candidate;
  }
  prove(c, "c.proof");
  const zkedb::EdbNonMembershipProof pc = zk("c.proof");
  const Bignum& n = crs->params().qtmc_pk.n;
  EXPECT_NE(pa.teases[off].serialize(n), pc.teases[off].serialize(n));
  for (std::size_t i = off; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i], pc.child_commitments[i]) << "level " << i;
    if (i > off) {
      EXPECT_EQ(pa.teases[i].serialize(n), pc.teases[i].serialize(n))
          << "level " << i;
    }
  }
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
