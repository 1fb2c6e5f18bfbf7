// Implementation of the `desword` command-line tool.
//
// Kept as a library (thin main in desword_cli.cpp) so the test suite can
// drive every command in-process. Commands:
//
//   desword ps-gen     --out ps.bin [--q 16 --height 32 --rsa-bits 2048
//                      --group p256]
//   desword aggregate  --ps ps.bin --participant v1 --traces traces.json
//                      --poc v1.poc --dpoc v1.dpoc
//   desword prove      --ps ps.bin --dpoc v1.dpoc --product <hex-epc>
//                      --out proof.bin
//   desword verify     --ps ps.bin --poc v1.poc --product <hex-epc>
//                      --proof proof.bin
//   desword inspect    --ps ps.bin | --poc v1.poc | --traces traces.json
//   desword demo
//
// The traces JSON format:
//   { "traces": [ { "id": "300000...(24 hex chars)" |
//                   {"manager":1,"class":2,"serial":3},
//                   "operation": "process", "timestamp": 7,
//                   "ingredients": ["..."], "parameters": ["..."] }, ... ] }
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace desword::cli {

/// Entry point; returns the process exit code. Never throws — errors are
/// reported on `err` and mapped to exit code 2 (usage) or 1 (operation
/// failed / verification negative).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace desword::cli
