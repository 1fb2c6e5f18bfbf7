// Fixture: worker-context executor lambdas touching loop-owned state
// (rule loop-affinity). Only the direct touches fire; the nested
// transport_.post hand-back runs on the loop thread and is exempt, as is
// the waived scheduler_ line and the clean good_path pattern.
#include "common/executor.h"

namespace desword {

void Proxy::verify_hop() {
  executor_->post([this] {
    sessions_.erase(7);
    transport_.send(id_, peer_, type_, {});
    hop_in_flight_.erase(key_);
    finish_hop_verify(key_, {});
    verify_cache_->store(key_, {});
    scheduler_.finished(7);  // desword-lint: allow(loop-affinity)
    transport_.post([this] {
      finish_in_flight(key_, true, {});
      finish_hop_verify(key_, {});
      verify_cache_->store(key_, {});
    });
    transport_.remove_work();
  });
}

void Proxy::good_path() {
  executor_->post([this] {
    auto result = check();
    transport_.post([this, result] { finish_hop_verify(key_, result); });
  });
}

}  // namespace desword
