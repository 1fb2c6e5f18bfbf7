#include "tracer.h"

#include <chrono>
#include <fstream>

#include "common/serial.h"
#include "desword/messages.h"
#include "obs/metrics.h"

namespace perfbench {

namespace msg = desword::protocol::msg;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

desword::obs::Histogram& prove_hist() {
  static desword::obs::Histogram& h =
      desword::obs::histogram_metric("zkedb.prove.wall_ms");
  return h;
}

desword::obs::Histogram& verify_hist() {
  static desword::obs::Histogram& h =
      desword::obs::histogram_metric("zkedb.verify.wall_ms");
  return h;
}

bool is_query_phase(const std::string& type) {
  return type == msg::kQueryRequest || type == msg::kQueryResponse ||
         type == msg::kRevealRequest || type == msg::kRevealResponse ||
         type == msg::kNextHopRequest || type == msg::kNextHopResponse;
}

/// query_id of a query-phase payload (its leading u64), 0 otherwise.
std::uint64_t query_id_of(const std::string& type,
                          const desword::Bytes& payload) {
  if (!is_query_phase(type) || payload.size() < 8) return 0;
  return desword::BinaryReader(payload).u64();
}

}  // namespace

// --- Tracer ----------------------------------------------------------------

std::int64_t Tracer::open(std::string_view name, std::uint64_t query_id) {
  Span span;
  span.name = name;
  span.parent = current();
  span.query_id = query_id;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  at(index).end_ns = now_ns();
  // Spans close in LIFO order on the loop thread; tolerate a mismatch
  // (an exception unwinding several scopes) by popping down to `index`.
  while (!stack_.empty()) {
    const std::int64_t top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void Tracer::work_added() {
  desword::MutexLock lock(exec_mu_);
  if (exec_pending_++ == 0) exec_start_ns_ = now_ns();
}

void Tracer::work_removed() {
  desword::MutexLock lock(exec_mu_);
  if (exec_pending_ == 0) return;  // bracket opened before tracing began
  // Recorded whether or not loop spans are enabled (this runs on a worker);
  // the attribution only looks at intervals overlapping traced queries.
  if (--exec_pending_ == 0) {
    Span span;
    span.name = spans::kExecutorBusy;
    span.start_ns = exec_start_ns_;
    span.end_ns = now_ns();
    span.thread = 1;
    exec_spans_.push_back(span);
  }
}

std::vector<Span> Tracer::snapshot() const {
  std::vector<Span> all = spans_;
  desword::MutexLock lock(exec_mu_);
  all.insert(all.end(), exec_spans_.begin(), exec_spans_.end());
  return all;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  const std::vector<Span> all = snapshot();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"query_id\":" << s.query_id
        << ",\"thread\":" << s.thread << "}\n";
  }
}

// --- Scope -------------------------------------------------------------------

Scope::Scope(Tracer& tracer, std::string_view name, std::uint64_t query_id,
             bool probe_crypto)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  probe_crypto_ = probe_crypto;
  if (probe_crypto_) {
    prove_us0_ = prove_hist().sum_us();
    verify_us0_ = verify_hist().sum_us();
  }
  index_ = tracer_.open(name, query_id);
}

Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.close(index_);
  if (probe_crypto_) {
    Span& span = tracer_.at(index_);
    span.prove_us = prove_hist().sum_us() - prove_us0_;
    span.verify_us = verify_hist().sum_us() - verify_us0_;
  }
}

// --- TracingTransport ----------------------------------------------------------

TracingTransport::TracingTransport(desword::net::Transport& inner,
                                   Tracer& tracer,
                                   desword::net::NodeId proxy_id,
                                   bool probe_crypto)
    : inner_(inner),
      tracer_(tracer),
      proxy_id_(std::move(proxy_id)),
      probe_crypto_(probe_crypto) {}

void TracingTransport::register_node(const desword::net::NodeId& id,
                                     desword::net::Handler handler) {
  const std::string_view name =
      id == proxy_id_ ? spans::kProxyHandle : spans::kParticipantHandle;
  inner_.register_node(
      id, [this, name, handler = std::move(handler)](
              const desword::net::Envelope& env) {
        if (!tracer_.enabled()) return handler(env);
        Scope scope(tracer_, name, query_id_of(env.type, env.payload),
                    probe_crypto_);
        handler(env);
      });
}

bool TracingTransport::send(const desword::net::NodeId& from,
                            const desword::net::NodeId& to,
                            const std::string& type, desword::Bytes payload) {
  if (!tracer_.enabled()) {
    return inner_.send(from, to, type, std::move(payload));
  }
  const std::uint64_t qid = query_id_of(type, payload);
  // A posted continuation is named after the node whose send it makes.
  const std::int64_t parent = tracer_.current();
  if (parent >= 0 && tracer_.at(parent).name == spans::kCompletion) {
    tracer_.at(parent).name = from == proxy_id_
                                  ? spans::kProxyCompletion
                                  : spans::kParticipantCompletion;
  }
  bytes_by_type_[type] += payload.size();
  if (qid != 0) {
    if (from == proxy_id_) first_send_ns_.try_emplace(qid, now_ns());
    captured_.push_back(desword::net::Envelope{from, to, type, payload});
  }
  Scope scope(tracer_, spans::kSend, qid);
  return inner_.send(from, to, type, std::move(payload));
}

void TracingTransport::post(std::function<void()> fn) {
  inner_.post([this, fn = std::move(fn)] {
    if (!tracer_.enabled()) return fn();
    std::int64_t index = -1;
    {
      Scope scope(tracer_, spans::kCompletion, 0, probe_crypto_);
      index = tracer_.current();
      fn();
    }
    // A continuation that sent nothing is the proxy finishing a session:
    // participants' continuations always deliver a response.
    if (index >= 0 && tracer_.at(index).name == spans::kCompletion) {
      tracer_.at(index).name = spans::kProxyCompletion;
    }
  });
}

void TracingTransport::add_work() {
  tracer_.work_added();
  inner_.add_work();
}

void TracingTransport::remove_work() {
  inner_.remove_work();
  tracer_.work_removed();
}

std::size_t TracingTransport::poll(int timeout_ms) {
  Scope scope(tracer_, spans::kPoll);
  return inner_.poll(timeout_ms);
}

}  // namespace perfbench
