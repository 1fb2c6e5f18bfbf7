// Fixture: blocking crypto invoked inline from loop-thread handlers
// (rule handler-crypto). The builder method is not a handler and may
// prove directly — it runs on an Executor worker.

namespace desword {

void Participant::handle(const net::Envelope& env) {
  auto proof = scheme().prove(env.payload);
  transport_.send(id_, env.from, type_, proof);
}

void Participant::on_query_request(const net::Envelope& env) {
  auto ok = check_hop(poc_, product_, env.payload, true);
  (void)ok;
}

Bytes Participant::build_reply(const net::Envelope& env) {
  return scheme().prove(env.payload);
}

}  // namespace desword
