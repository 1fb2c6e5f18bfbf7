// Central registry of every metric instrument in the codebase.
//
// Instrument names follow the `layer.object.verb` scheme (see DESIGN.md §8)
// and MUST be listed here: tools/desword_lint.py cross-checks every
// `metric("...")` / `gauge_metric("...")` / `histogram_metric("...")` call
// site against these X-macro lists, so a typo'd or unregistered name fails
// the lint gate instead of silently creating a dead instrument.
//
// Adding an instrument: add one X(identifier, "layer.object.verb") line to
// the matching list below. The identifier becomes the enum constant
// (CounterId::identifier etc.); the string is the wire/lookup name.
#pragma once

// clang-format off
#define DESWORD_OBS_COUNTERS(X)                                       \
  X(crypto_modexp_calls,        "crypto.modexp.calls")                \
  X(crypto_modexp_fb_hits,      "crypto.modexp.fixed_base_hits")      \
  X(crypto_multi_exp_calls,     "crypto.multi_exp.calls")             \
  X(crypto_batch_folds,         "crypto.batch_verify.folds")          \
  X(crypto_batch_bisects,       "crypto.batch_verify.bisect_steps")   \
  X(zkedb_commit_nodes,         "zkedb.commit.nodes")                 \
  X(zkedb_verify_batched,       "zkedb.verify.batched")               \
  X(zkedb_verify_scalar,        "zkedb.verify.scalar")                \
  X(zkedb_cache_hit,            "zkedb.cache.hit")                    \
  X(zkedb_cache_miss,           "zkedb.cache.miss")                   \
  X(zkedb_cache_evict,          "zkedb.cache.evict")                  \
  X(zkedb_cache_joined,         "zkedb.cache.joined")                 \
  X(net_frame_sent,             "net.frame.sent")                     \
  X(net_frame_received,         "net.frame.received")                 \
  X(net_frame_dropped,          "net.frame.dropped")                  \
  X(net_fault_dropped,          "net.fault.dropped")                  \
  X(net_fault_delayed,          "net.fault.delayed")                  \
  X(net_fault_duplicated,       "net.fault.duplicated")               \
  X(net_fault_reset,            "net.fault.reset")                    \
  X(net_fault_partitioned,      "net.fault.partitioned")              \
  X(net_fault_crashed,          "net.fault.crashed")                  \
  X(net_retransmit_fired,       "net.retransmit.fired")               \
  X(net_retransmit_refused,     "net.retransmit.refused")             \
  X(net_distribution_orphaned,  "net.distribution.orphaned")          \
  X(net_reply_cache_hits,       "net.reply_cache.hits")               \
  X(net_reply_cache_misses,     "net.reply_cache.misses")             \
  X(net_reply_cache_evictions,  "net.reply_cache.evictions")          \
  X(net_reply_cache_joined,     "net.reply_cache.joined")             \
  X(net_link_stats_evictions,   "net.link_stats.evictions")           \
  X(net_timer_armed,            "net.timer.armed")                    \
  X(net_timer_cancelled,        "net.timer.cancelled")                \
  X(net_timer_fired,            "net.timer.fired")                    \
  X(protocol_query_started,     "protocol.query.started")             \
  X(protocol_query_completed,   "protocol.query.completed")           \
  X(protocol_proof_ownership,   "protocol.proof.ownership")           \
  X(protocol_proof_non_own,     "protocol.proof.non_ownership")       \
  X(protocol_violation_detected,"protocol.violation.detected")        \
  X(protocol_reputation_events, "protocol.reputation.events")         \
  X(protocol_reputation_dropped,"protocol.reputation.dropped")        \
  X(protocol_pump_stalled,      "protocol.pump.stalled")              \
  X(protocol_deadline_exceeded, "protocol.query.deadline_exceeded")   \
  X(protocol_distribution_gaveup,"protocol.distribution.gaveup")      \
  X(protocol_scheduler_admitted,"protocol.scheduler.admitted")        \
  X(protocol_walk_overlapped,   "protocol.walk.overlapped")           \
  X(protocol_walk_discarded,    "protocol.walk.discarded")            \
  X(exec_task_submitted,        "exec.task.submitted")                \
  X(exec_task_completed,        "exec.task.completed")

#define DESWORD_OBS_GAUGES(X)                                         \
  X(protocol_sessions_active,   "protocol.sessions.active")           \
  X(protocol_scheduler_queued,  "protocol.scheduler.queued")          \
  X(exec_queue_depth,           "exec.queue.depth")

#define DESWORD_OBS_HISTOGRAMS(X)                                     \
  X(zkedb_commit_wall_ms,       "zkedb.commit.wall_ms")               \
  X(zkedb_prove_wall_ms,        "zkedb.prove.wall_ms")                \
  X(zkedb_verify_wall_ms,       "zkedb.verify.wall_ms")               \
  X(exec_task_wait_ms,          "exec.task.wait_ms")                  \
  X(exec_task_run_ms,           "exec.task.run_ms")
// clang-format on
