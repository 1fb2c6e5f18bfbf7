#!/usr/bin/env python3
"""Repo-specific invariant lint for the DE-Sword codebase.

Rules (each can be waived on a specific line with a trailing
``// desword-lint: allow(<rule>)`` marker):

  randomness    No ``std::rand``/``srand``/``rand()`` and no ``time(...)``
                seeding outside ``src/crypto/randsource*``. All randomness
                must flow through RandomSource (CSPRNG or seeded DRBG) so
                commitments stay unpredictable and tests stay reproducible.

  decode-cast   No ``memcpy`` or ``reinterpret_cast`` in decode-path files
                (everything that parses untrusted bytes). Decoders go
                through BinaryReader, which bounds-checks every read; raw
                pointer reinterpretation is how length-prefix bugs become
                memory corruption.

  switch-default
                ``switch`` statements over ``MessageType`` must not have a
                ``default:`` label. -Wswitch then forces every dispatch
                site to be revisited when a message type is added.

  secret-print  Lines that print/log must not mention trapdoor or secret
                key material (``trapdoor``, ``secret``, ``_sk``/``sk_``).
                The trapdoor breaks the binding of every commitment made
                under the CRS; it must never reach logs.

  modexp        No raw ``BN_mod_exp*`` calls and no per-call
                ``BN_MONT_CTX_new``/``BN_MONT_CTX_set`` construction outside
                ``src/crypto/modexp.*``. All modular exponentiation flows
                through ModExpContext so it shares one Montgomery context
                per modulus, hits the fixed-base tables, and is countable —
                a stray BN_mod_exp silently forfeits every one of those.

  handler-crypto
                Message handlers (``handle``/``dispatch``/``on_*`` methods
                of ``Proxy`` and ``Participant``) run on the protocol loop
                thread and must never invoke modular-exponentiation-heavy
                scheme calls (``scheme().verify/prove/aggregate``,
                ``qHOpen``-family, ``make_ownership_proof``,
                ``check_hop``) inline. Blocking crypto belongs in the
                builder/check methods posted to the Executor; a handler
                that proves or verifies directly stalls every session
                behind it.

  metric-name   Every ``metric("...")`` / ``gauge_metric("...")`` /
                ``histogram_metric("...")`` call site must use a name that
                (a) follows the ``layer.object.verb`` scheme
                (``^[a-z]+(\.[a-z_]+){1,3}$``) and (b) is registered in
                ``src/obs/instruments.h``. A typo'd name would otherwise
                throw at first use — or worse, silently record into a dead
                instrument nobody snapshots.

  raw-mutex     No raw ``std::mutex``/``std::lock_guard``/
                ``std::unique_lock``/``std::condition_variable``/... (and
                no ``#include`` of their headers) outside
                ``src/common/annotations.h`` and ``src/common/mutex.h``.
                All locking goes through the annotated ``Mutex``/
                ``MutexLock``/``CondVar`` wrappers so Clang's thread-safety
                analysis (``-Wthread-safety``, DESWORD_THREAD_SAFETY=ON)
                sees every acquisition — a raw std::mutex is a lock the
                analysis silently cannot check.

  loop-affinity Inside ``Proxy``/``Participant`` executor ``post``
                lambdas (worker context), loop-owned state must not be
                touched: ``transport_.send/set_timer/cancel_timer``,
                ``sessions_``, ``in_flight_``, ``reply_cache_*``,
                ``scheduler_``, ``finish_in_flight``, ``hop_in_flight_``,
                ``finish_hop_verify``, ``verify_cache_`` (the hop memo
                takes no lock).
                Results must travel back to the loop thread through a
                nested ``transport_.post(...)`` (those nested spans are
                exempt — they run on the loop). The runtime counterpart is
                DESWORD_DCHECK_ON_LOOP; this rule catches the bug at
                review time, in builds where DCHECKs are compiled out.

  timer-pairing Every ``x = ...set_timer(...)`` call site must be paired
                with a ``cancel_timer(...)`` in the same file that names
                ``x``'s variable (its last identifier component), and a
                ``set_timer`` whose TimerId is discarded is flagged as
                unowned. A timer whose id nobody keeps — or keeps but
                never cancels on teardown — fires into a destroyed
                endpoint: exactly the use-after-free class the
                FaultInjector's delay timers and the proxy's
                retransmission timers guard against in their destructors.
                ``return ...set_timer(...)`` forwards ownership to the
                caller and is exempt.

  cache-key     Every hop-memo key construction — a ``hop_key(...)``
                call — must pass the full proof bytes (an argument naming
                ``proof``). The memo maps keys to *accepted* verdicts; a
                key that omits the proof bytes would let a tampered proof
                alias a cached acceptance and ride straight past the
                verifier (src/zkedb/verify_cache.h, DESIGN.md §12).

Run:  tools/desword_lint.py [--root <repo root>]
The root defaults to the repository containing this script, so the linter
works from any working directory (CI checkouts, editor integrations).
Exit status 0 = clean, 1 = violations (printed one per line). Under
GitHub Actions (``GITHUB_ACTIONS`` set) each violation is additionally
emitted as a ``::error file=...,line=...::`` workflow annotation so it
shows up inline on the PR diff.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import sys

SOURCE_GLOBS = ("src/**/*.h", "src/**/*.cpp", "fuzz/**/*.h", "fuzz/**/*.cpp",
                "tools/**/*.cpp", "examples/**/*.cpp", "bench/**/*.cpp")

# Files allowed to talk to the system RNG / clock directly.
RANDOMNESS_EXEMPT = re.compile(r"src/crypto/randsource\.(h|cpp)$")

# The one home of raw OpenSSL modular exponentiation (rule modexp).
MODEXP_EXEMPT = re.compile(r"src/crypto/modexp\.(h|cpp)$")

# The annotated wrapper layer itself (rule raw-mutex): the only files
# allowed to name std synchronization primitives.
RAW_MUTEX_EXEMPT = re.compile(r"src/common/(annotations|mutex)\.h$")

# Fixture mini-trees for the lint self-test contain deliberate violations;
# they are linted by tools/desword_lint_selftest.py, never by run().
FIXTURE_DIR_PART = "lint_fixtures"

# Decode paths: every file that parses attacker-supplied or persisted
# bytes. memcpy/reinterpret_cast are banned here (rule decode-cast).
DECODE_PATH_FILES = {
    "src/common/serial.cpp",
    "src/common/serial.h",
    "src/net/wire.cpp",
    "src/desword/messages.cpp",
    "src/zkedb/persist.cpp",
    "src/zkedb/proof.cpp",
    "src/zkedb/params.cpp",
    "src/mercurial/qtmc.cpp",
    "src/mercurial/tmc.cpp",
    "src/poc/poc.cpp",
    "src/poc/poc_list.cpp",
}

# Event-loop message handlers (rule handler-crypto): the files holding them
# and the method names that run on the protocol loop thread.
HANDLER_FILES = {
    "src/desword/proxy.cpp",
    "src/desword/participant.cpp",
}
RE_HANDLER_DEF = re.compile(
    r"\b(?:Proxy|Participant)::(on_\w+|handle|dispatch)\s*\(")
# Blocking crypto entry points that must not appear in a handler body.
RE_HANDLER_CRYPTO = re.compile(
    r"\bscheme\s*\(\s*\)\s*\.\s*(?:verify|prove|aggregate)\b|"
    r"\bscheme_?\s*(?:\.|->)\s*(?:verify|prove|aggregate)\s*\(|"
    r"(?:\.|->)\s*prove\s*\(|"
    r"\bqH(?:Com|Open|Ver|Update)\w*\s*\(|"
    r"\bmake_ownership_proof\s*\(|"
    r"\bcheck_hop\s*\(")

RE_ALLOW = re.compile(r"//\s*desword-lint:\s*allow\(([a-z-]+)\)")
RE_LINE_COMMENT = re.compile(r"//.*$")
RE_RANDOMNESS = re.compile(
    r"std::rand\b|\bsrand\s*\(|[^_\w.:]rand\s*\(|\bstd::time\s*\(|"
    r"[^_\w.:]time\s*\(\s*(NULL|nullptr|0)\s*\)")
RE_DECODE_CAST = re.compile(r"\bmemcpy\s*\(|\breinterpret_cast\b")
RE_MODEXP = re.compile(r"\bBN_mod_exp\w*\s*\(|\bBN_MONT_CTX_(?:new|set)\s*\(")
RE_SWITCH = re.compile(r"\bswitch\s*\(")
RE_MESSAGE_TYPE = re.compile(r"\bMessageType\b|\bmessage_type_of\s*\(")
RE_PRINT = re.compile(
    r"std::cout|std::cerr|\bprintf\s*\(|\bfprintf\s*\(|\bsnprintf\s*\(|"
    r"\blog\w*\s*\(")
RE_SECRET = re.compile(r"\btrapdoor\b|\bsecret\w*\b|\b\w*_sk\b|\bsk_\w+\b",
                       re.IGNORECASE)
RE_METRIC_CALL = re.compile(
    r"\b(?:metric|gauge_metric|histogram_metric)\s*\(\s*\"([^\"]+)\"")
RE_METRIC_NAME = re.compile(r"^[a-z]+(\.[a-z_]+){1,3}$")
# The instrument registry: every "quoted.metric.name" literal in this file
# is a registered instrument (see the X-macro lists there).
INSTRUMENTS_FILE = "src/obs/instruments.h"
RE_INSTRUMENT_LITERAL = re.compile(r"\"([a-z][a-z_.]*)\"")

# Raw std synchronization primitives (rule raw-mutex). Includes the header
# names too: a stray `#include <mutex>` is the tell that someone is about
# to bypass the annotated wrappers. <atomic> stays allowed everywhere.
RE_RAW_MUTEX = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock|condition_variable|condition_variable_any)\b|"
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")

# Timer call sites (rule timer-pairing). Member-access only: `x.set_timer`
# / `x->set_timer` are calls, `Foo::set_timer(` is a definition.
RE_SET_TIMER_CALL = re.compile(r"(?:\.|->)\s*set_timer\s*\(")
RE_SET_TIMER_ASSIGN = re.compile(
    r"([A-Za-z_][\w.\[\]]*(?:->[\w.\[\]]+)*)\s*=\s*[^=;]*\bset_timer\s*\(")
RE_SET_TIMER_RETURN = re.compile(r"\breturn\b[^;]*\bset_timer\s*\(")
RE_CANCEL_TIMER_ARGS = re.compile(r"\bcancel_timer\s*\(([^()]*)\)")

# Verification-cache key constructions (rule cache-key). Call sites AND
# the static definitions match; both must name the proof bytes.
RE_CACHE_KEY = re.compile(r"\bhop_key\s*\(")
RE_CACHE_KEY_PROOF_ARG = re.compile(r"proof")

# Worker-context dispatch points (rule loop-affinity): posting to the
# executor moves the lambda off the loop thread.
RE_WORKER_POST = re.compile(r"\bexecutor_\s*(?:->|\.)\s*post\s*\(")
# Nested hand-back to the loop thread: spans under transport post are the
# one sanctioned place worker code names loop-owned state again.
RE_LOOP_POST = re.compile(r"\btransport_?\s*(?:\.|->)\s*post\s*\(")
# Loop-owned state: anything here appearing in worker context (outside a
# nested transport post) is a data race against the loop thread.
RE_LOOP_OWNED = re.compile(
    r"\btransport_?\s*(?:\.|->)\s*(?:send|set_timer|cancel_timer)\s*\(|"
    r"\bsessions_\b|\bin_flight_\b|\breply_cache_\w*|\bscheduler_\b|"
    r"\bfinish_in_flight\s*\(|\bhop_in_flight_\b|\bfinish_hop_verify\s*\(|"
    r"\bverify_cache_\b")


def balance_parens(text: str, open_idx: int,
                   open_ch: str = "(", close_ch: str = ")") -> int:
    """Returns the index of the delimiter matching ``text[open_idx]``
    (which must be ``open_ch``), or ``len(text)-1`` if unbalanced."""
    depth = 0
    i = open_idx
    while i < len(text):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(text) - 1


def strip_comment(line: str) -> str:
    """Removes a trailing // comment (crude: ignores // inside strings,
    which is fine for these token-level rules)."""
    return RE_LINE_COMMENT.sub("", line)


def allowed(line: str, rule: str) -> bool:
    m = RE_ALLOW.search(line)
    return bool(m) and m.group(1) == rule


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        # (relative path, line, rule, message) — structured so the
        # self-test can compare (rule, path, line) sets exactly.
        self.violations: list[tuple[str, int, str, str]] = []
        self.instruments = self.load_instruments()

    def load_instruments(self) -> set[str]:
        path = self.root / INSTRUMENTS_FILE
        if not path.is_file():
            return set()
        text = path.read_text(encoding="utf-8", errors="replace")
        return set(RE_INSTRUMENT_LITERAL.findall(text))

    def report(self, rel: str, lineno: int, rule: str, message: str) -> None:
        self.violations.append((rel, lineno, rule, message))

    def lint_file(self, path: pathlib.Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        lines = text.splitlines()
        self.check_line_rules(rel, lines)
        self.check_switch_default(rel, text, lines)
        self.check_timer_pairing(rel, text, lines)
        self.check_cache_key(rel, text, lines)
        if rel in HANDLER_FILES:
            self.check_handler_crypto(rel, text, lines)
            self.check_loop_affinity(rel, text, lines)

    def check_line_rules(self, rel: str, lines: list[str]) -> None:
        decode_path = rel in DECODE_PATH_FILES
        randomness_applies = not RANDOMNESS_EXEMPT.search(rel)
        modexp_applies = not MODEXP_EXEMPT.search(rel)
        raw_mutex_applies = not RAW_MUTEX_EXEMPT.search(rel)
        for lineno, raw in enumerate(lines, start=1):
            code = strip_comment(raw)
            if randomness_applies and RE_RANDOMNESS.search(code):
                if not allowed(raw, "randomness"):
                    self.report(rel, lineno, "randomness",
                                "direct rand()/time() use; go through "
                                "crypto/randsource (RandomSource)")
            if raw_mutex_applies and RE_RAW_MUTEX.search(code):
                if not allowed(raw, "raw-mutex"):
                    self.report(rel, lineno, "raw-mutex",
                                "raw std synchronization primitive; use "
                                "the annotated Mutex/MutexLock/CondVar "
                                "wrappers from common/mutex.h so "
                                "-Wthread-safety sees the acquisition")
            if modexp_applies and RE_MODEXP.search(code):
                if not allowed(raw, "modexp"):
                    self.report(rel, lineno, "modexp",
                                "raw BN_mod_exp / Montgomery-context "
                                "construction; go through crypto/modexp "
                                "(ModExpContext)")
            if decode_path and RE_DECODE_CAST.search(code):
                if not allowed(raw, "decode-cast"):
                    self.report(rel, lineno, "decode-cast",
                                "memcpy/reinterpret_cast in a decode path; "
                                "use BinaryReader primitives")
            if RE_PRINT.search(code) and RE_SECRET.search(code):
                if not allowed(raw, "secret-print"):
                    self.report(rel, lineno, "secret-print",
                                "print/log statement mentions trapdoor or "
                                "secret-key material")
            if rel != INSTRUMENTS_FILE:
                for m in RE_METRIC_CALL.finditer(code):
                    name = m.group(1)
                    if allowed(raw, "metric-name"):
                        continue
                    if not RE_METRIC_NAME.match(name):
                        self.report(rel, lineno, "metric-name",
                                    f'"{name}" does not follow the '
                                    "layer.object.verb naming scheme")
                    elif self.instruments and name not in self.instruments:
                        self.report(rel, lineno, "metric-name",
                                    f'"{name}" is not registered in '
                                    f"{INSTRUMENTS_FILE}")

    def check_handler_crypto(self, rel: str, text: str,
                             lines: list[str]) -> None:
        """Flags blocking crypto calls inside loop-thread handler bodies."""
        for match in RE_HANDLER_DEF.finditer(text):
            # Balance the parameter list's parens.
            paren_start = text.index("(", match.start())
            i = balance_parens(text, paren_start)
            # Definition body: the first '{' before any ';' (a ';' first
            # means this was a declaration or qualified call, not a body).
            body_start = text.find("{", i)
            semi = text.find(";", i)
            if body_start < 0 or (0 <= semi < body_start):
                continue
            j = balance_parens(text, body_start, "{", "}")
            first_line = text.count("\n", 0, body_start) + 1
            last_line = text.count("\n", 0, j) + 1
            handler = match.group(1)
            for lineno in range(first_line, last_line + 1):
                raw = lines[lineno - 1]
                if not RE_HANDLER_CRYPTO.search(strip_comment(raw)):
                    continue
                if allowed(raw, "handler-crypto"):
                    continue
                self.report(rel, lineno, "handler-crypto",
                            f"blocking crypto call inside handler "
                            f"{handler}(); move it to a builder/check "
                            "method posted to the Executor")

    def check_loop_affinity(self, rel: str, text: str,
                            lines: list[str]) -> None:
        """Flags loop-owned state named inside executor post lambdas
        (worker context), outside nested transport_.post hand-backs."""
        for match in RE_WORKER_POST.finditer(text):
            open_idx = text.index("(", match.end() - 1)
            close_idx = balance_parens(text, open_idx)
            span = text[open_idx:close_idx + 1]
            # Mask nested transport posts: those lambdas run back on the
            # loop thread, where loop-owned state is fair game. Spaces
            # (not deletion) keep line numbers stable.
            masked = list(span)
            for nested in RE_LOOP_POST.finditer(span):
                n_open = span.index("(", nested.end() - 1)
                n_close = balance_parens(span, n_open)
                for k in range(nested.start(), n_close + 1):
                    if masked[k] != "\n":
                        masked[k] = " "
            span = "".join(masked)
            base_line = text.count("\n", 0, open_idx) + 1
            for off, span_line in enumerate(span.split("\n")):
                if not RE_LOOP_OWNED.search(strip_comment(span_line)):
                    continue
                lineno = base_line + off
                if allowed(lines[lineno - 1], "loop-affinity"):
                    continue
                self.report(rel, lineno, "loop-affinity",
                            "loop-owned state touched in worker context "
                            "(executor post lambda); hand the "
                            "result back via transport_.post(...)")

    def check_timer_pairing(self, rel: str, text: str,
                            lines: list[str]) -> None:
        """Flags set_timer call sites whose TimerId is discarded, or stored
        in a variable the file never passes to cancel_timer."""
        # Every identifier that appears inside a cancel_timer(...) argument
        # list anywhere in the file counts as "cancelled here".
        cancelled: set[str] = set()
        for m in RE_CANCEL_TIMER_ARGS.finditer(text):
            cancelled |= set(re.findall(r"\w+", m.group(1)))
        for lineno, raw in enumerate(lines, start=1):
            code = strip_comment(raw)
            if not RE_SET_TIMER_CALL.search(code):
                continue
            if allowed(raw, "timer-pairing"):
                continue
            if RE_SET_TIMER_RETURN.search(code):
                continue  # forwarding wrapper: the caller owns the id
            assign = RE_SET_TIMER_ASSIGN.search(code)
            if assign is None and lineno > 1:
                # `lhs =` broken onto the previous line by the formatter.
                prev = strip_comment(lines[lineno - 2]).rstrip()
                if prev.endswith("="):
                    assign = RE_SET_TIMER_ASSIGN.search(prev + " " + code)
                elif prev.endswith("return"):
                    continue
            if assign is None:
                self.report(rel, lineno, "timer-pairing",
                            "set_timer return value discarded; keep the "
                            "TimerId so teardown can cancel_timer it — an "
                            "unowned timer fires into a destroyed endpoint")
                continue
            tail = re.findall(r"\w+", assign.group(1))[-1]
            if tail not in cancelled:
                self.report(rel, lineno, "timer-pairing",
                            f"timer id stored in '{assign.group(1)}' but "
                            f"this file never passes '{tail}' to "
                            "cancel_timer; pair every armed timer with a "
                            "teardown cancellation")

    def check_cache_key(self, rel: str, text: str,
                        lines: list[str]) -> None:
        """Flags hop_key constructions (call sites and
        definitions alike) whose balanced argument span never names the
        proof bytes. Key components other than the proof are contextual;
        the proof bytes are the one ingredient whose omission turns the
        cache into a verifier bypass."""
        for match in RE_CACHE_KEY.finditer(text):
            line_start = text.rfind("\n", 0, match.start()) + 1
            if "//" in text[line_start:match.start()]:
                continue  # prose mention inside a comment, not a call
            open_idx = text.index("(", match.end() - 1)
            close_idx = balance_parens(text, open_idx)
            span = text[open_idx:close_idx + 1]
            if RE_CACHE_KEY_PROOF_ARG.search(span):
                continue
            lineno = text.count("\n", 0, match.start()) + 1
            if allowed(lines[lineno - 1], "cache-key"):
                continue
            self.report(rel, lineno, "cache-key",
                        "cache key built without the proof bytes; a key "
                        "that does not bind the full proof lets a "
                        "tampered proof alias a cached acceptance")

    def check_switch_default(self, rel: str, text: str,
                             lines: list[str]) -> None:
        """Flags `default:` inside switch statements over MessageType."""
        for match in RE_SWITCH.finditer(text):
            # The switch condition: everything up to the matching ')'.
            cond_start = text.index("(", match.start())
            i = balance_parens(text, cond_start)
            condition = text[cond_start:i + 1]
            if not RE_MESSAGE_TYPE.search(condition):
                continue
            # The switch body: balance braces from the first '{' after ')'.
            body_start = text.find("{", i)
            if body_start < 0:
                continue
            j = balance_parens(text, body_start, "{", "}")
            body = text[body_start:j + 1]
            offset = body.find("default:")
            if offset < 0:
                continue
            lineno = text.count("\n", 0, body_start + offset) + 1
            if not allowed(lines[lineno - 1], "switch-default"):
                self.report(rel, lineno, "switch-default",
                            "switch over MessageType must be exhaustive "
                            "(no default:)")

    def collect(self) -> int:
        """Lints every in-scope file under the root; violations accumulate
        in self.violations. Returns the number of files examined (the
        self-test drives this directly to get the structured set)."""
        files = sorted(
            {p for g in SOURCE_GLOBS for p in self.root.glob(g)
             if p.is_file()
             and FIXTURE_DIR_PART not in p.relative_to(self.root).parts})
        for path in files:
            self.lint_file(path)
        return len(files)

    def run(self) -> int:
        nfiles = self.collect()
        if nfiles == 0:
            print("desword_lint: no source files found under "
                  f"{self.root}", file=sys.stderr)
            return 1
        github = bool(os.environ.get("GITHUB_ACTIONS"))
        for rel, lineno, rule, message in self.violations:
            print(f"{rel}:{lineno}: [{rule}] {message}")
            if github:
                # Workflow annotation: surfaces the finding inline on the
                # PR diff. Newlines are not legal in the message field.
                flat = message.replace("\n", " ")
                print(f"::error file={rel},line={lineno},"
                      f"title=desword-lint {rule}::{flat}")
        if self.violations:
            print(f"desword_lint: {len(self.violations)} violation(s)",
                  file=sys.stderr)
            return 1
        print(f"desword_lint: {nfiles} files clean")
        return 0


def default_root() -> pathlib.Path:
    """The repository containing this script — correct regardless of the
    invoker's working directory (CI runs, editor save hooks)."""
    return pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path, default=default_root(),
                        help="repository root (default: the repo containing "
                             "this script)")
    args = parser.parse_args()
    return Linter(args.root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
