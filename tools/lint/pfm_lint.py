#!/usr/bin/env python3
"""Repo-specific lint rules for the pfm codebase (CI: the `lint` job).

These encode conventions the compiler cannot check and generic linters do
not know about:

  raw-mutex        src/ must synchronize through pfm::Mutex (util/mutex.h)
                   so every lock is thread-safety-annotated and feeds the
                   lockdep order tracker. Naked std::mutex /
                   condition_variable / lock_guard / unique_lock /
                   scoped_lock / shared_mutex are rejected.
  raw-int-parse    src/ parses untrusted integers through pfm::parse_i64
                   (util/arith.h). std::sto{i,l,ll,ul,ull} leak
                   std::out_of_range on attacker-sized numbers — the exact
                   contract break the format fuzzers caught.
  raw-gcd-lcm      The FALLS algebra (src/falls, src/mapping, src/intersect,
                   src/redist) must use gcd64/lcm64/mul_checked from
                   util/arith.h: std::gcd/std::lcm silently wrap on the
                   stride products that overflow first in practice.
  checksum-write   Message checksum fields are written only by the
                   stamp_checksum/encode path in cluster/message.cpp;
                   ad-hoc writes elsewhere bypass the CRC coverage rules.
  sleep            No sleep_for/sleep_until/usleep/nanosleep in src/:
                   production code waits on condition variables or channel
                   deadlines. Sleeping hides ordering bugs the lockdep /
                   TSan jobs exist to catch (tests may sleep).
  bare-receive     src/clusterfile/, src/ring/ and the failure detector /
                   repair path block on the wire only through Channel::receive_for
                   with a deadline. A bare receive() in the client's
                   windowed engine, the heartbeat loop, or a repair worker
                   hangs forever on a dead node — the retry/failover/
                   straggler machinery never runs, and a detector that
                   blocks on the nodes it monitors cannot detect anything.
                   Server loops (src/cluster/node.cpp) block by design.
  getenv           src/ reads no environment: a run is defined by its
                   ClusterConfig and explicit arguments, so a stray shell
                   variable cannot change what the library does. The one
                   waiver is util/log.cpp's PFM_LOG threshold. Harnesses
                   (bench/, tests/, tools/) may read their own variables.

A finding can be waived per line (or per include) with a trailing comment:
    std::mutex mu;  // pfm-lint: allow(raw-mutex)

Usage:
    tools/lint/pfm_lint.py [--root DIR]     lint the tree (exit 1 on findings)
    tools/lint/pfm_lint.py --self-test      run the built-in rule tests
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Each rule: (name, regex, path-predicate, message). The predicate receives
# the file's path relative to the repo root, POSIX-style.
RULES = [
    (
        "raw-mutex",
        re.compile(
            r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
            r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock)\b"
            r"|#include\s*<(mutex|shared_mutex|condition_variable)>"
        ),
        lambda p: p.startswith("src/") and p != "src/util/mutex.h",
        "use pfm::Mutex / pfm::CondVar (util/mutex.h): annotated and "
        "lockdep-tracked; raw std synchronization is invisible to both",
    ),
    (
        "raw-int-parse",
        re.compile(r"\bstd::sto(i|l|ll|ul|ull|ull|f|d|ld)\b"),
        lambda p: p.startswith("src/"),
        "use pfm::parse_i64 (util/arith.h): std::sto* throws out_of_range "
        "on huge input, breaking invalid_argument-only parser contracts",
    ),
    (
        "raw-gcd-lcm",
        re.compile(r"\bstd::(gcd|lcm)\b"),
        lambda p: p.startswith(
            ("src/falls/", "src/mapping/", "src/intersect/", "src/redist/",
             "src/layout/", "src/file_model/")
        ),
        "use gcd64/lcm64 (util/arith.h): overflow-checked on the stride "
        "products of the FALLS algebra",
    ),
    (
        "checksum-write",
        re.compile(r"\.\s*(checksum|checksummed)\s*=[^=]"),
        lambda p: p.startswith("src/") and p != "src/cluster/message.cpp",
        "Message checksum fields are written only by stamp_checksum / "
        "decode_message in cluster/message.cpp",
    ),
    (
        "sleep",
        re.compile(
            r"\b(std::this_thread::)?sleep_(for|until)\s*\(|\b(usleep|nanosleep)\s*\("
        ),
        lambda p: p.startswith("src/"),
        "no sleeping in production code: wait on a CondVar or a channel "
        "deadline (sleeps hide the ordering bugs lockdep/TSan catch)",
    ),
    (
        "raw-metadata-write",
        re.compile(r'"(manifest\.pfm|metadata\.journal)"|pfm-manifest'),
        lambda p: p.startswith("src/")
        and p
        not in (
            "src/clusterfile/metadata.cpp",
            "src/clusterfile/metadata.h",
            "src/clusterfile/journal.cpp",
            "src/clusterfile/journal.h",
        ),
        "manifest/journal bytes are written only by metadata.cpp/journal.cpp "
        "(fsync-before-apply and checkpoint ordering live there); everything "
        "else goes through MetadataManager and its kManifestName/kJournalName",
    ),
    (
        "bare-receive",
        re.compile(r"\breceive\s*\(\s*\)"),
        lambda p: p.startswith("src/clusterfile/")
        or p.startswith("src/ring/")
        or p.startswith("src/cluster/failure_detector"),
        "block on the wire with Channel::receive_for and a deadline: a bare "
        "receive() hangs forever on a dead node and starves the "
        "retry/failover/straggler machinery",
    ),
    (
        "getenv",
        re.compile(r"\b(secure_)?getenv\s*\("),
        lambda p: p.startswith("src/"),
        "the library reads no environment: take the value from ClusterConfig "
        "or an explicit argument, or name a constant",
    ),
]

ALLOW = re.compile(r"pfm-lint:\s*allow\(([a-z0-9-]+)\)")
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc", ".cxx"}


def lint_file(root: pathlib.Path, path: pathlib.Path) -> list[str]:
    rel = path.relative_to(root).as_posix()
    findings = []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [f"{rel}: unreadable: {e}"]
    for lineno, line in enumerate(text.splitlines(), 1):
        allowed = set(ALLOW.findall(line))
        stripped = line.lstrip()
        comment_only = stripped.startswith("//") or stripped.startswith("*")
        for name, rx, pred, msg in RULES:
            if name in allowed or not pred(rel):
                continue
            # Don't flag prose: a rule mentioned in a comment is not a use.
            code = line.split("//", 1)[0] if not comment_only else ""
            if rx.search(code):
                findings.append(f"{rel}:{lineno}: [{name}] {msg}\n    {line.strip()}")
    return findings


def lint_tree(root: pathlib.Path) -> list[str]:
    findings = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            findings.extend(lint_file(root, path))
    return findings


def self_test() -> int:
    cases = [
        # (path, line, expected rule or None)
        ("src/cluster/foo.cpp", "std::mutex mu_;", "raw-mutex"),
        ("src/cluster/foo.cpp", "std::lock_guard<std::mutex> l(mu_);", "raw-mutex"),
        ("src/cluster/foo.cpp", "#include <mutex>", "raw-mutex"),
        ("src/cluster/foo.cpp",
         "std::mutex mu;  // pfm-lint: allow(raw-mutex)", None),
        ("src/util/mutex.h", "std::mutex mu_;", None),  # the wrapper itself
        ("tests/foo_test.cpp", "std::mutex mu_;", None),  # tests are free
        ("src/cluster/foo.cpp", "// std::mutex is rejected here", None),
        ("src/clusterfile/meta.cpp", "auto v = std::stoll(tok);", "raw-int-parse"),
        ("tests/x.cpp", "std::stoll(tok);", None),
        ("src/falls/falls.cpp", "auto g = std::gcd(a, b);", "raw-gcd-lcm"),
        ("src/workload/trace.cpp", "std::gcd(a, b);", None),  # outside algebra
        ("src/clusterfile/io_server.cpp", "msg.checksum = 5;", "checksum-write"),
        ("src/cluster/message.cpp", "m.checksum = message_checksum(m);", None),
        ("src/cluster/foo.cpp", "if (a.checksum == b) {}", None),  # compare, not write
        ("src/cluster/node.cpp",
         "std::this_thread::sleep_for(std::chrono::seconds(1));", "sleep"),
        ("tests/soak.cpp", "std::this_thread::sleep_for(1ms);", None),
        ("src/clusterfile/client.cpp", "auto msg = inbox.receive();",
         "bare-receive"),
        ("src/clusterfile/client.cpp",
         "auto msg = inbox.receive_for(deadline);", None),  # deadline: fine
        ("src/clusterfile/client.cpp", "auto msg = inbox.try_receive();",
         None),  # non-blocking: fine
        ("src/cluster/failure_detector.cpp", "auto pong = ch.receive();",
         "bare-receive"),
        ("src/cluster/failure_detector.cpp",
         "auto pong = ch.receive_for(window);", None),  # deadline: fine
        ("src/ring/ring.cpp", "auto msg = ch.receive();",
         "bare-receive"),
        ("src/ring/ring.cpp",
         "auto msg = ch.receive_for(deadline);", None),  # deadline: fine
        ("src/cluster/node.cpp", "auto msg = inbox.receive();",
         None),  # the server loop blocks by design
        ("src/clusterfile/io_server.cpp",
         "auto m = ch.receive();  // pfm-lint: allow(bare-receive)", None),
        ("src/clusterfile/fs.cpp", 'auto p = dir / "manifest.pfm";',
         "raw-metadata-write"),
        ("src/clusterfile/recover.cpp",
         'std::ofstream os(dir / "metadata.journal");', "raw-metadata-write"),
        ("src/clusterfile/metadata.cpp",
         'os << "pfm-manifest " << version;', None),  # the one writer
        ("src/clusterfile/metadata.h",
         'static constexpr const char* kManifestName = "manifest.pfm";',
         None),  # the shared constants themselves
        ("src/clusterfile/journal.cpp",
         'path_ = dir / "metadata.journal";', None),  # the WAL itself
        ("tools/pfm_fsck.cpp", 'open(dir / "manifest.pfm");', None),  # not src/
        ("src/clusterfile/fs.cpp",
         'const char* v = std::getenv("PFM_RING_VNODES");', "getenv"),
        ("src/util/thread_pool.cpp", 'if (secure_getenv("X")) {}', "getenv"),
        ("src/util/log.cpp",
         'const char* e = std::getenv("PFM_LOG");  // pfm-lint: allow(getenv)',
         None),  # the operator's log threshold
        ("bench/chaos_soak.cpp", 'std::getenv("PFM_FAULT_SEED");',
         None),  # harnesses read their own variables
    ]
    failures = 0
    root = pathlib.Path("/self-test")
    for rel, line, expected in cases:
        hits = []
        allowed = set(ALLOW.findall(line))
        stripped = line.lstrip()
        comment_only = stripped.startswith("//")
        for name, rx, pred, _ in RULES:
            if name in allowed or not pred(rel):
                continue
            code = line.split("//", 1)[0] if not comment_only else ""
            if rx.search(code):
                hits.append(name)
        got = hits[0] if hits else None
        if got != expected:
            print(f"self-test FAIL: {rel!r} {line!r}: expected {expected}, got {got}")
            failures += 1
    if failures:
        return 1
    print(f"self-test ok: {len(cases)} cases")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels up from here)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in rule tests and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parent.parent.parent
    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"\npfm-lint: {len(findings)} finding(s)")
        return 1
    print("pfm-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
