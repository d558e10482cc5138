//! Unit coverage for the lint engine: masking, annotations, each rule's
//! positive and negative cases, and the in-memory self-test corpus.

use charm_analyze::{lint_crate_root, lint_file, lint_source, self_test, Rule};

const HOT: &str = "crates/core/src/pe.rs";

fn rules(findings: &[charm_analyze::Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unwrap_in_hot_path_fires() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert!(rules(&lint_source(HOT, src)).contains(&Rule::Panic));
}

#[test]
fn unwrap_outside_scope_is_ignored() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert!(lint_source("crates/apps/src/lib.rs", src).is_empty());
}

#[test]
fn annotation_on_same_line_suppresses() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // analyze: allow(panic, \"checked by caller\")\n}\n";
    assert!(!rules(&lint_source(HOT, src)).contains(&Rule::Panic));
}

#[test]
fn annotation_on_line_above_suppresses() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // analyze: allow(panic, \"checked by caller\")\n    x.unwrap()\n}\n";
    assert!(!rules(&lint_source(HOT, src)).contains(&Rule::Panic));
}

#[test]
fn annotation_without_reason_is_a_finding_and_does_not_suppress() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // analyze: allow(panic)\n}\n";
    let got = rules(&lint_source(HOT, src));
    assert!(got.contains(&Rule::Panic));
    assert!(got.contains(&Rule::Annotation));
}

#[test]
fn unknown_rule_annotation_is_a_finding() {
    let src = "// analyze: allow(bogus, \"reason\")\nfn f() {}\n";
    assert!(rules(&lint_source(HOT, src)).contains(&Rule::Annotation));
}

#[test]
fn panic_inside_string_or_comment_is_masked() {
    let src = concat!(
        "fn f() {\n",
        "    let s = \"do not .unwrap() here\";\n",
        "    // a comment mentioning panic!( and v[0]\n",
        "    /* block with .expect( inside */\n",
        "    let _ = s;\n",
        "}\n"
    );
    assert!(lint_source(HOT, src).is_empty());
}

#[test]
fn raw_string_is_masked() {
    let src = "fn f() -> &'static str {\n    r#\"x.unwrap() v[0]\"#\n}\n";
    assert!(lint_source(HOT, src).is_empty());
}

#[test]
fn indexing_fires_but_attributes_and_macros_do_not() {
    let bad = "fn f(v: &[u8]) -> u8 {\n    v[0]\n}\n";
    assert!(rules(&lint_source(HOT, bad)).contains(&Rule::Panic));
    let ok = "#[derive(Clone)]\nstruct S;\nfn g() -> Vec<u8> {\n    vec![1, 2]\n}\n";
    assert!(lint_source(HOT, ok).is_empty());
}

#[test]
fn lifetime_is_not_a_char_literal() {
    // A lifetime after `'` must not put the lexer into char-literal state
    // and swallow the rest of the line.
    let src = "fn f<'a>(v: &'a [u8]) -> &'a u8 {\n    &v[0]\n}\n";
    assert!(rules(&lint_source(HOT, src)).contains(&Rule::Panic));
}

#[test]
fn payload_copy_fires_in_core_and_wire_only() {
    let src = "fn f(v: &[u8]) -> Vec<u8> {\n    v.to_vec()\n}\n";
    assert!(rules(&lint_source("crates/core/src/msg.rs", src)).contains(&Rule::PayloadCopy));
    assert!(rules(&lint_source("crates/wire/src/buffer.rs", src)).contains(&Rule::PayloadCopy));
    assert!(lint_source("crates/lb/src/lib.rs", src).is_empty());
}

#[test]
fn payload_copy_exempts_test_modules() {
    let src = concat!(
        "fn prod(v: &[u8]) -> usize { v.len() }\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    fn fixture(v: &[u8]) -> Vec<u8> { v.to_vec() }\n",
        "}\n"
    );
    assert!(lint_source("crates/wire/src/buffer.rs", src).is_empty());
}

#[test]
fn blocking_fires_on_sleep_and_mutex() {
    let sleep = "fn f() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    assert!(rules(&lint_source("crates/core/src/ctx.rs", sleep)).contains(&Rule::Blocking));
    let mutex = "use std::sync::Mutex;\nstruct S {\n    m: Mutex<u32>,\n}\n";
    assert!(rules(&lint_source("crates/core/src/pe.rs", mutex)).contains(&Rule::Blocking));
}

#[test]
fn crate_root_policy() {
    let forbid = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(lint_crate_root("crates/x/src/lib.rs", forbid).is_empty());

    let nothing = "pub fn f() {}\n";
    assert!(rules(&lint_crate_root("crates/x/src/lib.rs", nothing)).contains(&Rule::ForbidUnsafe));

    let bare_deny = "#![deny(unsafe_code)]\npub fn f() {}\n";
    assert!(rules(&lint_crate_root("crates/x/src/lib.rs", bare_deny)).contains(&Rule::ForbidUnsafe));

    let deny_doc = "// analyze: allow(unsafe, \"FFI shim for page-locked buffers\")\n#![deny(unsafe_code)]\npub fn f() {}\n";
    assert!(lint_crate_root("crates/x/src/lib.rs", deny_doc).is_empty());
}

#[test]
fn trace_hook_suppresses_panic_and_blocking() {
    let idx = "fn f(v: &[u8]) -> u8 {\n    // analyze: allow(trace-hook, \"depth probe; dispatch validated the slot\")\n    v[0]\n}\n";
    assert!(!rules(&lint_source(HOT, idx)).contains(&Rule::Panic));
    let sleep = "fn f() {\n    // analyze: allow(trace-hook, \"clock read may park briefly on this platform\")\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    assert!(!rules(&lint_source(HOT, sleep)).contains(&Rule::Blocking));
}

#[test]
fn trace_hook_is_a_known_key_but_needs_a_reason() {
    // Recognized key: no unknown-rule finding...
    let with_reason = "// analyze: allow(trace-hook, \"why\")\nfn f() {}\n";
    assert!(lint_source(HOT, with_reason).is_empty());
    // ...but a reason is still mandatory.
    let bare = "fn f(v: &[u8]) -> u8 {\n    v[0] // analyze: allow(trace-hook)\n}\n";
    let got = rules(&lint_source(HOT, bare));
    assert!(got.contains(&Rule::Annotation));
    assert!(got.contains(&Rule::Panic));
}

#[test]
fn trace_hook_does_not_suppress_payload_copy() {
    let src = "fn f(b: &WireBytes) -> Vec<u8> {\n    // analyze: allow(trace-hook, \"not a trace hook at all\")\n    b.to_vec()\n}\n";
    assert!(rules(&lint_source("crates/wire/src/buffer.rs", src)).contains(&Rule::PayloadCopy));
}

#[test]
fn recovery_hook_suppresses_panic_and_blocking() {
    let kill = "fn f() {\n    // analyze: allow(recovery-hook, \"injected PE failure the restart supervisor catches\")\n    panic!(\"injected PE failure\");\n}\n";
    assert!(!rules(&lint_source(HOT, kill)).contains(&Rule::Panic));
    let sleep = "fn f() {\n    // analyze: allow(recovery-hook, \"grace wait for straggler PEs to report salvage\")\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    assert!(!rules(&lint_source(HOT, sleep)).contains(&Rule::Blocking));
}

#[test]
fn recovery_hook_is_a_known_key_but_needs_a_reason() {
    let with_reason = "// analyze: allow(recovery-hook, \"why\")\nfn f() {}\n";
    assert!(lint_source(HOT, with_reason).is_empty());
    let bare = "fn f() {\n    panic!(\"x\"); // analyze: allow(recovery-hook)\n}\n";
    let got = rules(&lint_source(HOT, bare));
    assert!(got.contains(&Rule::Annotation));
    assert!(got.contains(&Rule::Panic));
}

#[test]
fn recovery_hook_does_not_suppress_payload_copy() {
    let src = "fn f(b: &WireBytes) -> Vec<u8> {\n    // analyze: allow(recovery-hook, \"not a recovery path at all\")\n    b.to_vec()\n}\n";
    assert!(rules(&lint_source("crates/wire/src/buffer.rs", src)).contains(&Rule::PayloadCopy));
}

#[test]
fn telemetry_hook_suppresses_panic_and_blocking() {
    let idx = "fn f(v: &[u8]) -> u8 {\n    // analyze: allow(telemetry-hook, \"frame encode of a value the sampler just built\")\n    v[0]\n}\n";
    assert!(!rules(&lint_source(HOT, idx)).contains(&Rule::Panic));
    let sleep = "fn f() {\n    // analyze: allow(telemetry-hook, \"sink flush may park briefly on this platform\")\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    assert!(!rules(&lint_source(HOT, sleep)).contains(&Rule::Blocking));
}

#[test]
fn telemetry_hook_is_a_known_key_but_needs_a_reason() {
    let with_reason = "// analyze: allow(telemetry-hook, \"why\")\nfn f() {}\n";
    assert!(lint_source(HOT, with_reason).is_empty());
    let bare = "fn f(v: &[u8]) -> u8 {\n    v[0] // analyze: allow(telemetry-hook)\n}\n";
    let got = rules(&lint_source(HOT, bare));
    assert!(got.contains(&Rule::Annotation));
    assert!(got.contains(&Rule::Panic));
}

#[test]
fn telemetry_hook_does_not_suppress_payload_copy() {
    let src = "fn f(b: &WireBytes) -> Vec<u8> {\n    // analyze: allow(telemetry-hook, \"not a telemetry path at all\")\n    b.to_vec()\n}\n";
    assert!(rules(&lint_source("crates/wire/src/buffer.rs", src)).contains(&Rule::PayloadCopy));
}

#[test]
fn net_hook_suppresses_blocking_and_nondeterminism_in_net_scope() {
    // The transport crate and the core Net driver are in the blocking and
    // nondeterminism scopes; one net-hook allow covers either rule.
    let sleep = "fn beat() {\n    // analyze: allow(net-hook, \"heartbeat cadence sleep on a supervision thread\")\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    assert!(lint_source("crates/net/src/peer.rs", sleep).is_empty());
    let clock = "fn deadline() -> std::time::Instant {\n    // analyze: allow(net-hook, \"transport deadlines are wall-clock by definition\")\n    std::time::Instant::now()\n}\n";
    assert!(lint_source("crates/core/src/net.rs", clock).is_empty());
}

#[test]
fn net_scope_fires_without_annotation() {
    // Unannotated blocking I/O in the transport crate is a finding, as is
    // an unannotated wall-clock read (Instant or SystemTime) in the core
    // Net driver.
    let mutex = "use std::sync::Mutex;\nstruct S {\n    m: Mutex<u32>,\n}\n";
    assert!(rules(&lint_source("crates/net/src/node.rs", mutex)).contains(&Rule::Blocking));
    let clock = "fn nonce() -> u64 {\n    std::time::SystemTime::now();\n    0\n}\n";
    assert!(rules(&lint_source("crates/core/src/net.rs", clock)).contains(&Rule::Nondeterminism));
}

#[test]
fn net_hook_does_not_suppress_payload_copy_or_leak_scope() {
    // The umbrella covers panic/blocking/nondeterminism only...
    let copy = "fn f(b: &WireBytes) -> Vec<u8> {\n    // analyze: allow(net-hook, \"not a transport path at all\")\n    b.to_vec()\n}\n";
    assert!(rules(&lint_source("crates/wire/src/buffer.rs", copy)).contains(&Rule::PayloadCopy));
    // ...and a reason is still mandatory.
    let bare = "fn f() {\n    std::thread::sleep(d()); // analyze: allow(net-hook)\n}\n";
    let got = rules(&lint_source("crates/net/src/peer.rs", bare));
    assert!(got.contains(&Rule::Annotation));
    assert!(got.contains(&Rule::Blocking));
}

#[test]
fn nondeterminism_fires_on_hash_iteration_in_scope() {
    let src = "fn order(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n    m.keys().copied().collect()\n}\n";
    assert!(rules(&lint_source(HOT, src)).contains(&Rule::Nondeterminism));
    assert!(rules(&lint_source("crates/sim/src/queue.rs", src)).contains(&Rule::Nondeterminism));
}

#[test]
fn nondeterminism_fires_on_wall_clock_in_scope() {
    let src = "fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert!(rules(&lint_source(HOT, src)).contains(&Rule::Nondeterminism));
}

#[test]
fn nondeterminism_outside_scope_is_ignored() {
    let src = "fn order(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n    m.keys().copied().collect()\n}\n";
    assert!(lint_source("crates/apps/src/lib.rs", src).is_empty());
}

#[test]
fn nondeterminism_exempts_test_modules() {
    let src = concat!(
        "fn prod() {}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    fn t(m: &std::collections::HashMap<u32, u32>) -> usize { m.keys().count() }\n",
        "}\n"
    );
    assert!(lint_source(HOT, src).is_empty());
}

#[test]
fn nondeterminism_allow_suppresses() {
    let src = "fn order(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n    // analyze: allow(nondeterminism, \"hash order erased by the sort below\")\n    let mut v: Vec<u32> = m.keys().copied().collect();\n    v.sort_unstable();\n    v\n}\n";
    assert!(lint_source(HOT, src).is_empty());
}

#[test]
fn vec_drain_with_range_does_not_fire() {
    // Vec::drain takes a range; only the argless map/set form is flagged.
    let src = "fn f(v: &mut Vec<u8>) -> Vec<u8> {\n    v.drain(..).collect()\n}\n";
    assert!(lint_source(HOT, src).is_empty());
}

#[test]
fn stale_allow_is_flagged_by_lint_file() {
    // Well-formed, reasoned, known key — but nothing on the line (or below)
    // for it to suppress.
    let src = "// analyze: allow(panic, \"stale: the unwrap was refactored away\")\nfn f() -> u32 {\n    1\n}\n";
    let got = lint_file(HOT, src, false);
    assert!(rules(&got).contains(&Rule::StaleAllow));
}

#[test]
fn used_allow_is_not_stale() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // analyze: allow(panic, \"checked by caller\")\n    x.unwrap()\n}\n";
    let got = lint_file(HOT, src, false);
    assert!(got.is_empty());
}

#[test]
fn stale_allow_out_of_rule_scope_is_flagged() {
    // The pattern is present, but the file is outside the rule's scope, so
    // the allow suppresses nothing there.
    let src = "fn f(x: Option<u32>) -> u32 {\n    // analyze: allow(panic, \"checked by caller\")\n    x.unwrap()\n}\n";
    let got = lint_file("crates/apps/src/lib.rs", src, false);
    assert!(rules(&got).contains(&Rule::StaleAllow));
}

#[test]
fn unsafe_allow_counts_as_used_on_crate_root() {
    let src = "// analyze: allow(unsafe, \"FFI shim for page-locked buffers\")\n#![deny(unsafe_code)]\npub fn f() {}\n";
    assert!(lint_file("crates/x/src/lib.rs", src, true).is_empty());
    // But the same annotation on a non-root file suppresses nothing.
    let got = lint_file("crates/x/src/other.rs", src, false);
    assert!(rules(&got).contains(&Rule::StaleAllow));
}

#[test]
fn malformed_allow_is_not_reported_stale() {
    // Missing reason already yields an Annotation finding; it must not ALSO
    // be double-reported as stale.
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // analyze: allow(panic)\n}\n";
    let got = lint_file(HOT, src, false);
    assert!(rules(&got).contains(&Rule::Annotation));
    assert!(!rules(&got).contains(&Rule::StaleAllow));
}

#[test]
fn self_test_detects_every_seeded_violation() {
    let findings = self_test().expect("linter must catch every seeded violation");
    for r in Rule::all() {
        assert!(
            findings.iter().any(|f| f.rule == r),
            "no finding for rule {:?}",
            r
        );
    }
}

#[test]
fn scheduler_rules_follow_impl_pestate_blocks_into_any_core_file() {
    // `lb.rs` is not a scheduler file, but the protocol it hosts is.
    let src = concat!(
        "fn strategy(v: &[u8]) -> u8 {\n",
        "    v[0]\n",
        "}\n",
        "impl PeState {\n",
        "    fn epoch(&self, v: &[u8]) -> u8 {\n",
        "        let _ = std::time::Instant::now();\n",
        "        v[0]\n",
        "    }\n",
        "}\n",
        "fn after(x: Option<u8>) -> u8 {\n",
        "    x.unwrap()\n",
        "}\n"
    );
    let found = lint_source("crates/core/src/lb.rs", src);
    let at: Vec<(usize, Rule)> = found.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(at, vec![(7, Rule::Panic), (6, Rule::Nondeterminism)]);
    // The same text outside `crates/core/src` is nobody's scheduler.
    assert!(lint_source("crates/lb/src/lib.rs", src).is_empty());
}

/// Reasoned `analyze: allow(..)` annotations in the whole workspace, and in
/// `crates/core/src` alone (154 before the scheduler's protocols moved into
/// modules with `slot()` / `spec()` accessors that carry their invariant
/// once). A ceiling, not a target: lower it whenever the count drops; an
/// allow-list that grows is a rule or a design that is wrong.
const ALLOW_CEILING: usize = 91;
const CORE_ALLOW_CEILING: usize = 82;

#[test]
fn allow_list_only_shrinks() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let total = |prefix: &str| -> usize {
        let by_key = charm_analyze::count_allows(&root, prefix).expect("workspace walk failed");
        by_key.values().sum()
    };
    let (all, core) = (total(""), total("crates/core/src/"));
    assert!(
        core > 0,
        "the walk found no sources under {}",
        root.display()
    );
    assert!(
        all <= ALLOW_CEILING && core <= CORE_ALLOW_CEILING,
        "allow-list grew: {all} in the workspace (ceiling {ALLOW_CEILING}), \
         {core} in crates/core/src (ceiling {CORE_ALLOW_CEILING})"
    );
}
