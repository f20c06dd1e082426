//! Workspace symbol table, call graph, and rule P2 (interprocedural
//! panic reachability).
//!
//! P1 bans panicking operators *textually* inside control-plane files,
//! but the agent and cluster manager lean on helpers in `sdfm-types`,
//! `sdfm-kernel`, and `sdfm-compress` — crates where P1 is not enforced.
//! A control-plane function calling a helper that can `unwrap()` is one
//! bad input away from crashing the machine, which is exactly the
//! contract the paper's control plane must never break. P2 closes that
//! hole: it builds a name-resolution table over every non-test function
//! in the workspace, marks the functions that contain an **unwaived**
//! panicking operation outside tests (the existing `allow(P1)` waiver at
//! the definition site is honored transitively — a justified panic is not
//! a hazard), propagates reachability over the call graph to a fixpoint,
//! and flags each control-plane call site whose callee can reach a panic.
//!
//! Resolution is deliberately syntactic and conservative in *both*
//! directions: a qualified call (`CostModel::calibrate(...)`) narrows to
//! that impl's methods; bare calls resolve to every workspace function of
//! that name (union over overloads), and method calls to every function
//! of that name taking a `self` receiver — method syntax cannot reach a
//! free function. Method calls whose name
//! collides with ubiquitous std methods (`get`, `insert`, `write`, ...)
//! are not resolved — a `.get(...)` on a `BTreeMap` is almost never the
//! workspace fn of the same name, and a false edge there would poison
//! whole crates.

use std::collections::BTreeMap;

use crate::lexer::LexOutput;
use crate::parse::{call_sites, CallSite, FileTree};
use crate::rules::{Hit, Rule};

/// Everything the graph needs to know about one parsed file.
pub struct FileUnit<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// The lexer's output (tokens + waivers).
    pub lexed: &'a LexOutput,
    /// `#[cfg(test)]` token spans.
    pub test_spans: &'a [(usize, usize)],
    /// The parsed item tree.
    pub tree: &'a FileTree,
    /// Whether the whole file is test code (fns excluded from the graph).
    pub test_file: bool,
    /// Whether P2 flags call sites in this file (control-plane scope).
    pub control_plane: bool,
}

/// One function node in the workspace call graph.
struct FnNode {
    /// Index into the `FileUnit` slice.
    file: usize,
    /// Index into that file's `tree.fns`.
    decl: usize,
    /// Call sites inside the body.
    calls: Vec<CallSite>,
    /// Why this function can reach a panic, when it can: a short witness
    /// chain for the diagnostic (`"`.unwrap()` at line 42"` or
    /// `"calls `helper` (line 10) → `.unwrap()` at line 42"`).
    witness: Option<String>,
}

/// Method-call names too common in std to resolve by bare name; a false
/// edge through these would connect unrelated code.
const STD_METHOD_NAMES: &[&str] = &[
    "get", "insert", "remove", "push", "pop", "len", "clear", "contains", "iter", "new", "next",
    "clone", "default", "from", "into", "write", "read", "lock", "min", "max", "sum", "map",
    "filter", "fold", "take", "send", "recv", "join", "run", "step", "record", "reset", "add",
    "sub", "mul", "div", "cmp", "eq", "fmt", "drop", "finish", "extend", "sort", "swap",
];

/// The workspace call graph with panic-capability facts.
pub struct CallGraph {
    nodes: Vec<FnNode>,
    /// bare name → node indices.
    by_name: BTreeMap<String, Vec<usize>>,
    /// (impl owner, name) → node indices.
    by_owner: BTreeMap<(String, String), Vec<usize>>,
    /// bare name → node indices of functions taking a `self` receiver
    /// (the only ones `.name(...)` can call).
    by_method: BTreeMap<String, Vec<usize>>,
}

/// Whether the parameter list at `params` (inclusive of both parens)
/// opens with a `self` receiver (`self`, `&self`, `&mut self`,
/// `mut self`, `self: Box<Self>`).
fn has_self_receiver(tokens: &[crate::lexer::Token], params: (usize, usize)) -> bool {
    tokens
        .get(params.0 + 1..params.1)
        .unwrap_or_default()
        .iter()
        .take_while(|t| t.punct() != Some(',') && t.punct() != Some(':'))
        .any(|t| t.ident() == Some("self"))
}

impl CallGraph {
    /// Builds the graph and runs the reachability fixpoint.
    pub fn build(files: &[FileUnit<'_>]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut by_method: BTreeMap<String, Vec<usize>> = BTreeMap::new();

        for (fi, file) in files.iter().enumerate() {
            if file.test_file {
                continue;
            }
            for (di, decl) in file.tree.fns.iter().enumerate() {
                if decl.in_test_span {
                    continue;
                }
                let calls = decl
                    .body
                    .map(|span| call_sites(&file.lexed.tokens, span))
                    .unwrap_or_default();
                let idx = nodes.len();
                nodes.push(FnNode {
                    file: fi,
                    decl: di,
                    calls,
                    witness: None,
                });
                by_name.entry(decl.name.clone()).or_default().push(idx);
                if has_self_receiver(&file.lexed.tokens, decl.params) {
                    by_method.entry(decl.name.clone()).or_default().push(idx);
                }
                if !decl.owner.is_empty() {
                    by_owner
                        .entry((decl.owner.clone(), decl.name.clone()))
                        .or_default()
                        .push(idx);
                }
            }
        }

        let mut graph = CallGraph {
            nodes,
            by_name,
            by_owner,
            by_method,
        };
        graph.seed_own_panics(files);
        graph.propagate(files);
        graph
    }

    /// Marks every function containing an unwaived panicking operation
    /// outside test spans — the base facts of the fixpoint.
    fn seed_own_panics(&mut self, files: &[FileUnit<'_>]) {
        // Group nodes by file for span lookup.
        for ni in 0..self.nodes.len() {
            let file = &files[self.nodes[ni].file];
            let decl = &file.tree.fns[self.nodes[ni].decl];
            let Some((s, e)) = decl.body else { continue };
            let tokens = &file.lexed.tokens;
            let mut witness = None;
            for hit in crate::rules::scan(tokens) {
                if hit.rule != Rule::P1 || hit.token < s || hit.token > e {
                    continue;
                }
                if file
                    .test_spans
                    .iter()
                    .any(|&(ts, te)| hit.token >= ts && hit.token <= te)
                {
                    continue;
                }
                // A definition-site waiver for P1 (or P2) declares the
                // panic justified; honor it transitively.
                let waived = file
                    .lexed
                    .waivers
                    .iter()
                    .any(|w| w.covers("P1", hit.line) || w.covers("P2", hit.line));
                if waived {
                    continue;
                }
                let what = tokens[hit.token].ident().unwrap_or("panic");
                witness = Some(format!("`{}` at {}:{}", what, file.rel, hit.line));
                break;
            }
            self.nodes[ni].witness = witness;
        }
    }

    /// Resolves one call site to candidate node indices. `caller_owner` is
    /// the impl owner of the function containing the call, used to resolve
    /// `Self::` paths.
    fn resolve(&self, call: &CallSite, caller_owner: &str) -> &[usize] {
        if !call.qualifier.is_empty() {
            let owner = if call.qualifier == "Self" {
                caller_owner
            } else {
                call.qualifier.as_str()
            };
            if let Some(v) = self.by_owner.get(&(owner.to_string(), call.name.clone())) {
                return v;
            }
            // A type-like qualifier (CamelCase) names an impl we did not
            // index — std, an external crate, or a bare trait path like
            // `Default::default`. Falling back to the bare-name union here
            // would fabricate edges through common constructor names
            // (`new`, `default`) and connect unrelated code, so resolve to
            // nothing. Lowercase qualifiers are module paths to free
            // functions; those keep the bare-name fallback.
            if owner.chars().next().is_some_and(|c| c.is_uppercase()) {
                return &[];
            }
        }
        let index = if call.method {
            if STD_METHOD_NAMES.contains(&call.name.as_str()) {
                return &[];
            }
            &self.by_method
        } else {
            &self.by_name
        };
        index.get(&call.name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Fixpoint: a function can panic if it contains a panic or calls one
    /// that can. Witnesses record the first discovered chain, truncated so
    /// deep chains stay readable.
    fn propagate(&mut self, files: &[FileUnit<'_>]) {
        loop {
            let mut changed = false;
            for ni in 0..self.nodes.len() {
                if self.nodes[ni].witness.is_some() {
                    continue;
                }
                let mut found = None;
                let caller_owner =
                    &files[self.nodes[ni].file].tree.fns[self.nodes[ni].decl].owner;
                'calls: for call in &self.nodes[ni].calls {
                    for &target in self.resolve(call, caller_owner) {
                        if target == ni {
                            continue;
                        }
                        if let Some(w) = &self.nodes[target].witness {
                            let mut chain =
                                format!("calls `{}` (line {}) → {}", call.name, call.line, w);
                            if chain.len() > 220 {
                                let mut cut = 219;
                                while !chain.is_char_boundary(cut) {
                                    cut -= 1;
                                }
                                chain.truncate(cut);
                                chain.push('…');
                            }
                            found = Some(chain);
                            break 'calls;
                        }
                    }
                }
                if found.is_some() {
                    self.nodes[ni].witness = found;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// P2 hits for one file: call sites in control-plane functions whose
    /// callee can reach a panic. The caller applies waivers/test filters.
    pub fn p2_hits(&self, files: &[FileUnit<'_>], file_idx: usize) -> Vec<Hit> {
        let mut hits = Vec::new();
        let file = &files[file_idx];
        if !file.control_plane {
            return hits;
        }
        for node in self.nodes.iter().filter(|n| n.file == file_idx) {
            let caller_owner = &file.tree.fns[node.decl].owner;
            for call in &node.calls {
                for &target in self.resolve(call, caller_owner) {
                    let t = &self.nodes[target];
                    if t.file == file_idx && t.decl == node.decl {
                        continue; // self-recursion
                    }
                    if let Some(w) = &t.witness {
                        let target_decl = &files[t.file].tree.fns[t.decl];
                        hits.push(Hit {
                            rule: Rule::P2,
                            line: call.line,
                            token: call.token,
                            message: format!(
                                "`{}` (defined at {}:{}) can reach a panic outside tests: \
                                 {} — control-plane code must degrade gracefully; handle \
                                 the error, call a non-panicking variant, or waive with \
                                 allow(P2)",
                                call.name, files[t.file].rel, target_decl.line, w
                            ),
                        });
                        break; // one hit per call site
                    }
                }
            }
        }
        hits.sort_by_key(|h| h.token);
        hits.dedup_by_key(|h| h.token);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_spans};
    use crate::parse::parse_file;

    struct Owned {
        rel: String,
        lexed: LexOutput,
        spans: Vec<(usize, usize)>,
        tree: FileTree,
        control_plane: bool,
    }

    fn prep(files: &[(&str, &str, bool)]) -> Vec<Owned> {
        files
            .iter()
            .map(|(rel, src, cp)| {
                let lexed = lex(src);
                let spans = test_spans(&lexed.tokens);
                let tree = parse_file(&lexed.tokens, &spans);
                Owned {
                    rel: rel.to_string(),
                    lexed,
                    spans,
                    tree,
                    control_plane: *cp,
                }
            })
            .collect()
    }

    fn units(owned: &[Owned]) -> Vec<FileUnit<'_>> {
        owned
            .iter()
            .map(|o| FileUnit {
                rel: &o.rel,
                lexed: &o.lexed,
                test_spans: &o.spans,
                tree: &o.tree,
                test_file: false,
                control_plane: o.control_plane,
            })
            .collect()
    }

    fn p2_lines(files: &[(&str, &str, bool)]) -> Vec<Vec<u32>> {
        let owned = prep(files);
        let fu = units(&owned);
        let graph = CallGraph::build(&fu);
        (0..fu.len())
            .map(|i| graph.p2_hits(&fu, i).into_iter().map(|h| h.line).collect())
            .collect()
    }

    #[test]
    fn direct_cross_file_panic_reaches_the_call_site() {
        let agent = "fn tick() {\n    let v = risky_parse();\n}";
        let types = "pub fn risky_parse() -> u32 { s.parse().unwrap() }";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines, vec![vec![2], vec![]]);
    }

    #[test]
    fn two_hop_chain_propagates() {
        let agent = "fn tick() { outer_helper(); }";
        let helpers = "pub fn outer_helper() { inner_helper(); }\n\
                       pub fn inner_helper() { panic!(\"boom\"); }";
        let lines = p2_lines(&[
            ("crates/cluster/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", helpers, false),
        ]);
        assert_eq!(lines[0], vec![1]);
    }

    #[test]
    fn def_site_waiver_is_honored_transitively() {
        let agent = "fn tick() { checked_helper(); }";
        let types = "pub fn checked_helper() {\n    \
                     // sdfm-lint: allow(P1) reason=\"len checked above\"\n    \
                     let v = xs.first().unwrap();\n}";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines, vec![vec![], vec![]], "waived panic is not a hazard");
    }

    #[test]
    fn test_code_is_outside_the_graph() {
        let agent = "fn tick() { helper(); }";
        let types = "pub fn helper() { ok(); }\n\
                     #[cfg(test)]\nmod tests {\n    fn helper_test() { x.unwrap(); }\n}";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines, vec![vec![], vec![]]);
    }

    #[test]
    fn qualified_calls_narrow_to_the_impl() {
        let agent = "fn tick() { let c = Safe::compute(); }";
        let types = "impl Safe { pub fn compute() -> u32 { 1 } }\n\
                     impl Risky { pub fn compute() -> u32 { x.unwrap() } }";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines[0], vec![], "Safe::compute has no panic");
        let agent2 = "fn tick() { let c = Risky::compute(); }";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent2, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines[0], vec![1]);
    }

    #[test]
    fn std_method_names_do_not_resolve() {
        let agent = "fn tick() { let v = map.get(&k); }";
        let types = "impl Table { pub fn get(&self) -> u32 { x.unwrap() } }";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines[0], vec![], ".get() is almost always std");
    }

    #[test]
    fn method_calls_do_not_resolve_to_free_functions() {
        // `x.round()` is `f64::round`, never a workspace free fn that
        // happens to share the name; a method with a receiver still
        // resolves.
        let agent = "fn tick() { let r = x.round(); }";
        let types = "pub fn round(opts: &Options) -> u32 { x.unwrap() }";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines[0], vec![], "free fn reached through method syntax");
        let types = "impl Dial { pub fn round(&self) -> u32 { x.unwrap() } }";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines[0], vec![1]);
    }

    #[test]
    fn unknown_type_qualifier_does_not_fall_back_to_name_union() {
        // `HashMap::new()` must not resolve to some unrelated local `new`
        // that panics — a type-like qualifier outside the index means the
        // callee is external, not "any function with that name".
        let agent = "fn tick() { let m = HashMap::new(); }";
        let types = "impl Builder { pub fn new() -> Self { x.unwrap() } }";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines[0], vec![], "HashMap is not Builder");
    }

    #[test]
    fn self_qualifier_resolves_within_the_impl() {
        let agent = "impl Pool {\n    pub fn default_cfg() -> Self { Self::new() }\n    \
                     pub fn new() -> Self { x.unwrap() }\n}\n\
                     fn tick() { let p = Pool::default_cfg(); }";
        let lines = p2_lines(&[("crates/agent/src/lib.rs", agent, true)]);
        assert_eq!(lines[0], vec![2, 5], "Self::new is Pool::new");
    }

    #[test]
    fn module_path_qualifiers_keep_the_free_fn_fallback() {
        let agent = "fn tick() { arith::risky_div(a, b); }";
        let types = "pub fn risky_div(a: u64, b: u64) -> u64 { a.checked_div(b).unwrap() }";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/arith.rs", types, false),
        ]);
        assert_eq!(lines[0], vec![1], "lowercase qualifier is a module path");
    }

    #[test]
    fn recursion_terminates() {
        let agent = "fn tick() { ping(); }";
        let types = "pub fn ping() { pong(); }\npub fn pong() { ping(); }";
        let lines = p2_lines(&[
            ("crates/agent/src/lib.rs", agent, true),
            ("crates/types/src/lib.rs", types, false),
        ]);
        assert_eq!(lines, vec![vec![], vec![]]);
    }
}
