//! Cross-crate call graph with approximate name resolution.
//!
//! Nodes are every `fn` item the parser extracted across the workspace;
//! edges come from call sites, resolved by path-suffix + method-name
//! matching (no type inference — see DESIGN.md for the false-positive /
//! false-negative classes this implies):
//!
//! * `a::b::name(..)` / `Type::name(..)` — the last segment names the
//!   function; the second-to-last, when present, must match the callee's
//!   impl type, its file stem, or its crate.
//! * `.name(..)` — matches every workspace method of that name *except*
//!   names that collide with the std prelude (`push`, `iter`, `len`, …),
//!   which would otherwise connect the graph through std calls.
//! * bare `name(..)` — matches free functions of that name in the calling
//!   crate, or cross-crate through a `use` mapping for the leaf.
//!
//! Ambiguity resolves to *all* candidates (sound over-approximation for
//! the taint/lock passes; the dump is deterministic either way).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::parser::{CallSite, ParsedFile};

/// Method names whose bare `.name(..)` call is overwhelmingly a std-type
/// method; resolving them to same-named workspace methods would connect
/// the graph through every `Vec::push`. Qualified calls (`Type::name`)
/// bypass this list.
pub const STD_COLLISIONS: &[&str] = &[
    "abs",
    "all",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "ceil",
    "chain",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "default",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "into_keys",
    "into_values",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "nth",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "peek",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "read",
    "remove",
    "resize",
    "retain",
    "rev",
    "round",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split",
    "sqrt",
    "starts_with",
    "step_by",
    "sum",
    "take",
    "then",
    "then_with",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_into",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "write",
    "zip",
];

/// One function in the workspace.
#[derive(Debug)]
pub struct FnNode {
    pub crate_name: String,
    /// Normalized path relative to the workspace root.
    pub file: String,
    pub qual: Option<String>,
    pub trait_name: Option<String>,
    pub name: String,
    pub has_self: bool,
    /// Declared plain `pub`.
    pub is_pub: bool,
    pub line: usize,
    /// Body byte span in the file's scrubbed text.
    pub body: Range<usize>,
    /// Inside a `#[cfg(test)]` region: kept as a node (so the dump shows
    /// it) but ignored by every pass.
    pub is_test: bool,
}

impl FnNode {
    /// `crate::Qual::name` — the display id used in graph dumps.
    pub fn display(&self) -> String {
        match &self.qual {
            Some(q) if !q.is_empty() => format!("{}::{}::{}", self.crate_name, q, self.name),
            _ => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// A resolved call edge: `from` calls `to` at `line` (in `from`'s file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallEdge {
    pub from: usize,
    pub to: usize,
    pub line: usize,
}

#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    pub edges: Vec<CallEdge>,
    /// Adjacency: `callees[i]` lists (node, call-site line) pairs.
    pub callees: Vec<Vec<(usize, usize)>>,
    /// Reverse adjacency, for [`CallGraph::reaching`].
    #[cfg_attr(not(test), allow(dead_code))]
    pub callers: Vec<Vec<usize>>,
}

/// Per-file input to graph construction.
pub struct FileFns<'a> {
    pub rel: &'a str,
    pub crate_name: &'a str,
    pub parsed: &'a ParsedFile,
    /// Per-line test-region marks from the lexer.
    pub is_test: &'a [bool],
}

pub fn crate_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        ["examples", ..] => "examples".to_string(),
        ["perfbench", ..] => "perfbench".to_string(),
        _ => "oat".to_string(),
    }
}

fn file_stem(rel: &str) -> &str {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    base.strip_suffix(".rs").unwrap_or(base)
}

/// `SizeAnalyzer` -> `size_analyzer`, for matching a qualifier against a
/// module file stem.
fn to_snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

impl CallGraph {
    pub fn build(files: &[FileFns<'_>]) -> CallGraph {
        let mut nodes = Vec::new();
        // (file index, fn index) per node, to re-walk call sites after
        // the name index exists.
        let mut origins = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, item) in f.parsed.fns.iter().enumerate() {
                nodes.push(FnNode {
                    crate_name: f.crate_name.to_string(),
                    file: f.rel.to_string(),
                    qual: item.qual.clone().filter(|q| !q.is_empty()),
                    trait_name: item.trait_name.clone(),
                    name: item.name.clone(),
                    has_self: item.has_self,
                    is_pub: item.is_pub,
                    line: item.line,
                    body: item.body.clone(),
                    is_test: f.is_test.get(item.line).copied().unwrap_or(false),
                });
                origins.push((fi, gi));
            }
        }

        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(&n.name).or_default().push(i);
        }

        let mut edges = BTreeSet::new();
        for (i, &(fi, gi)) in origins.iter().enumerate() {
            let f = &files[fi];
            let uses: BTreeMap<&str, &[String]> = f
                .parsed
                .uses
                .iter()
                .map(|u| (u.leaf.as_str(), u.path.as_slice()))
                .collect();
            for call in &f.parsed.fns[gi].calls {
                for target in resolve(call, &nodes[i], &nodes, &by_name, &uses) {
                    if target != i {
                        edges.insert(CallEdge {
                            from: i,
                            to: target,
                            line: call.line,
                        });
                    }
                }
            }
        }

        let edges: Vec<CallEdge> = edges.into_iter().collect();
        let mut callees = vec![Vec::new(); nodes.len()];
        let mut callers = vec![Vec::new(); nodes.len()];
        for e in &edges {
            callees[e.from].push((e.to, e.line));
            if !callers[e.to].contains(&e.from) {
                callers[e.to].push(e.from);
            }
        }
        CallGraph {
            nodes,
            edges,
            callees,
            callers,
        }
    }

    /// Nodes forward-reachable from `seeds` (inclusive), skipping test fns.
    pub fn reachable_from(&self, seeds: impl IntoIterator<Item = usize>) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = seeds.into_iter().collect();
        while let Some(n) = stack.pop() {
            if seen[n] || self.nodes[n].is_test {
                continue;
            }
            seen[n] = true;
            for &(c, _) in &self.callees[n] {
                if !seen[c] {
                    stack.push(c);
                }
            }
        }
        seen
    }

    /// Nodes from which any of `seeds` is reachable (callers closure,
    /// inclusive), skipping test fns. The backward counterpart of
    /// [`CallGraph::reachable_from`]; kept as public API for passes that walk
    /// from sinks instead of entries.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn reaching(&self, seeds: impl IntoIterator<Item = usize>) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = seeds.into_iter().collect();
        while let Some(n) = stack.pop() {
            if seen[n] || self.nodes[n].is_test {
                continue;
            }
            seen[n] = true;
            for &c in &self.callers[n] {
                if !seen[c] {
                    stack.push(c);
                }
            }
        }
        seen
    }

    /// Deterministic DOT dump (nodes and edges sorted by display id).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph oat {\n");
        let mut labels: Vec<String> = self
            .nodes
            .iter()
            .map(|n| format!("  \"{}\" [file=\"{}:{}\"];\n", n.display(), n.file, n.line))
            .collect();
        labels.sort();
        for l in labels {
            out.push_str(&l);
        }
        let mut lines: Vec<String> = self
            .edges
            .iter()
            .map(|e| {
                format!(
                    "  \"{}\" -> \"{}\";\n",
                    self.nodes[e.from].display(),
                    self.nodes[e.to].display()
                )
            })
            .collect();
        lines.sort();
        lines.dedup();
        for l in lines {
            out.push_str(&l);
        }
        out.push_str("}\n");
        out
    }

    /// Deterministic JSON dump: `{"nodes": [...], "edges": [[from, to]]}`
    /// with node indices referring to the nodes array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {i}, \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \"test\": {}}}{}\n",
                n.display(),
                n.file,
                n.line,
                n.is_test,
                if i + 1 < self.nodes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            out.push_str(&format!(
                "    [{}, {}]{}\n",
                e.from,
                e.to,
                if i + 1 < self.edges.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn resolve(
    call: &CallSite,
    caller: &FnNode,
    nodes: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    uses: &BTreeMap<&str, &[String]>,
) -> Vec<usize> {
    let leaf = match call.path.last() {
        Some(l) => l.as_str(),
        None => return Vec::new(),
    };
    let candidates = match by_name.get(leaf) {
        Some(c) => c.as_slice(),
        None => return Vec::new(),
    };

    if call.path.len() >= 2 {
        // Qualified: `Qual::leaf`. `Self` maps to the caller's impl type.
        let qual = match call.path[call.path.len() - 2].as_str() {
            "Self" | "self" => match &caller.qual {
                Some(q) => q.as_str(),
                None => return Vec::new(),
            },
            q => q,
        };
        return qualified(qual, nodes, candidates);
    }

    if call.is_method {
        if STD_COLLISIONS.contains(&leaf) {
            return Vec::new();
        }
        return candidates
            .iter()
            .copied()
            .filter(|&c| nodes[c].has_self)
            .collect();
    }

    // Bare call: a `use` mapping resolves cross-crate; otherwise free fns
    // in the calling crate (closures and locals shadowing a fn name are a
    // documented false-positive class).
    if let Some(path) = uses.get(leaf) {
        if path.len() >= 2 {
            return qualified(&path[path.len() - 2], nodes, candidates);
        }
    }
    candidates
        .iter()
        .copied()
        .filter(|&c| {
            let n = &nodes[c];
            n.qual.is_none() && n.crate_name == caller.crate_name
        })
        .collect()
}

/// The `candidates` a path qualified by `qual` (`qual::leaf`) can name: the
/// impl type, the module file stem, or the crate.
pub fn qualified(qual: &str, nodes: &[FnNode], candidates: &[usize]) -> Vec<usize> {
    let qual_snake = to_snake(qual);
    let crate_hint = qual.strip_prefix("oat_").unwrap_or(qual);
    candidates
        .iter()
        .copied()
        .filter(|&c| {
            let n = &nodes[c];
            n.qual.as_deref() == Some(qual)
                || file_stem(&n.file) == qual_snake
                || (n.qual.is_none() && n.crate_name == crate_hint)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;
    use crate::parser::parse_file;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(_, src)| parse_file(&scrub(src).text))
            .collect();
        let marks: Vec<Vec<bool>> = files
            .iter()
            .map(|(_, src)| crate::lexer::test_region_lines(&scrub(src).text))
            .collect();
        let inputs: Vec<FileFns> = files
            .iter()
            .zip(&parsed)
            .zip(&marks)
            .map(|(((rel, _), parsed), is_test)| FileFns {
                rel,
                crate_name: Box::leak(crate_of(rel).into_boxed_str()),
                parsed,
                is_test,
            })
            .collect();
        CallGraph::build(&inputs)
    }

    fn find(g: &CallGraph, display: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.display() == display)
            .unwrap_or_else(|| panic!("no node {display}"))
    }

    #[test]
    fn free_fn_edges_within_crate() {
        let g = graph_of(&[(
            "crates/workload/src/lib.rs",
            "pub fn a() { b(); }\nfn b() {}\n",
        )]);
        let a = find(&g, "workload::a");
        let b = find(&g, "workload::b");
        assert!(g.callees[a].iter().any(|&(t, _)| t == b));
    }

    #[test]
    fn method_edges_cross_crates_unless_std_collision() {
        let g = graph_of(&[
            (
                "crates/core/src/lib.rs",
                "pub fn run(s: &S) { s.observe(); s.push(1); }",
            ),
            (
                "crates/cdnsim/src/lib.rs",
                "impl S { pub fn observe(&self) {} pub fn push(&self, x: u32) {} }",
            ),
        ]);
        let run = find(&g, "core::run");
        let observe = find(&g, "cdnsim::S::observe");
        assert!(g.callees[run].iter().any(|&(t, _)| t == observe));
        // `.push` collides with Vec::push: no edge.
        let push = find(&g, "cdnsim::S::push");
        assert!(!g.callees[run].iter().any(|&(t, _)| t == push));
    }

    #[test]
    fn qualified_calls_match_type_module_or_crate() {
        let g = graph_of(&[
            (
                "crates/core/src/experiment.rs",
                "pub fn run() { Simulator::new_sim(); merge::fold_runs(); oat_workload::spawn_gen(); }",
            ),
            (
                "crates/cdnsim/src/simulator.rs",
                "impl Simulator { pub fn new_sim() {} }",
            ),
            ("crates/workload/src/merge.rs", "pub fn fold_runs() {}"),
            ("crates/workload/src/lib.rs", "pub fn spawn_gen() {}"),
        ]);
        let run = find(&g, "core::run");
        for target in [
            "cdnsim::Simulator::new_sim",
            "workload::fold_runs",
            "workload::spawn_gen",
        ] {
            let t = find(&g, target);
            assert!(
                g.callees[run].iter().any(|&(c, _)| c == t),
                "missing edge to {target}"
            );
        }
    }

    #[test]
    fn use_mapping_resolves_bare_cross_crate_calls() {
        let g = graph_of(&[
            (
                "crates/core/src/lib.rs",
                "use oat_workload::generate_trace;\npub fn run() { generate_trace(); }",
            ),
            ("crates/workload/src/lib.rs", "pub fn generate_trace() {}"),
        ]);
        let run = find(&g, "core::run");
        let gen = find(&g, "workload::generate_trace");
        assert!(g.callees[run].iter().any(|&(t, _)| t == gen));
    }

    #[test]
    fn self_qualified_calls_resolve_to_impl_type() {
        let g = graph_of(&[(
            "crates/cdnsim/src/simulator.rs",
            "impl Simulator { pub fn serve(&self) { Self::serve_local(); } fn serve_local() {} }",
        )]);
        let serve = find(&g, "cdnsim::Simulator::serve");
        let local = find(&g, "cdnsim::Simulator::serve_local");
        assert!(g.callees[serve].iter().any(|&(t, _)| t == local));
    }

    #[test]
    fn reachability_both_directions() {
        let g = graph_of(&[(
            "crates/core/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lone() {}\n",
        )]);
        let (a, c, lone) = (
            find(&g, "core::a"),
            find(&g, "core::c"),
            find(&g, "core::lone"),
        );
        let fwd = g.reachable_from([a]);
        assert!(fwd[c] && !fwd[lone]);
        let up = g.reaching([c]);
        assert!(up[a] && !up[lone]);
    }

    #[test]
    fn dumps_are_deterministic_and_well_formed() {
        let files = [("crates/core/src/lib.rs", "pub fn a() { b(); }\nfn b() {}\n")];
        let g1 = graph_of(&files);
        let g2 = graph_of(&files);
        assert_eq!(g1.to_dot(), g2.to_dot());
        assert_eq!(g1.to_json(), g2.to_json());
        assert!(g1.to_dot().contains("\"core::a\" -> \"core::b\";"));
        assert!(g1.to_json().contains("\"name\": \"core::a\""));
    }

    #[test]
    fn test_region_fns_are_flagged() {
        let g = graph_of(&[(
            "crates/core/src/lib.rs",
            "pub fn lib_fn() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { super::lib_fn(); }\n}\n",
        )]);
        let helper = find(&g, "core::helper");
        assert!(g.nodes[helper].is_test);
        let lib = find(&g, "core::lib_fn");
        assert!(!g.nodes[lib].is_test);
    }
}
