//! A line-oriented text format for netlist hypergraphs.
//!
//! The format mirrors how the paper presents its running example: one line
//! per signal, naming the modules it connects.
//!
//! ```text
//! # comments start with '#'; blank lines are ignored
//! a: 1 2 11
//! b: 2 4 11
//! clk: 1 3 4 12
//! @weight 1 5        # module 1 has weight (area) 5; default weight is 1
//! ```
//!
//! Module and signal names are arbitrary whitespace-free tokens. Commas are
//! accepted as separators interchangeably with spaces, so the paper's
//! `a: 1,2,11` notation parses as-is. Modules come into existence on first
//! mention; `@weight` directives may appear anywhere after or before the
//! first mention of their module (the parser resolves them at the end,
//! rejecting weights for modules that never appear in a signal).

use fhp_obs::writer::put;
use std::collections::BTreeMap;

use crate::{Hypergraph, HypergraphBuilder, ParseNetlistError, VertexId};

/// A parsed netlist: the hypergraph plus the human names of its modules and
/// signals.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = Netlist::parse("a: 1 2\nb: 2 3\n")?;
/// assert_eq!(nl.hypergraph().num_vertices(), 3);
/// assert_eq!(nl.hypergraph().num_edges(), 2);
/// assert_eq!(nl.signal_name(fhp_hypergraph::EdgeId::new(1)), "b");
/// assert_eq!(nl.module_id("3"), Some(fhp_hypergraph::VertexId::new(2)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    hypergraph: Hypergraph,
    module_names: Vec<String>,
    signal_names: Vec<String>,
    module_index: BTreeMap<String, VertexId>,
}

impl Netlist {
    /// Wraps a bare hypergraph with generated names: modules `m1..`,
    /// signals `n1..` (1-based, matching `.hgr` conventions).
    ///
    /// # Examples
    ///
    /// ```
    /// use fhp_hypergraph::{intersection::paper_example, Netlist};
    ///
    /// let nl = Netlist::from_hypergraph(paper_example());
    /// assert_eq!(nl.module_name(fhp_hypergraph::VertexId::new(0)), "m1");
    /// assert_eq!(nl.signal_name(fhp_hypergraph::EdgeId::new(8)), "n9");
    /// ```
    pub fn from_hypergraph(hypergraph: Hypergraph) -> Self {
        let module_names: Vec<String> = (1..=hypergraph.num_vertices())
            .map(|i| format!("m{i}"))
            .collect();
        let signal_names: Vec<String> = (1..=hypergraph.num_edges())
            .map(|i| format!("n{i}"))
            .collect();
        let module_index = module_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), VertexId::new(i)))
            .collect();
        Self {
            hypergraph,
            module_names,
            signal_names,
            module_index,
        }
    }

    /// Parses the text format described in the [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseNetlistError`] naming the offending line for
    /// malformed signal lines, duplicate signal names, malformed or dangling
    /// `@weight` directives, an input with no signals at all, or module
    /// weights that sum past `u64::MAX`.
    pub fn parse(text: &str) -> Result<Self, ParseNetlistError> {
        let mut builder = HypergraphBuilder::new();
        let mut module_index: BTreeMap<String, VertexId> = BTreeMap::new();
        let mut module_names: Vec<String> = Vec::new();
        let mut signal_names: Vec<String> = Vec::new();
        let mut signal_seen: BTreeMap<String, ()> = BTreeMap::new();
        let mut weights: Vec<(usize, String, u64)> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            let content = match raw.find('#') {
                Some(i) => &raw[..i], // fhp-audit: allow(panic-site) — name tables built in lockstep with ids by the parser
                None => raw,
            }
            .trim();
            if content.is_empty() {
                continue;
            }
            if let Some(rest) = content.strip_prefix("@weight") {
                let mut it = rest.split_whitespace();
                let (module, value) = match (it.next(), it.next(), it.next()) {
                    (Some(m), Some(v), None) => (m, v),
                    _ => return Err(ParseNetlistError::MalformedWeight { line }),
                };
                let w: u64 = value
                    .parse()
                    .map_err(|_| ParseNetlistError::MalformedWeight { line })?;
                if w == 0 {
                    return Err(ParseNetlistError::ZeroWeight {
                        line,
                        module: module.to_owned(),
                    });
                }
                weights.push((line, module.to_owned(), w));
                continue;
            }
            let Some((name, members)) = content.split_once(':') else {
                return Err(ParseNetlistError::MissingColon { line });
            };
            let name = name.trim();
            if name.is_empty() {
                return Err(ParseNetlistError::MissingColon { line });
            }
            if signal_seen.insert(name.to_owned(), ()).is_some() {
                return Err(ParseNetlistError::DuplicateSignal {
                    line,
                    signal: name.to_owned(),
                });
            }
            let mut pins = Vec::new();
            for token in members.split(|c: char| c.is_whitespace() || c == ',') {
                if token.is_empty() {
                    continue;
                }
                let id = *module_index.entry(token.to_owned()).or_insert_with(|| {
                    module_names.push(token.to_owned());
                    builder.add_vertex()
                });
                pins.push(id);
            }
            if pins.is_empty() {
                return Err(ParseNetlistError::EmptySignal {
                    line,
                    signal: name.to_owned(),
                });
            }
            signal_names.push(name.to_owned());
            builder
                .add_edge(pins)
                .expect("pins were just created, cannot be invalid"); // fhp-audit: allow(panic-site) — name tables built in lockstep with ids by the parser
        }

        if signal_names.is_empty() {
            return Err(ParseNetlistError::EmptyNetlist);
        }
        for (line, module, w) in weights {
            match module_index.get(&module) {
                Some(&v) => builder.set_vertex_weight(v, w),
                None => return Err(ParseNetlistError::UnknownModuleInWeight { line, module }),
            }
        }

        // zero weights were rejected per directive above, so a module
        // weight total past u64::MAX is the one rejection left
        let hypergraph = builder
            .try_build()
            .map_err(|_| ParseNetlistError::WeightOverflow)?;
        Ok(Self {
            hypergraph,
            module_names,
            signal_names,
            module_index,
        })
    }

    /// The underlying hypergraph. Vertex `i` is the `i`-th distinct module
    /// mentioned; edge `j` is the `j`-th signal line.
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hypergraph
    }

    /// Name of module `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn module_name(&self, v: VertexId) -> &str {
        &self.module_names[v.index()] // fhp-audit: allow(panic-site) — name tables built in lockstep with ids by the parser
    }

    /// Name of signal `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn signal_name(&self, e: crate::EdgeId) -> &str {
        &self.signal_names[e.index()] // fhp-audit: allow(panic-site) — name tables built in lockstep with ids by the parser
    }

    /// Looks a module up by name.
    pub fn module_id(&self, name: &str) -> Option<VertexId> {
        self.module_index.get(name).copied()
    }

    /// Looks a signal up by name (linear scan; signal counts are small in
    /// interactive use).
    pub fn signal_id(&self, name: &str) -> Option<crate::EdgeId> {
        self.signal_names
            .iter()
            .position(|s| s == name)
            .map(crate::EdgeId::new)
    }

    /// Serializes back to the text format. Non-unit module weights are
    /// emitted as `@weight` directives after the signals.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in self.hypergraph.edges() {
            put(&mut out, format_args!("{}:", self.signal_name(e)));
            for &p in self.hypergraph.pins(e) {
                put(&mut out, format_args!(" {}", self.module_name(p)));
            }
            out.push('\n');
        }
        for v in self.hypergraph.vertices() {
            let w = self.hypergraph.vertex_weight(v);
            if w != 1 {
                put(
                    &mut out,
                    format_args!("@weight {} {}\n", self.module_name(v), w),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeId;

    #[test]
    fn parses_paper_style_commas() {
        let nl = Netlist::parse("a: 1,2,11\nb: 2,4,11\n").unwrap();
        let h = nl.hypergraph();
        assert_eq!(h.num_vertices(), 4); // 1, 2, 11, 4
        assert_eq!(h.num_edges(), 2);
        assert_eq!(nl.module_name(VertexId::new(0)), "1");
        assert_eq!(nl.module_name(VertexId::new(2)), "11");
        assert_eq!(nl.signal_name(EdgeId::new(0)), "a");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let nl = Netlist::parse("# header\n\na: x y # trailing\n").unwrap();
        assert_eq!(nl.hypergraph().num_edges(), 1);
        assert_eq!(nl.hypergraph().num_vertices(), 2);
    }

    #[test]
    fn weights_apply() {
        let nl = Netlist::parse("a: m1 m2\n@weight m1 7\n").unwrap();
        let v = nl.module_id("m1").unwrap();
        assert_eq!(nl.hypergraph().vertex_weight(v), 7);
        assert_eq!(
            nl.hypergraph().vertex_weight(nl.module_id("m2").unwrap()),
            1
        );
    }

    #[test]
    fn weight_before_first_mention_is_fine() {
        let nl = Netlist::parse("@weight m2 3\na: m1 m2\n").unwrap();
        assert_eq!(
            nl.hypergraph().vertex_weight(nl.module_id("m2").unwrap()),
            3
        );
    }

    #[test]
    fn error_missing_colon() {
        let err = Netlist::parse("a 1 2\n").unwrap_err();
        assert_eq!(err, ParseNetlistError::MissingColon { line: 1 });
    }

    #[test]
    fn error_empty_signal() {
        let err = Netlist::parse("a:\n").unwrap_err();
        assert!(matches!(
            err,
            ParseNetlistError::EmptySignal { line: 1, .. }
        ));
    }

    #[test]
    fn error_duplicate_signal() {
        let err = Netlist::parse("a: 1 2\na: 3 4\n").unwrap_err();
        assert!(matches!(
            err,
            ParseNetlistError::DuplicateSignal { line: 2, .. }
        ));
    }

    #[test]
    fn error_malformed_weight() {
        assert!(matches!(
            Netlist::parse("a: 1 2\n@weight m\n").unwrap_err(),
            ParseNetlistError::MalformedWeight { line: 2 }
        ));
        assert!(matches!(
            Netlist::parse("a: 1 2\n@weight m x\n").unwrap_err(),
            ParseNetlistError::MalformedWeight { line: 2 }
        ));
        assert!(matches!(
            Netlist::parse("a: 1 2\n@weight m 3 4\n").unwrap_err(),
            ParseNetlistError::MalformedWeight { line: 2 }
        ));
    }

    #[test]
    fn error_unknown_module_weight() {
        let err = Netlist::parse("a: 1 2\n@weight zz 3\n").unwrap_err();
        assert!(matches!(
            err,
            ParseNetlistError::UnknownModuleInWeight { line: 2, .. }
        ));
    }

    #[test]
    fn error_zero_weight() {
        let err = Netlist::parse("a: 1 2\n@weight 1 0\n").unwrap_err();
        assert!(matches!(err, ParseNetlistError::ZeroWeight { line: 2, .. }));
    }

    #[test]
    fn error_weight_overflow() {
        let err =
            Netlist::parse("a: 1 2\n@weight 1 18446744073709551615\n@weight 2 1\n").unwrap_err();
        assert_eq!(err, ParseNetlistError::WeightOverflow);
        assert_eq!(err.line(), None);
    }

    #[test]
    fn error_empty_netlist() {
        assert_eq!(
            Netlist::parse("# nothing\n").unwrap_err(),
            ParseNetlistError::EmptyNetlist
        );
    }

    #[test]
    fn round_trip() {
        let src = "a: 1 2 11\nb: 2 4 11\n@weight 4 9\n";
        let nl = Netlist::parse(src).unwrap();
        let text = nl.to_text();
        let nl2 = Netlist::parse(&text).unwrap();
        assert_eq!(nl.hypergraph(), nl2.hypergraph());
        assert_eq!(text, nl2.to_text());
    }

    #[test]
    fn lookup_helpers() {
        let nl = Netlist::parse("sig: a b\n").unwrap();
        assert_eq!(nl.signal_id("sig"), Some(EdgeId::new(0)));
        assert_eq!(nl.signal_id("nope"), None);
        assert_eq!(nl.module_id("nope"), None);
        assert_eq!(nl.hypergraph().num_edges(), 1);
    }

    #[test]
    fn duplicate_module_in_signal_collapses() {
        let nl = Netlist::parse("a: x x y\n").unwrap();
        assert_eq!(nl.hypergraph().edge_size(EdgeId::new(0)), 2);
    }
}
