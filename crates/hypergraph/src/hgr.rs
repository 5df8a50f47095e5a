//! The hMETIS `.hgr` hypergraph exchange format.
//!
//! The de-facto standard for partitioning benchmarks (ISPD98 circuit
//! suite, SAT instances, …):
//!
//! ```text
//! % comment
//! <num_hyperedges> <num_vertices> [fmt]
//! <edge line> …            (one per hyperedge: [weight] v1 v2 …, 1-based)
//! <vertex weight> …        (one per vertex, only if fmt has the 10-bit)
//! ```
//!
//! `fmt` is omitted or one of `1` (edge weights), `10` (vertex weights),
//! `11` (both). Parsing accepts arbitrary whitespace and `%` comments;
//! writing emits the minimal `fmt` needed for the weights present.

use fhp_obs::writer::put;

use crate::{Hypergraph, HypergraphBuilder, ParseHgrError, VertexId};

/// The largest vertex count [`parse_hgr`] accepts from a header.
///
/// The parser allocates weight and adjacency storage proportional to the
/// declared vertex count *before* it sees any content lines, so a corrupted
/// or hostile header (`"19 4294967296 10"`) would otherwise trigger a
/// multi-gigabyte allocation — an abort no caller can catch. 2^24 modules
/// is ~100× the largest published `.hgr` benchmarks; real inputs never get
/// near it.
pub const MAX_DECLARED_VERTICES: usize = 1 << 24;

/// Parses hMETIS `.hgr` text into a [`Hypergraph`].
///
/// # Errors
///
/// [`ParseHgrError`] pinpoints the offending line: malformed headers,
/// non-numeric tokens, out-of-range vertex references (vertices are
/// 1-based), wrong line counts, or zero weights; a vertex- or edge-weight
/// total past `u64::MAX` is [`ParseHgrError::WeightOverflow`].
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::hgr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = hgr::parse_hgr("% tiny\n2 3\n1 2\n2 3\n")?;
/// assert_eq!(h.num_vertices(), 3);
/// assert_eq!(h.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_hgr(text: &str) -> Result<Hypergraph, ParseHgrError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('%'));

    let (header_line, header) = lines.next().ok_or(ParseHgrError::MissingHeader)?;
    let mut it = header.split_whitespace();
    let num_edges: usize = parse_num(it.next(), header_line)?;
    let num_vertices: usize = parse_num(it.next(), header_line)?;
    let fmt: u32 = match it.next() {
        None => 0,
        Some(tok) => tok
            .parse()
            .map_err(|_| ParseHgrError::Malformed { line: header_line })?,
    };
    if it.next().is_some() || !matches!(fmt, 0 | 1 | 10 | 11) {
        return Err(ParseHgrError::Malformed { line: header_line });
    }
    let has_edge_weights = fmt == 1 || fmt == 11;
    let has_vertex_weights = fmt == 10 || fmt == 11;
    if num_vertices > MAX_DECLARED_VERTICES {
        return Err(ParseHgrError::DeclaredTooLarge {
            line: header_line,
            declared: num_vertices,
            limit: MAX_DECLARED_VERTICES,
        });
    }

    let mut b = HypergraphBuilder::with_vertices(num_vertices);
    for _ in 0..num_edges {
        let (line_no, line) = lines.next().ok_or(ParseHgrError::TooFewLines {
            expected_edges: num_edges,
        })?;
        let mut tokens = line.split_whitespace();
        let weight: u64 = if has_edge_weights {
            parse_num(tokens.next(), line_no)?
        } else {
            1
        };
        let mut pins = Vec::new();
        for tok in tokens {
            let v: usize = tok
                .parse()
                .map_err(|_| ParseHgrError::Malformed { line: line_no })?;
            if v == 0 || v > num_vertices {
                return Err(ParseHgrError::VertexOutOfRange {
                    line: line_no,
                    vertex: v,
                });
            }
            pins.push(VertexId::new(v - 1));
        }
        if pins.is_empty() {
            return Err(ParseHgrError::EmptyEdge { line: line_no });
        }
        if weight == 0 {
            return Err(ParseHgrError::ZeroWeight { line: line_no });
        }
        b.add_weighted_edge(pins, weight)
            .expect("pins validated in range"); // fhp-audit: allow(panic-site) — pins range-checked on the lines above; the builder cannot reject them
    }
    if has_vertex_weights {
        for v in 0..num_vertices {
            let (line_no, line) = lines.next().ok_or(ParseHgrError::TooFewLines {
                expected_edges: num_edges,
            })?;
            let w: u64 = line
                .trim()
                .parse()
                .map_err(|_| ParseHgrError::Malformed { line: line_no })?;
            if w == 0 {
                return Err(ParseHgrError::ZeroWeight { line: line_no });
            }
            b.set_vertex_weight(VertexId::new(v), w);
        }
    }
    if let Some((line_no, _)) = lines.next() {
        return Err(ParseHgrError::TrailingContent { line: line_no });
    }
    // pins and zero weights were checked line by line above, so a weight
    // total past u64::MAX is the one rejection left
    b.try_build().map_err(|_| ParseHgrError::WeightOverflow)
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, line: usize) -> Result<T, ParseHgrError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or(ParseHgrError::Malformed { line })
}

/// Serializes a hypergraph to `.hgr` text, choosing the minimal `fmt` for
/// the weights present (non-unit edge and/or vertex weights).
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::hgr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = hgr::parse_hgr("2 3\n1 2\n2 3\n")?;
/// let text = hgr::write_hgr(&h);
/// assert_eq!(hgr::parse_hgr(&text)?, h);
/// # Ok(())
/// # }
/// ```
pub fn write_hgr(h: &Hypergraph) -> String {
    let edge_weights = h.edges().any(|e| h.edge_weight(e) != 1);
    let vertex_weights = h.vertices().any(|v| h.vertex_weight(v) != 1);
    let fmt = match (edge_weights, vertex_weights) {
        (false, false) => None,
        (true, false) => Some(1),
        (false, true) => Some(10),
        (true, true) => Some(11),
    };
    let mut out = String::new();
    match fmt {
        None => {
            put(
                &mut out,
                format_args!("{} {}\n", h.num_edges(), h.num_vertices()),
            );
        }
        Some(f) => {
            put(
                &mut out,
                format_args!("{} {} {}\n", h.num_edges(), h.num_vertices(), f),
            );
        }
    }
    for e in h.edges() {
        if edge_weights {
            put(&mut out, format_args!("{} ", h.edge_weight(e)));
        }
        let pins: Vec<String> = h
            .pins(e)
            .iter()
            .map(|p| (p.index() + 1).to_string())
            .collect();
        put(&mut out, format_args!("{}\n", pins.join(" ")));
    }
    if vertex_weights {
        for v in h.vertices() {
            put(&mut out, format_args!("{}\n", h.vertex_weight(v)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersection::paper_example;

    #[test]
    fn parses_plain_format() {
        let h = parse_hgr("% comment\n\n3 4\n1 2\n2 3 4\n1 4\n").unwrap();
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.pins(crate::EdgeId::new(1)).len(), 3);
        assert_eq!(h.total_edge_weight(), 3);
    }

    #[test]
    fn parses_edge_weights() {
        let h = parse_hgr("2 3 1\n5 1 2\n7 2 3\n").unwrap();
        assert_eq!(h.edge_weight(crate::EdgeId::new(0)), 5);
        assert_eq!(h.edge_weight(crate::EdgeId::new(1)), 7);
    }

    #[test]
    fn parses_vertex_weights() {
        let h = parse_hgr("1 2 10\n1 2\n3\n4\n").unwrap();
        assert_eq!(h.vertex_weight(VertexId::new(0)), 3);
        assert_eq!(h.vertex_weight(VertexId::new(1)), 4);
    }

    #[test]
    fn parses_both_weights() {
        let h = parse_hgr("1 2 11\n9 1 2\n3\n4\n").unwrap();
        assert_eq!(h.edge_weight(crate::EdgeId::new(0)), 9);
        assert_eq!(h.total_vertex_weight(), 7);
    }

    #[test]
    fn round_trip_all_formats() {
        for text in [
            "2 3\n1 2\n2 3\n",
            "2 3 1\n5 1 2\n7 2 3\n",
            "1 2 10\n1 2\n3\n4\n",
            "1 2 11\n9 1 2\n3\n4\n",
        ] {
            let h = parse_hgr(text).unwrap();
            let out = write_hgr(&h);
            assert_eq!(parse_hgr(&out).unwrap(), h, "format {text:?}");
        }
    }

    #[test]
    fn round_trip_paper_example() {
        let h = paper_example();
        assert_eq!(parse_hgr(&write_hgr(&h)).unwrap(), h);
    }

    #[test]
    fn error_missing_header() {
        assert_eq!(
            parse_hgr("% nothing\n").unwrap_err(),
            ParseHgrError::MissingHeader
        );
    }

    #[test]
    fn error_malformed_header() {
        assert!(matches!(
            parse_hgr("2\n1 2\n").unwrap_err(),
            ParseHgrError::Malformed { line: 1 }
        ));
        assert!(matches!(
            parse_hgr("2 3 7\n1 2\n2 3\n").unwrap_err(),
            ParseHgrError::Malformed { line: 1 }
        ));
        assert!(matches!(
            parse_hgr("a b\n").unwrap_err(),
            ParseHgrError::Malformed { line: 1 }
        ));
    }

    #[test]
    fn error_vertex_out_of_range() {
        assert!(matches!(
            parse_hgr("1 2\n1 3\n").unwrap_err(),
            ParseHgrError::VertexOutOfRange { line: 2, vertex: 3 }
        ));
        assert!(matches!(
            parse_hgr("1 2\n0 1\n").unwrap_err(),
            ParseHgrError::VertexOutOfRange { line: 2, vertex: 0 }
        ));
    }

    #[test]
    fn error_too_few_lines() {
        assert!(matches!(
            parse_hgr("2 3\n1 2\n").unwrap_err(),
            ParseHgrError::TooFewLines { .. }
        ));
        assert!(matches!(
            parse_hgr("1 2 10\n1 2\n3\n").unwrap_err(),
            ParseHgrError::TooFewLines { .. }
        ));
    }

    #[test]
    fn error_trailing_content() {
        assert!(matches!(
            parse_hgr("1 2\n1 2\n1 2\n").unwrap_err(),
            ParseHgrError::TrailingContent { line: 3 }
        ));
    }

    #[test]
    fn error_zero_weights_and_empty_edges() {
        assert!(matches!(
            parse_hgr("1 2 1\n0 1 2\n").unwrap_err(),
            ParseHgrError::ZeroWeight { line: 2 }
        ));
        assert!(matches!(
            parse_hgr("1 2 10\n1 2\n0\n0\n").unwrap_err(),
            ParseHgrError::ZeroWeight { line: 3 }
        ));
        assert!(matches!(
            parse_hgr("1 2 1\n5\n").unwrap_err(),
            ParseHgrError::EmptyEdge { line: 2 }
        ));
    }

    #[test]
    fn error_declared_vertex_count_over_limit() {
        // A mutated header like this used to size a 34 GB weight vector
        // before reading a single content line.
        let err = parse_hgr("19 4294967296 10\n1 2\n").unwrap_err();
        assert!(matches!(
            err,
            ParseHgrError::DeclaredTooLarge {
                line: 1,
                declared: 4_294_967_296,
                limit: MAX_DECLARED_VERTICES,
            }
        ));
        assert!(err.to_string().contains("4294967296"), "{err}");
        assert!(err.to_string().contains(&MAX_DECLARED_VERTICES.to_string()));
        // A huge *edge* count is already safe: the lazy line loop hits
        // TooFewLines without any proportional allocation.
        assert!(matches!(
            parse_hgr("4294967296 2\n1 2\n").unwrap_err(),
            ParseHgrError::TooFewLines { .. }
        ));
    }

    #[test]
    fn weight_totals_past_u64_are_rejected() {
        // three modules of 2^63: a wrapped total would reach a V-cycle's
        // contraction as a zero-weight coarse vertex
        let vertices =
            "2 3 10\n1 2\n2 3\n9223372036854775808\n9223372036854775808\n9223372036854775808\n";
        assert_eq!(parse_hgr(vertices), Err(ParseHgrError::WeightOverflow));
        let edges = "2 3 1\n9223372036854775808 1 2\n9223372036854775808 2 3\n";
        assert_eq!(parse_hgr(edges), Err(ParseHgrError::WeightOverflow));
        // a total of exactly u64::MAX still parses
        let at_max = "1 2 10\n1 2\n9223372036854775808\n9223372036854775807\n";
        assert_eq!(parse_hgr(at_max).unwrap().total_vertex_weight(), u64::MAX);
    }

    #[test]
    fn comments_and_blanks_between_sections() {
        let h = parse_hgr("% c\n1 2 10\n% c\n1 2\n\n3\n% tail comment\n4\n").unwrap();
        assert_eq!(h.total_vertex_weight(), 7);
    }
}
