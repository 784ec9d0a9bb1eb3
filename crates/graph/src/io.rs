//! Plain-text edge-list persistence.
//!
//! Format: one `src dst` pair per line (whitespace-separated decimal ids);
//! empty lines and lines beginning with `#` are ignored. This matches the
//! de-facto format of published social-graph datasets (SNAP et al.), so a
//! user with access to the real Flickr/Twitter crawls can feed them straight
//! into the harness.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::builder::{auto_build_threads, STREAM_BLOCK};
use crate::csr::{CsrGraph, NodeId};
use crate::{GraphBuilder, StreamingBuilder};

/// Errors produced when parsing an edge list.
#[derive(Debug)]
pub enum EdgeListError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line that is neither a comment nor a valid `src dst` pair.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        content: String,
    },
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "i/o error: {e}"),
            EdgeListError::Parse { line, content } => {
                write!(f, "line {line}: cannot parse edge from {content:?}")
            }
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            EdgeListError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for EdgeListError {
    fn from(e: io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

/// Parses one edge-list line: `Ok(None)` for comments/blanks, `Ok(Some)`
/// for a `src dst` pair, `Err` (with the 1-based line number) otherwise.
fn parse_edge_line(idx: usize, line: &str) -> Result<Option<(NodeId, NodeId)>, EdgeListError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let parse = |tok: Option<&str>| -> Option<NodeId> { tok?.parse().ok() };
    match (parse(it.next()), parse(it.next())) {
        (Some(u), Some(v)) => Ok(Some((u, v))),
        _ => Err(EdgeListError::Parse {
            line: idx + 1,
            content: trimmed.to_string(),
        }),
    }
}

/// Reads a graph from an edge-list reader in one pass, buffering every
/// edge: for a source that cannot be replayed. A file loads through
/// [`load_edge_list`].
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<CsrGraph, EdgeListError> {
    let mut b = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        if let Some((u, v)) = parse_edge_line(idx, &line?)? {
            b.add_edge(u, v);
        }
    }
    Ok(b.build())
}

/// Reads a graph from an edge-list file, opened twice for
/// [`read_edge_list_two_pass`].
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<CsrGraph, EdgeListError> {
    let path = path.as_ref();
    read_edge_list_two_pass(
        BufReader::new(File::open(path)?),
        BufReader::new(File::open(path)?),
    )
}

/// Reads a graph in two streaming passes over the same edge-list source:
/// the first pass counts out-degrees, the second writes each target into
/// its final CSR slot ([`StreamingBuilder`]). Equivalent to
/// [`read_edge_list`] for any input — same graph, same errors — but never
/// materializes a `Vec<(u, v)>` edge list, which roughly halves peak
/// memory on SNAP-scale files.
///
/// `pass1` and `pass2` must yield the same byte stream (two independent
/// opens of the same file); a source that changed between the passes
/// panics instead of corrupting the graph.
pub fn read_edge_list_two_pass<R1: BufRead, R2: BufRead>(
    pass1: R1,
    pass2: R2,
) -> Result<CsrGraph, EdgeListError> {
    // Lines are parsed sequentially (errors keep their line numbers) into
    // bounded blocks; the degree census and slot placement of each block
    // run through the parallel passes. Same graph for any thread count.
    let nt = auto_build_threads();
    let mut block = Vec::new();
    let mut sb = StreamingBuilder::new();
    for (idx, line) in pass1.lines().enumerate() {
        if let Some((u, v)) = parse_edge_line(idx, &line?)? {
            block.push((u, v));
            if block.len() == STREAM_BLOCK {
                sb.count_block(&block, nt);
                block.clear();
            }
        }
    }
    sb.count_block(&block, nt);
    block.clear();
    let mut fill = sb.into_fill();
    for (idx, line) in pass2.lines().enumerate() {
        if let Some((u, v)) = parse_edge_line(idx, &line?)? {
            block.push((u, v));
            if block.len() == STREAM_BLOCK {
                fill.fill_block(&block, nt);
                block.clear();
            }
        }
    }
    fill.fill_block(&block, nt);
    Ok(fill.finish())
}

/// Writes a graph as an edge list.
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut w: W) -> io::Result<()> {
    writeln!(w, "# nodes={} edges={}", g.node_count(), g.edge_count())?;
    for (_, u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Writes a graph to an edge-list file.
pub fn save_edge_list<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_edge_list(g, &mut w)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::erdos_renyi;

    #[test]
    fn roundtrip_through_memory() {
        let g = erdos_renyi(40, 150, 2);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), h.edges().collect::<Vec<_>>());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n0 1\n  # indented comment\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn parse_error_carries_line_number() {
        let text = "0 1\nnot an edge\n";
        match read_edge_list(text.as_bytes()) {
            Err(EdgeListError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_second_field_is_error() {
        assert!(read_edge_list("5\n".as_bytes()).is_err());
    }

    /// Structural equality: same nodes, same edges, same reverse adjacency.
    fn assert_same_graph(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        for v in a.nodes() {
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v));
            assert_eq!(
                a.in_edges(v).collect::<Vec<_>>(),
                b.in_edges(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn streaming_matches_buffered_on_generated_graphs() {
        use crate::gen::flickr_like;
        for (case, g) in [
            ("er", erdos_renyi(200, 1500, 11)),
            ("flickr", flickr_like(300, 7)),
        ] {
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let buffered = read_edge_list(buf.as_slice()).unwrap();
            let streamed = read_edge_list_two_pass(buf.as_slice(), buf.as_slice()).unwrap();
            assert_same_graph(&buffered, &streamed);
            assert_same_graph(&g, &streamed);
            assert!(streamed.edge_count() > 0, "{case}: empty graph");
        }
    }

    #[test]
    fn streaming_handles_duplicates_self_loops_and_unsorted_input() {
        let text = "3 1\n0 1\n# dup next\n0 1\n2 2\n1 0\n0 3\n0 2\n";
        let buffered = read_edge_list(text.as_bytes()).unwrap();
        let streamed = read_edge_list_two_pass(text.as_bytes(), text.as_bytes()).unwrap();
        assert_same_graph(&buffered, &streamed);
        assert!(!streamed.has_edge(2, 2));
        assert_eq!(streamed.edge_count(), 5);
    }

    #[test]
    fn streaming_parse_error_carries_line_number() {
        let text = "0 1\n\n# comment\n17 bad\n";
        match read_edge_list_two_pass(text.as_bytes(), text.as_bytes()) {
            Err(EdgeListError::Parse { line, content }) => {
                assert_eq!(line, 4);
                assert_eq!(content, "17 bad");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(read_edge_list_two_pass("5\n".as_bytes(), "5\n".as_bytes()).is_err());
    }

    #[test]
    fn roundtrip_through_file() {
        let g = erdos_renyi(30, 90, 9);
        let dir = std::env::temp_dir().join("piggyback-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        save_edge_list(&g, &path).unwrap();
        let h = load_edge_list(&path).unwrap();
        assert_same_graph(&g, &h);
        std::fs::remove_file(&path).ok();
        assert!(load_edge_list(&path).is_err(), "a missing file is an error");
    }
}
