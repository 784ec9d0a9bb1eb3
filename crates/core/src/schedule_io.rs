//! Schedule persistence.
//!
//! The paper's deployment model computes schedules *offline* (a Hadoop job
//! over the social graph) and ships them to the application servers, which
//! keep push/pull sets in memory (§4.3). That requires a durable format.
//!
//! The format is line-oriented text, one edge per line, ordered by edge id:
//!
//! ```text
//! # piggyback-schedule v1 edges=<m>
//! <edge id> P            # push
//! <edge id> L            # pull
//! <edge id> B            # push and pull
//! <edge id> C <hub>      # covered through <hub>
//! ```
//!
//! Unassigned edges are omitted, and an edge has at most one row. The
//! loader verifies the header edge count against the target graph, so a
//! schedule cannot be applied to the wrong snapshot silently, and rejects
//! a second row for an edge with that row's line number.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use piggyback_graph::{EdgeId, NodeId};

use crate::schedule::{EdgeAssignment, Schedule};

/// Errors from parsing a persisted schedule.
#[derive(Debug)]
pub enum ScheduleIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed header or row.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Offending content.
        content: String,
    },
    /// Header edge count does not match the graph the caller targets.
    EdgeCountMismatch {
        /// Count stored in the file.
        stored: usize,
        /// Count expected by the caller.
        expected: usize,
    },
}

impl std::fmt::Display for ScheduleIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleIoError::Io(e) => write!(f, "i/o error: {e}"),
            ScheduleIoError::Parse { line, content } => {
                write!(f, "line {line}: cannot parse schedule row {content:?}")
            }
            ScheduleIoError::EdgeCountMismatch { stored, expected } => write!(
                f,
                "schedule is for a graph with {stored} edges, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ScheduleIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScheduleIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ScheduleIoError {
    fn from(e: io::Error) -> Self {
        ScheduleIoError::Io(e)
    }
}

/// Writes a schedule in the v1 text format.
pub fn write_schedule<W: Write>(s: &Schedule, mut w: W) -> io::Result<()> {
    writeln!(w, "# piggyback-schedule v1 edges={}", s.edge_count())?;
    for e in 0..s.edge_count() as EdgeId {
        match s.assignment(e) {
            EdgeAssignment::Push => writeln!(w, "{e} P")?,
            EdgeAssignment::Pull => writeln!(w, "{e} L")?,
            EdgeAssignment::PushAndPull => writeln!(w, "{e} B")?,
            EdgeAssignment::Covered(hub) => writeln!(w, "{e} C {hub}")?,
            EdgeAssignment::Unassigned => {}
        }
    }
    Ok(())
}

/// Reads a schedule in the v1 text format; `expected_edges` must match the
/// target graph's edge count.
pub fn read_schedule<R: BufRead>(
    reader: R,
    expected_edges: usize,
) -> Result<Schedule, ScheduleIoError> {
    let mut lines = reader.lines();
    let header = lines.next().transpose()?.unwrap_or_default();
    let stored = header
        .strip_prefix("# piggyback-schedule v1 edges=")
        .and_then(|n| n.trim().parse::<usize>().ok())
        .ok_or(ScheduleIoError::Parse {
            line: 1,
            content: header.clone(),
        })?;
    if stored != expected_edges {
        return Err(ScheduleIoError::EdgeCountMismatch {
            stored,
            expected: expected_edges,
        });
    }
    let mut s = Schedule::new(expected_edges);
    for (idx, line) in lines.enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_err = || ScheduleIoError::Parse {
            line: idx + 2,
            content: trimmed.to_string(),
        };
        let e: EdgeId = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(parse_err)?;
        // An edge takes one row: a second one, even an identical one,
        // would stack a push on a covered edge or the reverse.
        if (e as usize) >= expected_edges || s.assignment(e) != EdgeAssignment::Unassigned {
            return Err(parse_err());
        }
        match parts.next() {
            Some("P") => {
                s.set_push(e);
            }
            Some("L") => {
                s.set_pull(e);
            }
            Some("B") => {
                s.set_push(e);
                s.set_pull(e);
            }
            Some("C") => {
                let hub: NodeId = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(parse_err)?;
                s.set_covered(e, hub);
            }
            _ => return Err(parse_err()),
        }
    }
    Ok(s)
}

/// Saves a schedule to a file.
pub fn save_schedule<P: AsRef<Path>>(s: &Schedule, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_schedule(s, &mut w)?;
    w.flush()
}

/// Loads a schedule from a file, verifying the edge count.
pub fn load_schedule<P: AsRef<Path>>(
    path: P,
    expected_edges: usize,
) -> Result<Schedule, ScheduleIoError> {
    read_schedule(BufReader::new(File::open(path)?), expected_edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallelnosy::ParallelNosy;
    use crate::validate::validate_bounded_staleness;
    use piggyback_graph::gen::flickr_like;
    use piggyback_workload::Rates;

    fn roundtrip(s: &Schedule) -> Schedule {
        let mut buf = Vec::new();
        write_schedule(s, &mut buf).unwrap();
        read_schedule(buf.as_slice(), s.edge_count()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_every_assignment() {
        let g = flickr_like(300, 7);
        let r = Rates::log_degree(&g, 5.0);
        let s = ParallelNosy::default().run(&g, &r).schedule;
        let t = roundtrip(&s);
        for e in 0..g.edge_count() as EdgeId {
            assert_eq!(s.assignment(e), t.assignment(e), "edge {e}");
        }
        validate_bounded_staleness(&g, &t).unwrap();
    }

    #[test]
    fn edge_count_mismatch_rejected() {
        let s = Schedule::new(10);
        let mut buf = Vec::new();
        write_schedule(&s, &mut buf).unwrap();
        match read_schedule(buf.as_slice(), 11) {
            Err(ScheduleIoError::EdgeCountMismatch { stored, expected }) => {
                assert_eq!((stored, expected), (10, 11));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(
            read_schedule("bogus\n".as_bytes(), 5),
            Err(ScheduleIoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn bad_row_rejected_with_line_number() {
        let text = "# piggyback-schedule v1 edges=3\n0 P\n1 X\n";
        match read_schedule(text.as_bytes(), 3) {
            Err(ScheduleIoError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let text = "# piggyback-schedule v1 edges=3\n7 P\n";
        assert!(read_schedule(text.as_bytes(), 3).is_err());
    }

    #[test]
    fn second_row_for_an_edge_rejected_with_line_number() {
        for (rows, line) in [
            ("0 C 1\n0 P\n", 3),
            ("0 L\n0 C 1\n", 3),
            ("1 P\n0 P\n0 P\n", 4),
            ("2 B\n2 L\n", 3),
        ] {
            let text = format!("# piggyback-schedule v1 edges=3\n{rows}");
            match read_schedule(text.as_bytes(), 3) {
                Err(ScheduleIoError::Parse { line: got, .. }) => assert_eq!(got, line, "{rows:?}"),
                other => panic!("{rows:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn covered_row_requires_hub() {
        let text = "# piggyback-schedule v1 edges=3\n0 C\n";
        assert!(read_schedule(text.as_bytes(), 3).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let g = flickr_like(100, 3);
        let r = Rates::log_degree(&g, 5.0);
        let s = ParallelNosy::default().run(&g, &r).schedule;
        let dir = std::env::temp_dir().join("piggyback-schedule-io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sched");
        save_schedule(&s, &path).unwrap();
        let t = load_schedule(&path, g.edge_count()).unwrap();
        assert_eq!(s.set_sizes(), t.set_sizes());
        std::fs::remove_file(&path).ok();
    }
}
