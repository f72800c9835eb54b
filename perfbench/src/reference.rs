//! Committed reference outputs (`perfbench/reference.txt`).
//!
//! One record per line, fields separated by single spaces; `#` starts a
//! comment line:
//!
//! ```text
//! paper  <APP> <design hash> <laser mW> <wavelengths>
//! base   <APP> <workload> <wavelengths> <sub-rings> <messages>
//! served <conn> <pass> <index> <kind> <workload> <wavelengths> <sub-rings> <messages>
//! ```
//!
//! `paper` rows hold each paper instance's `design_bytes` hash and its
//! Table I quality; `base` rows the daemon's summaries of the saved
//! bases; `served` rows the summaries of the first `served-edits` pass at
//! the default seed.

use onoc_ctx::ContentHasher;
use onoc_served::JobSummary;
use std::collections::BTreeMap;

/// The committed reference file.
pub const COMMITTED: &str = include_str!("../reference.txt");

/// Reference quality and identity of one paper instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperRef {
    /// Hex FNV-1a-128 hash of the design's canonical bytes.
    pub hash: String,
    /// Total laser power in mW.
    pub laser_mw: f64,
    /// Wavelengths used.
    pub wavelengths: u64,
}

/// A parsed reference file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    /// Paper instances by name.
    pub paper: BTreeMap<String, PaperRef>,
    /// Daemon summaries of the saved bases, by name.
    pub bases: BTreeMap<String, JobSummary>,
    /// First-pass `served-edits` summaries at the default seed, keyed by
    /// `(connection, pass, index)`.
    pub served: BTreeMap<(usize, usize, usize), (String, JobSummary)>,
}

/// Hex hash of a design's canonical bytes.
#[must_use]
pub fn design_hash(bytes: &[u8]) -> String {
    let mut h = ContentHasher::new();
    h.write_bytes(bytes);
    h.finish().to_string()
}

/// Renders a `paper` row.
#[must_use]
pub fn paper_line(app: &str, r: &PaperRef) -> String {
    format!("paper {app} {} {} {}", r.hash, r.laser_mw, r.wavelengths)
}

/// Renders a `base` row.
#[must_use]
pub fn base_line(app: &str, s: &JobSummary) -> String {
    format!("base {app} {}", summary_fields(s))
}

/// Renders a `served` row.
#[must_use]
pub fn served_line(key: (usize, usize, usize), kind: &str, s: &JobSummary) -> String {
    format!(
        "served {} {} {} {kind} {}",
        key.0,
        key.1,
        key.2,
        summary_fields(s)
    )
}

fn summary_fields(s: &JobSummary) -> String {
    format!(
        "{} {} {} {}",
        s.workload, s.wavelengths, s.sub_rings, s.messages
    )
}

fn summary(fields: &[&str]) -> Result<JobSummary, String> {
    let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{s:?}: {e}"));
    match fields {
        [workload, wl, rings, msgs] => Ok(JobSummary {
            workload: (*workload).to_owned(),
            wavelengths: num(wl)?,
            sub_rings: num(rings)?,
            messages: num(msgs)?,
        }),
        _ => Err(format!("expected 4 summary fields, got {}", fields.len())),
    }
}

impl Reference {
    /// Parses reference text.
    ///
    /// # Errors
    ///
    /// Describes the first malformed line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut r = Reference::default();
        for (n, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split(' ').collect();
            let err = |e: String| format!("reference line {}: {e}", n + 1);
            let index = |s: &str| s.parse::<usize>().map_err(|e| err(format!("{s:?}: {e}")));
            match fields.as_slice() {
                [""] => {}
                [first, ..] if first.starts_with('#') => {}
                ["paper", app, hash, laser, wl] => {
                    let paper = PaperRef {
                        hash: (*hash).to_owned(),
                        laser_mw: laser.parse().map_err(|e| err(format!("{laser:?}: {e}")))?,
                        wavelengths: wl.parse().map_err(|e| err(format!("{wl:?}: {e}")))?,
                    };
                    r.paper.insert((*app).to_owned(), paper);
                }
                ["base", app, rest @ ..] => {
                    r.bases
                        .insert((*app).to_owned(), summary(rest).map_err(err)?);
                }
                ["served", conn, pass, idx, kind, rest @ ..] => {
                    let key = (index(conn)?, index(pass)?, index(idx)?);
                    let s = summary(rest).map_err(err)?;
                    r.served.insert(key, ((*kind).to_owned(), s));
                }
                _ => return Err(err(format!("unrecognized record {line:?}"))),
            }
        }
        Ok(r)
    }

    /// The committed reference.
    ///
    /// # Errors
    ///
    /// When the committed file is malformed.
    pub fn committed() -> Result<Reference, String> {
        Reference::parse(COMMITTED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn rows_round_trip() {
        let s = JobSummary {
            workload: "random-9n20m".into(),
            wavelengths: 4,
            sub_rings: 3,
            messages: 20,
        };
        let p = PaperRef {
            hash: design_hash(b"x"),
            laser_mw: 1.25,
            wavelengths: 5,
        };
        let text = [
            "# comment".to_owned(),
            paper_line("MWD", &p),
            base_line("VOPD", &s),
            served_line((1, 0, 3), "fresh", &s),
        ]
        .join("\n");
        let r = Reference::parse(&text).unwrap();
        assert_eq!(r.paper["MWD"], p);
        assert_eq!(r.bases["VOPD"], s);
        assert_eq!(r.served[&(1, 0, 3)], ("fresh".to_owned(), s));
        assert!(Reference::parse("paper MWD x").is_err());
    }

    #[test]
    fn committed_reference_covers_every_workload() {
        let r = Reference::committed().unwrap();
        for w in [Workload::PaperAssign, Workload::PaperCluster] {
            for b in w.instances() {
                assert!(r.paper.contains_key(b.name()), "{b}");
            }
        }
        for b in crate::stream::BASES {
            assert!(r.bases.contains_key(b.name()), "{b}");
        }
        assert!(!r.served.is_empty());
    }
}
