//! Edits to a [`CommGraph`]: the delta layer of incremental re-synthesis.
//!
//! A [`CommDelta`] is one edit to the message set — add, remove, retarget
//! or re-weight a message. Edits address messages by their
//! [`StableMessageId`], which survives the dense-index shifts a removal
//! causes, so an edit script recorded against one revision of a graph still
//! applies after earlier edits have landed.
//!
//! [`CommGraph::apply_delta`] validates the same invariants the builder
//! does (no unknown nodes, no self-loops, no duplicate directed messages,
//! finite positive bandwidths) and returns the edited graph; the input
//! graph is never mutated, so callers can keep every revision alive (e.g.
//! for a from-scratch bit-identity check against the incremental path).
//!
//! Edits also have a compact text form, the one the command-line tools
//! take after `--delta`: `add:SRC,DST,BW`, `remove:ID`,
//! `retarget:ID,SRC,DST` or `scale:ID,FACTOR`, where IDs are stable
//! message ids and SRC/DST node indices (see [`CommDelta::from_str`]).

use crate::comm::{CommGraph, Message, MessageId, StableMessageId};
use crate::node::NodeId;
use std::fmt;
use std::str::FromStr;

/// One edit to a [`CommGraph`]'s message set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommDelta {
    /// Adds a directed message `src → dst` with the given relative
    /// bandwidth demand (use `1.0` for the default). The new message gets
    /// the next dense [`MessageId`] and a fresh [`StableMessageId`].
    AddMessage {
        /// The sending node.
        src: NodeId,
        /// The receiving node.
        dst: NodeId,
        /// Relative bandwidth demand; finite and strictly positive.
        bandwidth: f64,
    },
    /// Removes the message with the given stable id. Dense ids of later
    /// messages shift down by one; stable ids are unaffected.
    RemoveMessage {
        /// The message to remove.
        id: StableMessageId,
    },
    /// Moves the message with the given stable id to new endpoints,
    /// keeping its dense position, stable id and bandwidth.
    Retarget {
        /// The message to move.
        id: StableMessageId,
        /// The new sending node.
        src: NodeId,
        /// The new receiving node.
        dst: NodeId,
    },
    /// Multiplies the bandwidth demand of the message with the given
    /// stable id by `factor`.
    ScaleBandwidth {
        /// The message to re-weight.
        id: StableMessageId,
        /// Multiplier; finite and strictly positive.
        factor: f64,
    },
}

impl fmt::Display for CommDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommDelta::AddMessage {
                src,
                dst,
                bandwidth,
            } => write!(f, "add {src} -> {dst} @{bandwidth}"),
            CommDelta::RemoveMessage { id } => write!(f, "remove {id}"),
            CommDelta::Retarget { id, src, dst } => {
                write!(f, "retarget {id} to {src} -> {dst}")
            }
            CommDelta::ScaleBandwidth { id, factor } => {
                write!(f, "scale {id} by {factor}")
            }
        }
    }
}

impl FromStr for CommDelta {
    type Err = ParseDeltaError;

    /// Parses the compact text form (see the module docs). Only the
    /// syntax is checked; whether the ids and nodes exist, and whether
    /// the bandwidth is valid, is [`CommGraph::apply_delta`]'s concern.
    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let bad = || ParseDeltaError {
            spec: spec.to_string(),
        };
        let (kind, rest) = spec.split_once(':').ok_or_else(bad)?;
        let parts: Vec<&str> = rest.split(',').collect();
        let node = |v: &str| v.parse::<usize>().map(NodeId).map_err(|_| bad());
        let id = |v: &str| v.parse::<u64>().map(StableMessageId).map_err(|_| bad());
        let num = |v: &str| v.parse::<f64>().map_err(|_| bad());
        match (kind, parts.as_slice()) {
            ("add", [src, dst, bw]) => Ok(CommDelta::AddMessage {
                src: node(src)?,
                dst: node(dst)?,
                bandwidth: num(bw)?,
            }),
            ("remove", [msg]) => Ok(CommDelta::RemoveMessage { id: id(msg)? }),
            ("retarget", [msg, src, dst]) => Ok(CommDelta::Retarget {
                id: id(msg)?,
                src: node(src)?,
                dst: node(dst)?,
            }),
            ("scale", [msg, factor]) => Ok(CommDelta::ScaleBandwidth {
                id: id(msg)?,
                factor: num(factor)?,
            }),
            _ => Err(bad()),
        }
    }
}

/// A malformed [`CommDelta`] text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDeltaError {
    spec: String,
}

impl fmt::Display for ParseDeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed delta `{}` (want add:SRC,DST,BW, remove:ID, \
             retarget:ID,SRC,DST or scale:ID,FACTOR)",
            self.spec
        )
    }
}

impl std::error::Error for ParseDeltaError {}

/// Error applying a [`CommDelta`]; the graph is left untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DeltaError {
    /// The stable id does not name a live message of this graph.
    UnknownMessage(StableMessageId),
    /// An endpoint is beyond the graph's node count.
    NodeOutOfRange(NodeId),
    /// The edit would create a message from a node to itself.
    SelfLoop(NodeId),
    /// The edit would duplicate an existing directed message.
    DuplicateMessage(Message),
    /// A bandwidth or scale factor is not finite and strictly positive.
    InvalidBandwidth(f64),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownMessage(id) => write!(f, "no live message with stable id {id}"),
            DeltaError::NodeOutOfRange(n) => write!(f, "node id {n} out of range"),
            DeltaError::SelfLoop(n) => write!(f, "edit would create a self-loop at {n}"),
            DeltaError::DuplicateMessage(m) => write!(f, "edit would duplicate message {m}"),
            DeltaError::InvalidBandwidth(bw) => {
                write!(f, "bandwidth/scale {bw} must be finite and positive")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl CommGraph {
    /// Applies one edit, returning the edited graph; `self` is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaError`] when the edit references an unknown message
    /// or node, would create a self-loop or duplicate directed message, or
    /// carries a non-finite / non-positive bandwidth. On error the edit has
    /// no effect.
    pub fn apply_delta(&self, delta: &CommDelta) -> Result<CommGraph, DeltaError> {
        let check_endpoints = |src: NodeId, dst: NodeId| -> Result<(), DeltaError> {
            let n = self.node_count();
            if src.index() >= n {
                return Err(DeltaError::NodeOutOfRange(src));
            }
            if dst.index() >= n {
                return Err(DeltaError::NodeOutOfRange(dst));
            }
            if src == dst {
                return Err(DeltaError::SelfLoop(src));
            }
            Ok(())
        };
        // `exempt` is the dense index of the message being edited, which a
        // duplicate check must not count against itself.
        let check_duplicate = |src: NodeId, dst: NodeId, exempt: Option<MessageId>| {
            let dup = self
                .messages
                .iter()
                .enumerate()
                .any(|(i, m)| Some(MessageId(i)) != exempt && m.src == src && m.dst == dst);
            if dup {
                Err(DeltaError::DuplicateMessage(Message { src, dst }))
            } else {
                Ok(())
            }
        };
        let resolve = |id: StableMessageId| {
            self.message_by_stable(id)
                .ok_or(DeltaError::UnknownMessage(id))
        };

        let mut next = self.clone();
        match *delta {
            CommDelta::AddMessage {
                src,
                dst,
                bandwidth,
            } => {
                check_endpoints(src, dst)?;
                check_duplicate(src, dst, None)?;
                if !(bandwidth.is_finite() && bandwidth > 0.0) {
                    return Err(DeltaError::InvalidBandwidth(bandwidth));
                }
                next.messages.push(Message { src, dst });
                next.bandwidths.push(bandwidth);
                next.stable_ids.push(next.next_stable);
                next.next_stable += 1;
                next.rebuild_adjacency();
            }
            CommDelta::RemoveMessage { id } => {
                let dense = resolve(id)?;
                next.messages.remove(dense.index());
                next.bandwidths.remove(dense.index());
                next.stable_ids.remove(dense.index());
                next.rebuild_adjacency();
            }
            CommDelta::Retarget { id, src, dst } => {
                let dense = resolve(id)?;
                check_endpoints(src, dst)?;
                check_duplicate(src, dst, Some(dense))?;
                next.messages[dense.index()] = Message { src, dst };
                next.rebuild_adjacency();
            }
            CommDelta::ScaleBandwidth { id, factor } => {
                let dense = resolve(id)?;
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(DeltaError::InvalidBandwidth(factor));
                }
                let scaled = self.bandwidths[dense.index()] * factor;
                if !(scaled.is_finite() && scaled > 0.0) {
                    return Err(DeltaError::InvalidBandwidth(scaled));
                }
                next.bandwidths[dense.index()] = scaled;
            }
        }
        Ok(next)
    }

    /// Applies a sequence of edits left to right; stops at the first error
    /// (reported with the index of the offending delta).
    ///
    /// # Errors
    ///
    /// The first failing delta's [`DeltaError`], with its position in
    /// `deltas`.
    pub fn apply_deltas(&self, deltas: &[CommDelta]) -> Result<CommGraph, (usize, DeltaError)> {
        let mut graph = self.clone();
        for (i, d) in deltas.iter().enumerate() {
            graph = graph.apply_delta(d).map_err(|e| (i, e))?;
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Point;

    fn triangle() -> CommGraph {
        CommGraph::builder()
            .name("tri")
            .node("a", Point::new(0.0, 0.0))
            .node("b", Point::new(1.0, 0.0))
            .node("c", Point::new(0.0, 1.0))
            .message(NodeId(0), NodeId(1))
            .message(NodeId(1), NodeId(2))
            .build()
            .expect("valid graph")
    }

    #[test]
    fn text_form_parses_every_kind_and_rejects_malformed_specs() {
        let parse = |spec: &str| spec.parse::<CommDelta>();
        assert_eq!(
            parse("add:1,2,1.5"),
            Ok(CommDelta::AddMessage {
                src: NodeId(1),
                dst: NodeId(2),
                bandwidth: 1.5
            })
        );
        assert_eq!(
            parse("remove:4"),
            Ok(CommDelta::RemoveMessage {
                id: StableMessageId(4)
            })
        );
        assert_eq!(
            parse("retarget:3,0,5"),
            Ok(CommDelta::Retarget {
                id: StableMessageId(3),
                src: NodeId(0),
                dst: NodeId(5)
            })
        );
        assert_eq!(
            parse("scale:2,0.5"),
            Ok(CommDelta::ScaleBandwidth {
                id: StableMessageId(2),
                factor: 0.5
            })
        );
        for bad in [
            "",
            "add:1,2",
            "add:1,2,3,4",
            "remove:x",
            "remove:-1",
            "frob:1",
            "retarget:1,2",
            "scale:1,fast",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.to_string().contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn builder_assigns_dense_stable_ids() {
        let g = triangle();
        assert_eq!(g.stable_id(MessageId(0)), StableMessageId(0));
        assert_eq!(g.stable_id(MessageId(1)), StableMessageId(1));
        assert_eq!(g.message_by_stable(StableMessageId(1)), Some(MessageId(1)));
        assert_eq!(g.message_by_stable(StableMessageId(9)), None);
        assert_eq!(g.bandwidth(MessageId(0)), 1.0);
    }

    #[test]
    fn add_message_appends_with_fresh_stable_id() {
        let g = triangle();
        let g2 = g
            .apply_delta(&CommDelta::AddMessage {
                src: NodeId(2),
                dst: NodeId(0),
                bandwidth: 2.5,
            })
            .unwrap();
        assert_eq!(g2.message_count(), 3);
        assert_eq!(g2.stable_id(MessageId(2)), StableMessageId(2));
        assert_eq!(g2.bandwidth(MessageId(2)), 2.5);
        assert_eq!(g2.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        // Original untouched.
        assert_eq!(g.message_count(), 2);
    }

    #[test]
    fn remove_shifts_dense_ids_but_not_stable_ids() {
        let g = triangle();
        let g2 = g
            .apply_delta(&CommDelta::RemoveMessage {
                id: StableMessageId(0),
            })
            .unwrap();
        assert_eq!(g2.message_count(), 1);
        // The surviving message kept its stable id but moved to dense 0.
        assert_eq!(g2.stable_id(MessageId(0)), StableMessageId(1));
        assert_eq!(g2.message_by_stable(StableMessageId(0)), None);
        // Adjacency reflects the removal.
        assert_eq!(g2.neighbors(NodeId(0)), &[] as &[NodeId]);
        // A stable id is never reused: a new message gets id 2.
        let g3 = g2
            .apply_delta(&CommDelta::AddMessage {
                src: NodeId(0),
                dst: NodeId(1),
                bandwidth: 1.0,
            })
            .unwrap();
        assert_eq!(g3.stable_id(MessageId(1)), StableMessageId(2));
    }

    #[test]
    fn retarget_keeps_identity_and_bandwidth() {
        let g = CommGraph::builder()
            .node("a", Point::new(0.0, 0.0))
            .node("b", Point::new(1.0, 0.0))
            .node("c", Point::new(0.0, 1.0))
            .message_weighted(NodeId(0), NodeId(1), 3.0)
            .build()
            .unwrap();
        let g2 = g
            .apply_delta(&CommDelta::Retarget {
                id: StableMessageId(0),
                src: NodeId(0),
                dst: NodeId(2),
            })
            .unwrap();
        assert_eq!(
            g2.message(MessageId(0)),
            Message {
                src: NodeId(0),
                dst: NodeId(2)
            }
        );
        assert_eq!(g2.stable_id(MessageId(0)), StableMessageId(0));
        assert_eq!(g2.bandwidth(MessageId(0)), 3.0);
        assert_eq!(g2.neighbors(NodeId(1)), &[] as &[NodeId]);
    }

    #[test]
    fn retarget_to_own_endpoints_is_allowed() {
        // Re-asserting the current endpoints is a no-op, not a duplicate.
        let g = triangle();
        let g2 = g
            .apply_delta(&CommDelta::Retarget {
                id: StableMessageId(0),
                src: NodeId(0),
                dst: NodeId(1),
            })
            .unwrap();
        assert_eq!(g2.messages(), g.messages());
    }

    #[test]
    fn scale_bandwidth_multiplies() {
        let g = triangle();
        let g2 = g
            .apply_delta(&CommDelta::ScaleBandwidth {
                id: StableMessageId(1),
                factor: 4.0,
            })
            .unwrap();
        assert_eq!(g2.bandwidth(MessageId(1)), 4.0);
        assert_eq!(g2.bandwidth(MessageId(0)), 1.0);
    }

    #[test]
    fn rejects_invalid_edits() {
        let g = triangle();
        assert_eq!(
            g.apply_delta(&CommDelta::RemoveMessage {
                id: StableMessageId(7)
            }),
            Err(DeltaError::UnknownMessage(StableMessageId(7)))
        );
        assert_eq!(
            g.apply_delta(&CommDelta::AddMessage {
                src: NodeId(0),
                dst: NodeId(9),
                bandwidth: 1.0
            }),
            Err(DeltaError::NodeOutOfRange(NodeId(9)))
        );
        assert_eq!(
            g.apply_delta(&CommDelta::AddMessage {
                src: NodeId(2),
                dst: NodeId(2),
                bandwidth: 1.0
            }),
            Err(DeltaError::SelfLoop(NodeId(2)))
        );
        assert_eq!(
            g.apply_delta(&CommDelta::AddMessage {
                src: NodeId(0),
                dst: NodeId(1),
                bandwidth: 1.0
            }),
            Err(DeltaError::DuplicateMessage(Message {
                src: NodeId(0),
                dst: NodeId(1)
            }))
        );
        assert_eq!(
            g.apply_delta(&CommDelta::AddMessage {
                src: NodeId(2),
                dst: NodeId(0),
                bandwidth: 0.0
            }),
            Err(DeltaError::InvalidBandwidth(0.0))
        );
        assert!(matches!(
            g.apply_delta(&CommDelta::ScaleBandwidth {
                id: StableMessageId(0),
                factor: f64::NAN
            }),
            Err(DeltaError::InvalidBandwidth(_))
        ));
        assert_eq!(
            g.apply_delta(&CommDelta::Retarget {
                id: StableMessageId(0),
                src: NodeId(1),
                dst: NodeId(2),
            }),
            Err(DeltaError::DuplicateMessage(Message {
                src: NodeId(1),
                dst: NodeId(2)
            }))
        );
    }

    #[test]
    fn apply_deltas_reports_failing_index() {
        let g = triangle();
        let deltas = [
            CommDelta::ScaleBandwidth {
                id: StableMessageId(0),
                factor: 2.0,
            },
            CommDelta::RemoveMessage {
                id: StableMessageId(42),
            },
        ];
        let (i, e) = g.apply_deltas(&deltas).unwrap_err();
        assert_eq!(i, 1);
        assert_eq!(e, DeltaError::UnknownMessage(StableMessageId(42)));
        let ok = g.apply_deltas(&deltas[..1]).unwrap();
        assert_eq!(ok.bandwidth(MessageId(0)), 2.0);
    }

    #[test]
    fn edited_graph_still_passes_builder_invariants() {
        // Round-tripping an edited graph through the builder succeeds:
        // deltas enforce exactly the builder's invariants.
        let g = triangle();
        let g2 = g
            .apply_delta(&CommDelta::AddMessage {
                src: NodeId(2),
                dst: NodeId(1),
                bandwidth: 0.5,
            })
            .unwrap();
        let mut b = CommGraph::builder().name(g2.name());
        for n in g2.node_ids() {
            b = b.node(g2.node_name(n), g2.position(n));
        }
        for id in g2.message_ids() {
            let m = g2.message(id);
            b = b.message_weighted(m.src, m.dst, g2.bandwidth(id));
        }
        let rebuilt = b.build().expect("edited graph is builder-valid");
        assert_eq!(rebuilt.messages(), g2.messages());
        assert_eq!(rebuilt.bandwidths(), g2.bandwidths());
    }
}
