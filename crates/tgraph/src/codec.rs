//! A compact, dependency-free binary codec.
//!
//! Deltas and eventlists are persisted in a key–value store as opaque byte
//! strings (Section 4.2). Rather than pulling in a serialization framework,
//! this module provides a small hand-rolled codec: varint-encoded integers,
//! length-prefixed strings and sequences, and one tag byte per enum variant.
//! The format is deterministic, versioned implicitly by the crate, and
//! covered by round-trip property tests.

use bytes::BufMut;

use crate::attr::{AttrMap, AttrValue};
use crate::columns::{AttrRow, ColumnGraph};
use crate::delta::{AttrAssignment, Delta, EdgeRecord, StructDelta};
use crate::error::{Result, TgError};
use crate::event::{Event, EventKind};
use crate::eventlist::EventList;
use crate::ids::{EdgeId, NodeId, Timestamp};
use crate::snapshot::Snapshot;

/// Types that can serialize themselves into a byte buffer.
pub trait Encode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Types that can deserialize themselves from a byte slice.
pub trait Decode: Sized {
    /// Reads one value from the reader, advancing it.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Convenience: decode a value that occupies the entire slice.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// A cursor over a byte slice with bounds-checked reads.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// `true` if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Fails unless every byte has been consumed: a value that occupies a
    /// whole slice leaves no trailing bytes.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(TgError::Codec(format!(
                "{} trailing bytes after decoding",
                self.buf.len()
            )))
        }
    }

    #[inline]
    fn read_u8(&mut self) -> Result<u8> {
        let (&byte, rest) = self.buf.split_first().ok_or_else(end_of_input)?;
        self.buf = rest;
        Ok(byte)
    }

    #[inline]
    fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(short_input(n, self.buf.len()));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads an unsigned LEB128 varint. Most varints in this format are one
    /// byte, so that case is decided before the general loop.
    #[inline]
    pub fn read_varint(&mut self) -> Result<u64> {
        if let Some((&byte, rest)) = self.buf.split_first() {
            if byte < 0x80 {
                self.buf = rest;
                return Ok(u64::from(byte));
            }
        }
        self.read_multibyte_varint()
    }

    fn read_multibyte_varint(&mut self) -> Result<u64> {
        let mut result = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift >= 64 {
                return Err(TgError::Codec("varint overflow".into()));
            }
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads a sequence length. Every element takes at least one byte in
    /// this format, so a length beyond the unread input is corrupt.
    #[inline]
    pub fn read_len(&mut self) -> Result<usize> {
        let len = self.read_varint()? as usize;
        if len > self.buf.len() {
            return Err(TgError::Codec(format!(
                "sequence length {len} exceeds remaining input {}",
                self.buf.len()
            )));
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    #[inline]
    pub fn read_str(&mut self) -> Result<&'a str> {
        let len = self.read_varint()? as usize;
        let bytes = self.read_bytes(len)?;
        std::str::from_utf8(bytes).map_err(|e| TgError::Codec(format!("invalid utf-8 string: {e}")))
    }
}

// The error paths are kept out of line, so the inlined reads stay small.

#[cold]
#[inline(never)]
fn end_of_input() -> TgError {
    TgError::Codec("unexpected end of input".into())
}

#[cold]
#[inline(never)]
fn short_input(needed: usize, available: usize) -> TgError {
    TgError::Codec(format!("needed {needed} bytes, only {available} available"))
}

/// Appends an unsigned LEB128 varint.
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// ZigZag encoding of a signed integer into an unsigned one.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --- primitives -----------------------------------------------------------

impl Encode for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, *self);
    }
}

impl Decode for u64 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.read_varint()
    }
}

impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, *self as u64);
    }
}

impl Decode for usize {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.read_varint()? as usize)
    }
}

impl Encode for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, zigzag(*self));
    }
}

impl Decode for i64 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(unzigzag(r.read_varint()?))
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(TgError::Codec(format!("invalid bool byte {b}"))),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.to_bits());
    }
}

impl Decode for f64 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let bytes = r.read_bytes(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.read_str().map(str::to_owned)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(TgError::Codec(format!("invalid option tag {b}"))),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode> Encode for std::sync::Arc<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        T::encode(self, buf);
    }
}

impl<T: Decode> Decode for std::sync::Arc<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(std::sync::Arc::new(T::decode(r)?))
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.read_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

// --- ids and attribute values ---------------------------------------------

impl Encode for NodeId {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.0);
    }
}

impl Decode for NodeId {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(NodeId(r.read_varint()?))
    }
}

impl Encode for EdgeId {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.0);
    }
}

impl Decode for EdgeId {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(EdgeId(r.read_varint()?))
    }
}

impl Encode for Timestamp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for Timestamp {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Timestamp(i64::decode(r)?))
    }
}

impl Encode for AttrValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            AttrValue::Str(s) => {
                buf.put_u8(0);
                s.encode(buf);
            }
            AttrValue::Int(i) => {
                buf.put_u8(1);
                i.encode(buf);
            }
            AttrValue::Float(x) => {
                buf.put_u8(2);
                x.encode(buf);
            }
            AttrValue::Bool(b) => {
                buf.put_u8(3);
                b.encode(buf);
            }
        }
    }
}

impl Decode for AttrValue {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.read_u8()? {
            0 => Ok(AttrValue::Str(String::decode(r)?)),
            1 => Ok(AttrValue::Int(i64::decode(r)?)),
            2 => Ok(AttrValue::Float(f64::decode(r)?)),
            3 => Ok(AttrValue::Bool(bool::decode(r)?)),
            t => Err(TgError::Codec(format!("invalid AttrValue tag {t}"))),
        }
    }
}

fn encode_attr_map(map: &AttrMap, buf: &mut Vec<u8>) {
    write_varint(buf, map.len() as u64);
    for (k, v) in map {
        k.encode(buf);
        v.encode(buf);
    }
}

/// Decodes an attribute map. An encoded map lists its keys in order, so the
/// map is built in one pass from the collected entries rather than by one
/// search per insert; a repeated key keeps its last value, as inserting
/// would.
fn decode_attr_map(r: &mut Reader<'_>) -> Result<AttrMap> {
    let len = r.read_len()?;
    let mut entries = Vec::with_capacity(len);
    for _ in 0..len {
        entries.push((String::decode(r)?, AttrValue::decode(r)?));
    }
    Ok(entries.into_iter().collect())
}

// --- events ----------------------------------------------------------------

impl Encode for Event {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.time.encode(buf);
        match &self.kind {
            EventKind::AddNode { node } => {
                buf.put_u8(0);
                node.encode(buf);
            }
            EventKind::DeleteNode { node } => {
                buf.put_u8(1);
                node.encode(buf);
            }
            EventKind::AddEdge {
                edge,
                src,
                dst,
                directed,
            } => {
                buf.put_u8(2);
                edge.encode(buf);
                src.encode(buf);
                dst.encode(buf);
                directed.encode(buf);
            }
            EventKind::DeleteEdge {
                edge,
                src,
                dst,
                directed,
            } => {
                buf.put_u8(3);
                edge.encode(buf);
                src.encode(buf);
                dst.encode(buf);
                directed.encode(buf);
            }
            EventKind::SetNodeAttr {
                node,
                key,
                old,
                new,
            } => {
                buf.put_u8(4);
                node.encode(buf);
                key.encode(buf);
                old.encode(buf);
                new.encode(buf);
            }
            EventKind::SetEdgeAttr {
                edge,
                key,
                old,
                new,
            } => {
                buf.put_u8(5);
                edge.encode(buf);
                key.encode(buf);
                old.encode(buf);
                new.encode(buf);
            }
            EventKind::TransientEdge { src, dst, payload } => {
                buf.put_u8(6);
                src.encode(buf);
                dst.encode(buf);
                payload.encode(buf);
            }
            EventKind::TransientNode { node, payload } => {
                buf.put_u8(7);
                node.encode(buf);
                payload.encode(buf);
            }
        }
    }
}

impl Decode for Event {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let time = Timestamp::decode(r)?;
        let kind = match r.read_u8()? {
            0 => EventKind::AddNode {
                node: NodeId::decode(r)?,
            },
            1 => EventKind::DeleteNode {
                node: NodeId::decode(r)?,
            },
            2 => EventKind::AddEdge {
                edge: EdgeId::decode(r)?,
                src: NodeId::decode(r)?,
                dst: NodeId::decode(r)?,
                directed: bool::decode(r)?,
            },
            3 => EventKind::DeleteEdge {
                edge: EdgeId::decode(r)?,
                src: NodeId::decode(r)?,
                dst: NodeId::decode(r)?,
                directed: bool::decode(r)?,
            },
            4 => EventKind::SetNodeAttr {
                node: NodeId::decode(r)?,
                key: String::decode(r)?,
                old: Option::<AttrValue>::decode(r)?,
                new: Option::<AttrValue>::decode(r)?,
            },
            5 => EventKind::SetEdgeAttr {
                edge: EdgeId::decode(r)?,
                key: String::decode(r)?,
                old: Option::<AttrValue>::decode(r)?,
                new: Option::<AttrValue>::decode(r)?,
            },
            6 => EventKind::TransientEdge {
                src: NodeId::decode(r)?,
                dst: NodeId::decode(r)?,
                payload: Option::<AttrValue>::decode(r)?,
            },
            7 => EventKind::TransientNode {
                node: NodeId::decode(r)?,
                payload: Option::<AttrValue>::decode(r)?,
            },
            t => return Err(TgError::Codec(format!("invalid Event tag {t}"))),
        };
        Ok(Event { time, kind })
    }
}

impl Encode for EventList {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.len() as u64);
        for ev in self.events() {
            ev.encode(buf);
        }
    }
}

impl Decode for EventList {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(EventList::from_events(Vec::decode(r)?))
    }
}

// --- deltas ----------------------------------------------------------------

impl Encode for EdgeRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.edge.encode(buf);
        self.src.encode(buf);
        self.dst.encode(buf);
        self.directed.encode(buf);
    }
}

impl Decode for EdgeRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(EdgeRecord {
            edge: EdgeId::decode(r)?,
            src: NodeId::decode(r)?,
            dst: NodeId::decode(r)?,
            directed: bool::decode(r)?,
        })
    }
}

impl Encode for StructDelta {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.add_nodes.encode(buf);
        self.del_nodes.encode(buf);
        self.add_edges.encode(buf);
        self.del_edges.encode(buf);
    }
}

impl Decode for StructDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(StructDelta {
            add_nodes: Vec::decode(r)?,
            del_nodes: Vec::decode(r)?,
            add_edges: Vec::decode(r)?,
            del_edges: Vec::decode(r)?,
        })
    }
}

impl<Id: Encode + Copy> Encode for AttrAssignment<Id> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.key.encode(buf);
        self.value.encode(buf);
    }
}

impl<Id: Decode + Copy> Decode for AttrAssignment<Id> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let (id, key, value) = read_assignment(r)?;
        Ok(AttrAssignment {
            id,
            key: key.to_owned(),
            value,
        })
    }
}

/// Reads one [`AttrAssignment`] with its key borrowed from the input: the
/// one parser behind both `AttrAssignment::decode` and
/// [`visit_assignments`].
#[inline]
fn read_assignment<'a, Id: Decode>(r: &mut Reader<'a>) -> Result<(Id, &'a str, Option<AttrValue>)> {
    Ok((
        Id::decode(r)?,
        r.read_str()?,
        Option::<AttrValue>::decode(r)?,
    ))
}

/// Visits, in order, every assignment of one encoded attribute column —
/// the bytes of a `Vec<AttrAssignment<Id>>` — with its key borrowed from
/// `bytes`, so a consumer copies a key only if it keeps it. Fails exactly
/// where `Vec::<AttrAssignment<Id>>::from_bytes` fails, trailing bytes
/// included; the assignments before the failure have been visited.
pub fn visit_assignments<'a, Id: Decode>(
    bytes: &'a [u8],
    mut visit: impl FnMut(Id, &'a str, Option<AttrValue>),
) -> Result<()> {
    let mut r = Reader::new(bytes);
    for _ in 0..r.read_len()? {
        let (id, key, value) = read_assignment(&mut r)?;
        visit(id, key, value);
    }
    r.finish()
}

impl Encode for Delta {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.structure.encode(buf);
        self.node_attrs.encode(buf);
        self.edge_attrs.encode(buf);
    }
}

impl Decode for Delta {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Delta {
            structure: StructDelta::decode(r)?,
            node_attrs: Vec::decode(r)?,
            edge_attrs: Vec::decode(r)?,
        })
    }
}

// --- snapshots ---------------------------------------------------------------

impl Encode for Snapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut nodes: Vec<_> = self.nodes().collect();
        nodes.sort_unstable_by_key(|(id, _)| *id);
        write_varint(buf, nodes.len() as u64);
        for (id, data) in nodes {
            id.encode(buf);
            encode_attr_map(&data.attrs, buf);
        }
        let mut edges: Vec<_> = self.edges().collect();
        edges.sort_unstable_by_key(|(id, _)| *id);
        write_varint(buf, edges.len() as u64);
        for (id, data) in edges {
            id.encode(buf);
            data.src.encode(buf);
            data.dst.encode(buf);
            data.directed.encode(buf);
            encode_attr_map(&data.attrs, buf);
        }
    }
}

/// The same bytes as [`Snapshot`]'s encoding of the same graph: the
/// columns are in the order that encoding sorts into.
impl Encode for ColumnGraph {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.node_count() as u64);
        for (id, attrs) in self.node_rows() {
            id.encode(buf);
            encode_attr_rows(attrs, buf);
        }
        write_varint(buf, self.edge_count() as u64);
        for (rec, attrs) in self.edge_rows() {
            rec.encode(buf);
            encode_attr_rows(attrs, buf);
        }
    }
}

fn encode_attr_rows<Id>(rows: &[AttrRow<Id>], buf: &mut Vec<u8>) {
    write_varint(buf, rows.len() as u64);
    for (_, k, v) in rows {
        write_varint(buf, k.len() as u64);
        buf.extend_from_slice(k.as_bytes());
        v.encode(buf);
    }
}

impl Decode for Snapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // Each decoded attribute map moves into its element whole; a repeated
        // id merges its maps as per-entry assignment would.
        // The tables are sized from the counts up front; a count is bounded
        // by the input left, so a corrupt one cannot reserve beyond it.
        let mut snap = Snapshot::new();
        let node_count = r.read_len()?;
        snap.reserve(node_count, 0);
        for _ in 0..node_count {
            let id = NodeId::decode(r)?;
            let attrs = decode_attr_map(r)?;
            snap.merge_node_attrs(id, attrs);
        }
        let edge_count = r.read_len()?;
        snap.reserve(0, edge_count);
        for _ in 0..edge_count {
            let id = EdgeId::decode(r)?;
            let src = NodeId::decode(r)?;
            let dst = NodeId::decode(r)?;
            let directed = bool::decode(r)?;
            let attrs = decode_attr_map(r)?;
            snap.add_edge(id, src, dst, directed)?;
            if !attrs.is_empty() {
                snap.merge_edge_attrs(id, attrs)?;
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = value.to_bytes();
        let decoded = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&decoded, value);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&0u64);
        roundtrip(&u64::MAX);
        roundtrip(&0i64);
        roundtrip(&-1i64);
        roundtrip(&i64::MIN);
        roundtrip(&i64::MAX);
        roundtrip(&true);
        roundtrip(&String::from("héllo wörld"));
        roundtrip(&Some(NodeId(42)));
        roundtrip(&Option::<NodeId>::None);
        roundtrip(&vec![EdgeId(1), EdgeId(2), EdgeId(u64::MAX)]);
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        assert_eq!(5u64.to_bytes().len(), 1);
        assert_eq!(300u64.to_bytes().len(), 2);
        assert!(u64::MAX.to_bytes().len() <= 10);
    }

    #[test]
    fn attr_value_roundtrips() {
        roundtrip(&AttrValue::Str("x".into()));
        roundtrip(&AttrValue::Int(-7));
        roundtrip(&AttrValue::Float(3.25));
        roundtrip(&AttrValue::Float(f64::NAN));
        roundtrip(&AttrValue::Bool(true));
    }

    #[test]
    fn event_roundtrips() {
        roundtrip(&Event::add_node(1, 2));
        roundtrip(&Event::delete_edge(9, 1, 2, 3));
        roundtrip(&Event::set_node_attr(
            4,
            1,
            "k",
            Some(AttrValue::Int(1)),
            None,
        ));
        roundtrip(&Event::transient_edge(5, 1, 2, Some(AttrValue::from("m"))));
    }

    #[test]
    fn eventlist_and_delta_roundtrip() {
        let list = EventList::from_events(vec![
            Event::add_node(1, 1),
            Event::add_node(1, 2),
            Event::add_edge(2, 1, 1, 2),
            Event::set_edge_attr(3, 1, "w", None, Some(AttrValue::Float(0.5))),
        ]);
        roundtrip(&list);

        let mut a = Snapshot::new();
        a.ensure_node(NodeId(1));
        let mut b = a.clone();
        b.add_edge(EdgeId(7), NodeId(1), NodeId(2), true).unwrap();
        b.set_node_attr(NodeId(1), "x", Some(AttrValue::Int(1)))
            .unwrap();
        let delta = Delta::between(&a, &b);
        roundtrip(&delta);
    }

    #[test]
    fn snapshot_roundtrip_preserves_graph() {
        let mut s = Snapshot::new();
        s.ensure_node(NodeId(1));
        s.ensure_node(NodeId(2));
        s.add_edge(EdgeId(1), NodeId(1), NodeId(2), false).unwrap();
        s.set_node_attr(NodeId(1), "name", Some(AttrValue::from("n1")))
            .unwrap();
        s.set_edge_attr(EdgeId(1), "w", Some(AttrValue::Float(1.5)))
            .unwrap();
        let bytes = s.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, s);
        assert!(decoded
            .neighbors(NodeId(2))
            .contains(&(NodeId(1), EdgeId(1))));
    }

    #[test]
    fn decoding_repeated_node_ids_merges_like_per_entry_assignment() {
        let map = |entries: &[(&str, i64)]| -> AttrMap {
            entries
                .iter()
                .map(|(k, v)| (k.to_string(), AttrValue::Int(*v)))
                .collect()
        };
        let nodes = [
            (NodeId(1), map(&[("a", 1), ("b", 2)])),
            (NodeId(2), AttrMap::new()),
            (NodeId(1), map(&[("b", 3), ("c", 4)])),
            (NodeId(2), map(&[("d", 5)])),
        ];
        let mut bytes = Vec::new();
        write_varint(&mut bytes, nodes.len() as u64);
        for (id, attrs) in &nodes {
            id.encode(&mut bytes);
            encode_attr_map(attrs, &mut bytes);
        }
        let edge = |bytes: &mut Vec<u8>, attrs: &AttrMap| {
            EdgeId(9).encode(bytes);
            NodeId(2).encode(bytes);
            NodeId(3).encode(bytes);
            true.encode(bytes);
            encode_attr_map(attrs, bytes);
        };
        let mut ok = bytes.clone();
        write_varint(&mut ok, 1);
        edge(&mut ok, &map(&[("w", 7)]));
        // The reference: every entry assigned one at a time.
        let mut want = Snapshot::new();
        for (id, attrs) in &nodes {
            want.ensure_node(*id);
            for (k, v) in attrs {
                want.set_node_attr(*id, k, Some(v.clone())).unwrap();
            }
        }
        want.add_edge(EdgeId(9), NodeId(2), NodeId(3), true)
            .unwrap();
        want.set_edge_attr(EdgeId(9), "w", Some(AttrValue::Int(7)))
            .unwrap();
        let got = Snapshot::from_bytes(&ok).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.node_attr(NodeId(1), "b"), Some(&AttrValue::Int(3)));
        // A repeated edge id is refused, as before.
        let mut twice = bytes;
        write_varint(&mut twice, 2);
        edge(&mut twice, &AttrMap::new());
        edge(&mut twice, &AttrMap::new());
        assert!(Snapshot::from_bytes(&twice).is_err());
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        assert!(Event::from_bytes(&[]).is_err());
        assert!(Event::from_bytes(&[0x00, 0xff]).is_err());
        assert!(String::from_bytes(&[0x05, b'a']).is_err());
        assert!(AttrValue::from_bytes(&[9]).is_err());
        assert!(bool::from_bytes(&[7]).is_err());
        // declared length far larger than the payload
        assert!(Vec::<NodeId>::from_bytes(&[0xff, 0xff, 0x01]).is_err());
        // trailing garbage
        assert!(NodeId::from_bytes(&[0x01, 0x02]).is_err());
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            roundtrip(&v);
        }

        #[test]
        fn prop_zigzag_roundtrip(v in any::<i64>()) {
            roundtrip(&v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".{0,64}") {
            roundtrip(&s.to_string());
        }

        #[test]
        fn prop_event_roundtrip(
            t in -1000i64..1000,
            node in 0u64..10_000,
            edge in 0u64..10_000,
            other in 0u64..10_000,
            which in 0u8..6,
        ) {
            let ev = match which {
                0 => Event::add_node(t, node),
                1 => Event::delete_node(t, node),
                2 => Event::add_edge(t, edge, node, other),
                3 => Event::delete_edge(t, edge, node, other),
                4 => Event::set_node_attr(t, node, "k", None, Some(AttrValue::Int(other as i64))),
                _ => Event::transient_edge(t, node, other, None),
            };
            roundtrip(&ev);
        }

        #[test]
        fn prop_decoding_random_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Any outcome is fine as long as it does not panic.
            let _ = Event::from_bytes(&bytes);
            let _ = Delta::from_bytes(&bytes);
            let _ = EventList::from_bytes(&bytes);
            let _ = Snapshot::from_bytes(&bytes);
        }
    }
}
