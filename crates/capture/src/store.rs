//! The trace store: packet-trace storage as pages of fixed-width rows,
//! with an optional disk spill tier.
//!
//! A four-week paper-scale capture holds millions of [`TraceRecord`]s; as
//! a `Vec<TraceRecord>` every record pays the owned row's enum padding plus
//! a private `Vec<Ipv4Addr>` allocation for each peer-list payload. The
//! [`TraceStore`] instead packs each record into one 48-byte `Row` — the
//! scalars, a one-byte kind tag and three variant-dependent payload words —
//! appended to fixed-capacity pages of `PAGE_ROWS` rows, with a single
//! shared address arena for peer-list payloads, so
//!
//! * appends never reallocate-and-copy (no transient 2× growth spike),
//! * per-record memory drops (no per-list `Vec` headers or allocator
//!   overhead), and
//! * analysis streams typed [`RecordRef`] cursors ([`TraceStore::rows`],
//!   [`TraceStore::rows_for`]) instead of cloning row subsets.
//!
//! **Spill tier.** Under a byte budget ([`TraceStore::with_budget`]),
//! sealing a page checks the resident heap; while it exceeds the budget
//! the oldest resident sealed page is serialized as one frame — its rows
//! back to back, 47 bytes each — into a shared [`SpillFile`] and its heap
//! is released. Spilled pages form a strict prefix — capture appends at
//! the tail, analysis replays from the head, so oldest-first is both the
//! cheapest and the right policy. The address arena stays resident (peer-list
//! spans borrow from it, which is what keeps [`RecordRef`] free of
//! self-referential lifetimes); cursors decode spilled frames back a page
//! at a time into a reused buffer, so [`TraceStore::rows`] /
//! [`TraceStore::rows_for`] iterate RAM-resident and spilled pages
//! transparently and bit-identically. Equality is content-based and
//! spill-independent.
//!
//! [`TraceRecord`] remains the owned interchange row: tests build rows
//! directly and [`TraceStore::from_records`] / [`TraceStore::to_records`]
//! convert losslessly.

use crate::{Direction, KindRef, RemoteKind, TraceRecord};
use plsim_des::{NodeId, SimTime};
use plsim_proto::ChunkId;
use plsim_telemetry::{SpillFile, SpillFrame};
use std::borrow::Cow;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Rows per page. A page is allocated once at this capacity and never
/// regrows, so an append never moves existing rows.
pub(crate) const PAGE_ROWS: usize = 8192;

/// Which [`RecordKind`] variant a row holds.
///
/// [`RecordKind`]: crate::RecordKind
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KindTag {
    Bootstrap,
    TrackerQuery,
    TrackerResponse,
    PeerListRequest,
    PeerListResponse,
    Handshake,
    HandshakeAck,
    DataRequest,
    DataReply,
    DataReject,
    Announce,
    Goodbye,
}

impl KindTag {
    fn code(self) -> u8 {
        match self {
            KindTag::Bootstrap => 0,
            KindTag::TrackerQuery => 1,
            KindTag::TrackerResponse => 2,
            KindTag::PeerListRequest => 3,
            KindTag::PeerListResponse => 4,
            KindTag::Handshake => 5,
            KindTag::HandshakeAck => 6,
            KindTag::DataRequest => 7,
            KindTag::DataReply => 8,
            KindTag::DataReject => 9,
            KindTag::Announce => 10,
            KindTag::Goodbye => 11,
        }
    }

    fn from_code(code: u8) -> KindTag {
        match code {
            0 => KindTag::Bootstrap,
            1 => KindTag::TrackerQuery,
            2 => KindTag::TrackerResponse,
            3 => KindTag::PeerListRequest,
            4 => KindTag::PeerListResponse,
            5 => KindTag::Handshake,
            6 => KindTag::HandshakeAck,
            7 => KindTag::DataRequest,
            8 => KindTag::DataReply,
            9 => KindTag::DataReject,
            10 => KindTag::Announce,
            11 => KindTag::Goodbye,
            other => panic!("corrupt spill frame: kind tag {other}"),
        }
    }
}

fn remote_kind_code(k: RemoteKind) -> u8 {
    match k {
        RemoteKind::Peer => 0,
        RemoteKind::Tracker => 1,
        RemoteKind::Bootstrap => 2,
        RemoteKind::Source => 3,
    }
}

fn remote_kind_from_code(code: u8) -> RemoteKind {
    match code {
        0 => RemoteKind::Peer,
        1 => RemoteKind::Tracker,
        2 => RemoteKind::Bootstrap,
        3 => RemoteKind::Source,
        other => panic!("corrupt spill frame: remote kind {other}"),
    }
}

fn direction_code(d: Direction) -> u8 {
    match d {
        Direction::Outbound => 0,
        Direction::Inbound => 1,
    }
}

fn direction_from_code(code: u8) -> Direction {
    match code {
        0 => Direction::Outbound,
        1 => Direction::Inbound,
        other => panic!("corrupt spill frame: direction {other}"),
    }
}

/// Encoded bytes per row of a spilled frame (47: a [`Row`] without its
/// padding byte).
const SPILL_ROW_BYTES: usize = 3 * 8 + 5 * 4 + 3;

/// One captured record as the store keeps it: the scalars every variant
/// shares, the variant tag and three variant-dependent payload words
/// (see [`TraceStore::push_ref`] for what each variant puts in them).
#[derive(Debug, Clone, Copy)]
struct Row {
    t: SimTime,
    /// Sequence / correlation id (`0` for variants without one).
    seq: u64,
    /// Chunk id, `(offset << 32) | len` span into the address arena, or
    /// a boolean flag.
    aux: u64,
    probe: NodeId,
    remote: NodeId,
    remote_ip: Ipv4Addr,
    wire_bytes: u32,
    /// Media payload bytes (data replies; `0` otherwise).
    payload: u32,
    remote_kind: RemoteKind,
    direction: Direction,
    tag: KindTag,
}

// A new field changes the resident footprint and the spill format: decide
// both (`SPILL_ROW_BYTES`, `encode`, `decode`) before moving this number.
const _: () = assert!(std::mem::size_of::<Row>() == 48);

impl Row {
    /// Appends the row's [`SPILL_ROW_BYTES`] little-endian bytes to `buf`.
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.t.as_micros().to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.aux.to_le_bytes());
        buf.extend_from_slice(&self.probe.0.to_le_bytes());
        buf.extend_from_slice(&self.remote.0.to_le_bytes());
        buf.extend_from_slice(&self.remote_ip.octets());
        buf.extend_from_slice(&self.wire_bytes.to_le_bytes());
        buf.extend_from_slice(&self.payload.to_le_bytes());
        buf.push(remote_kind_code(self.remote_kind));
        buf.push(direction_code(self.direction));
        buf.push(self.tag.code());
    }

    /// Inverse of [`Row::encode`].
    ///
    /// # Panics
    ///
    /// Panics with `corrupt spill frame` on a code byte no encoder writes.
    fn decode(b: &[u8; SPILL_ROW_BYTES]) -> Row {
        let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        let u32_at = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("4 bytes"));
        Row {
            t: SimTime::from_micros(u64_at(0)),
            seq: u64_at(8),
            aux: u64_at(16),
            probe: NodeId(u32_at(24)),
            remote: NodeId(u32_at(28)),
            remote_ip: Ipv4Addr::new(b[32], b[33], b[34], b[35]),
            wire_bytes: u32_at(36),
            payload: u32_at(40),
            remote_kind: remote_kind_from_code(b[44]),
            direction: direction_from_code(b[45]),
            tag: KindTag::from_code(b[46]),
        }
    }
}

/// Serializes a page as a spill frame: its rows back to back.
fn encode_frame(rows: &[Row]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(rows.len() * SPILL_ROW_BYTES);
    for row in rows {
        row.encode(&mut frame);
    }
    frame
}

/// Decodes a spill frame into `rows` (cleared first; the cursor reuses it
/// across pages).
fn decode_frame(frame: &[u8], rows: &mut Vec<Row>) {
    let (chunks, ragged) = frame.as_chunks::<SPILL_ROW_BYTES>();
    assert!(ragged.is_empty(), "ragged spill frame");
    rows.clear();
    rows.extend(chunks.iter().map(Row::decode));
}

/// Borrowed view of one captured record: copied scalars plus a payload
/// view borrowing the store's address arena. What the streaming cursors
/// yield.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordRef<'a> {
    /// Capture timestamp.
    pub t: SimTime,
    /// The probe host that recorded the message.
    pub probe: NodeId,
    /// The remote endpoint.
    pub remote: NodeId,
    /// The remote endpoint's address.
    pub remote_ip: Ipv4Addr,
    /// Kind of the remote endpoint.
    pub remote_kind: RemoteKind,
    /// Direction relative to the probe.
    pub direction: Direction,
    /// Payload summary.
    pub kind: KindRef<'a>,
    /// Total bytes on the wire.
    pub wire_bytes: u32,
}

impl RecordRef<'_> {
    /// Clones into an owned [`TraceRecord`].
    #[must_use]
    pub fn to_owned(&self) -> TraceRecord {
        TraceRecord {
            t: self.t,
            probe: self.probe,
            remote: self.remote,
            remote_ip: self.remote_ip,
            remote_kind: self.remote_kind,
            direction: self.direction,
            kind: self.kind.to_owned(),
            wire_bytes: self.wire_bytes,
        }
    }
}

impl TraceRecord {
    /// Borrowed view of this record, as the store's cursors yield.
    #[must_use]
    pub fn as_ref(&self) -> RecordRef<'_> {
        RecordRef {
            t: self.t,
            probe: self.probe,
            remote: self.remote,
            remote_ip: self.remote_ip,
            remote_kind: self.remote_kind,
            direction: self.direction,
            kind: self.kind.as_ref(),
            wire_bytes: self.wire_bytes,
        }
    }
}

/// Append-only packet-trace storage — pages of packed `Row`s — with an
/// optional spill tier (see the module docs).
#[derive(Clone, Default)]
pub struct TraceStore {
    /// Page `p` holds rows `[p * PAGE_ROWS, (p + 1) * PAGE_ROWS)`. A page
    /// is allocated once at `PAGE_ROWS` capacity; a spilled page is an
    /// empty `Vec`.
    pages: Vec<Vec<Row>>,
    /// Shared arena for peer-list addresses, spanned by `Row::aux`. Always
    /// resident: spans borrow from it.
    ips: Vec<Ipv4Addr>,
    len: usize,
    /// Resident-byte budget; `None` never spills.
    budget: Option<u64>,
    /// Frame handles for the spilled page prefix `[0, spilled.len())`.
    spilled: Vec<SpillFrame>,
    /// Lazily created backing file, shared with clones.
    spill: Option<Arc<SpillFile>>,
    /// High-water resident heap, sampled at page-seal boundaries.
    peak_resident: usize,
}

impl TraceStore {
    /// An empty, unbudgeted store (never spills).
    #[must_use]
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// An empty store with a resident-byte budget: once a sealed page
    /// pushes the resident heap past `budget` bytes, the oldest resident
    /// sealed pages spill to disk. `None` behaves like [`TraceStore::new`].
    ///
    /// The budget bounds what *can* be bounded — the row pages. The open
    /// page and the shared address arena stay resident, so the effective
    /// floor is one page plus the arena.
    #[must_use]
    pub fn with_budget(budget: Option<u64>) -> TraceStore {
        TraceStore {
            budget,
            ..TraceStore::default()
        }
    }

    /// The configured resident-byte budget, if any.
    #[must_use]
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Number of pages currently spilled to disk.
    #[must_use]
    pub fn spilled_pages(&self) -> usize {
        self.spilled.len()
    }

    /// High-water resident heap over the store's lifetime: the largest
    /// value [`TraceStore::approx_heap_bytes`] has reached (sampled at
    /// page-seal boundaries and on this call).
    #[must_use]
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident.max(self.approx_heap_bytes())
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no record has been captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-reserves the address arena (the only part of the store that
    /// grows by reallocation; the row pages never move).
    pub fn reserve_ips(&mut self, additional: usize) {
        self.ips.reserve(additional);
    }

    fn intern_ips(&mut self, ips: impl Iterator<Item = Ipv4Addr>) -> u64 {
        let offset = self.ips.len() as u64;
        self.ips.extend(ips);
        let len = self.ips.len() as u64 - offset;
        (offset << 32) | len
    }

    fn push_row(&mut self, row: Row) {
        if self.len.is_multiple_of(PAGE_ROWS) {
            self.pages.push(Vec::with_capacity(PAGE_ROWS));
        }
        self.pages
            .last_mut()
            .expect("open page allocated above")
            .push(row);
        self.len += 1;
        if self.len.is_multiple_of(PAGE_ROWS) {
            self.seal_page();
        }
    }

    /// A page just sealed: sample the resident high-water mark, then
    /// spill oldest-first while over budget. The open page (there is none
    /// right now — the next push starts it) is never spilled.
    fn seal_page(&mut self) {
        self.peak_resident = self.peak_resident.max(self.approx_heap_bytes());
        let Some(budget) = self.budget else {
            return;
        };
        while self.spilled.len() < self.pages.len() && self.approx_heap_bytes() as u64 > budget {
            self.spill_oldest_page();
        }
    }

    /// Serializes the oldest resident sealed page into the spill file and
    /// releases its heap.
    fn spill_oldest_page(&mut self) {
        let page = std::mem::take(&mut self.pages[self.spilled.len()]);
        let spill = self
            .spill
            .get_or_insert_with(|| Arc::new(SpillFile::create()));
        self.spilled.push(spill.append_frame(&encode_frame(&page)));
    }

    /// Reads the raw frame of spilled page `page` into `scratch`.
    fn read_frame_bytes(&self, page: usize, scratch: &mut Vec<u8>) {
        let spill = self
            .spill
            .as_ref()
            .expect("spilled page without a spill file");
        spill.read_frame(self.spilled[page], scratch);
    }

    /// Appends a record (by borrowed view; list payloads are copied into
    /// the shared arena).
    pub fn push_ref(&mut self, r: RecordRef<'_>) {
        let (tag, seq, aux, payload) = match r.kind {
            KindRef::Bootstrap => (KindTag::Bootstrap, 0, 0, 0),
            KindRef::TrackerQuery => (KindTag::TrackerQuery, 0, 0, 0),
            KindRef::TrackerResponse { peer_ips } => {
                let span = self.intern_ips(peer_ips.iter().copied());
                (KindTag::TrackerResponse, 0, span, 0)
            }
            KindRef::PeerListRequest { req_id } => (KindTag::PeerListRequest, req_id, 0, 0),
            KindRef::PeerListResponse { req_id, peer_ips } => {
                let span = self.intern_ips(peer_ips.iter().copied());
                (KindTag::PeerListResponse, req_id, span, 0)
            }
            KindRef::Handshake => (KindTag::Handshake, 0, 0, 0),
            KindRef::HandshakeAck { accepted } => {
                (KindTag::HandshakeAck, 0, u64::from(accepted), 0)
            }
            KindRef::DataRequest { seq, chunk } => (KindTag::DataRequest, seq, chunk.0, 0),
            KindRef::DataReply {
                seq,
                chunk,
                payload_bytes,
            } => (KindTag::DataReply, seq, chunk.0, payload_bytes),
            KindRef::DataReject { seq, busy } => (KindTag::DataReject, seq, u64::from(busy), 0),
            KindRef::Announce => (KindTag::Announce, 0, 0, 0),
            KindRef::Goodbye => (KindTag::Goodbye, 0, 0, 0),
        };
        self.push_row(Row {
            t: r.t,
            seq,
            aux,
            probe: r.probe,
            remote: r.remote,
            remote_ip: r.remote_ip,
            wire_bytes: r.wire_bytes,
            payload,
            remote_kind: r.remote_kind,
            direction: r.direction,
            tag,
        });
    }

    /// Appends an owned record.
    pub fn push(&mut self, record: &TraceRecord) {
        self.push_ref(record.as_ref());
    }

    fn span(&self, aux: u64) -> &[Ipv4Addr] {
        let offset = (aux >> 32) as usize;
        let len = (aux & 0xFFFF_FFFF) as usize;
        &self.ips[offset..offset + len]
    }

    /// The borrowed view of `row`. The scalars are copied and peer-list
    /// spans borrow the always-resident address arena, so the view borrows
    /// only the store — whether the row came from a resident page or a
    /// decoded spill frame.
    fn record_ref(&self, row: Row) -> RecordRef<'_> {
        let Row {
            seq, aux, payload, ..
        } = row;
        let kind = match row.tag {
            KindTag::Bootstrap => KindRef::Bootstrap,
            KindTag::TrackerQuery => KindRef::TrackerQuery,
            KindTag::TrackerResponse => KindRef::TrackerResponse {
                peer_ips: self.span(aux),
            },
            KindTag::PeerListRequest => KindRef::PeerListRequest { req_id: seq },
            KindTag::PeerListResponse => KindRef::PeerListResponse {
                req_id: seq,
                peer_ips: self.span(aux),
            },
            KindTag::Handshake => KindRef::Handshake,
            KindTag::HandshakeAck => KindRef::HandshakeAck { accepted: aux != 0 },
            KindTag::DataRequest => KindRef::DataRequest {
                seq,
                chunk: ChunkId(aux),
            },
            KindTag::DataReply => KindRef::DataReply {
                seq,
                chunk: ChunkId(aux),
                payload_bytes: payload,
            },
            KindTag::DataReject => KindRef::DataReject {
                seq,
                busy: aux != 0,
            },
            KindTag::Announce => KindRef::Announce,
            KindTag::Goodbye => KindRef::Goodbye,
        };
        RecordRef {
            t: row.t,
            probe: row.probe,
            remote: row.remote,
            remote_ip: row.remote_ip,
            remote_kind: row.remote_kind,
            direction: row.direction,
            kind,
            wire_bytes: row.wire_bytes,
        }
    }

    /// Streaming cursor over every record in capture order, transparently
    /// reading spilled pages back from disk.
    #[must_use]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            store: self,
            index: 0,
            off: 0,
            page: Cow::Borrowed(&[]),
            scratch: Vec::new(),
        }
    }

    /// Streaming cursor over the records captured at one probe — what the
    /// per-probe analysis passes use instead of cloning a row subset.
    #[must_use]
    pub fn rows_for(&self, probe: NodeId) -> RowsFor<'_> {
        RowsFor {
            rows: self.rows(),
            probe,
        }
    }

    /// Builds a store from owned rows.
    #[must_use]
    pub fn from_records(records: &[TraceRecord]) -> TraceStore {
        let mut out = TraceStore::new();
        for r in records {
            out.push(r);
        }
        out
    }

    /// Materializes owned rows (allocates one `Vec` per list payload;
    /// compatibility path, not for hot loops).
    #[must_use]
    pub fn to_records(&self) -> Vec<TraceRecord> {
        self.rows().map(|r| r.to_owned()).collect()
    }

    /// Bytes of heap *resident* in the row pages and the address arena.
    /// Spilled pages have released their heap and do not count.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        let rows: usize = self.pages.iter().map(Vec::capacity).sum();
        rows * std::mem::size_of::<Row>() + self.ips.capacity() * std::mem::size_of::<Ipv4Addr>()
    }
}

/// Content equality, independent of spill state and budget: two stores
/// are equal when they stream the same records in the same order.
impl PartialEq for TraceStore {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.rows().eq(other.rows())
    }
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("len", &self.len)
            .field("arena_ips", &self.ips.len())
            .field("spilled_pages", &self.spilled.len())
            .finish()
    }
}

impl<'a> IntoIterator for &'a TraceStore {
    type Item = RecordRef<'a>;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.rows()
    }
}

impl FromIterator<TraceRecord> for TraceStore {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        let mut out = TraceStore::new();
        for r in iter {
            out.push(&r);
        }
        out
    }
}

/// Cursor over a [`TraceStore`] in capture order.
///
/// Works a page at a time: a resident page is borrowed as it lies, a
/// spilled page is read back from the spill file once and decoded into a
/// reused buffer — so stepping a row is one slice read either way, and a
/// full scan reads each spilled frame exactly once.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    store: &'a TraceStore,
    /// Global index of the next row.
    index: usize,
    /// Offset of the next row within the current page.
    off: usize,
    /// The current page: borrowed from the store, or decoded and owned.
    page: Cow<'a, [Row]>,
    /// Reused raw-frame buffer for spilled pages.
    scratch: Vec<u8>,
}

impl Rows<'_> {
    fn load_page(&mut self) {
        let page = self.index / PAGE_ROWS;
        self.off = self.index % PAGE_ROWS;
        let store = self.store;
        self.page = if page < store.spilled.len() {
            // Reuse the previous spilled page's buffer when possible.
            let mut rows = match std::mem::take(&mut self.page) {
                Cow::Owned(rows) => rows,
                Cow::Borrowed(_) => Vec::new(),
            };
            store.read_frame_bytes(page, &mut self.scratch);
            decode_frame(&self.scratch, &mut rows);
            Cow::Owned(rows)
        } else {
            Cow::Borrowed(&store.pages[page])
        };
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        if self.index >= self.store.len {
            return None;
        }
        if self.off >= self.page.len() {
            self.load_page();
        }
        let r = self.store.record_ref(self.page[self.off]);
        self.off += 1;
        self.index += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.store.len - self.index.min(self.store.len);
        (left, Some(left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// Cursor over the records captured at one probe, in capture order.
///
/// Unlike `rows().filter(..)` — which builds a full [`RecordRef`] for
/// every row before the predicate can reject it — this cursor compares
/// `row.probe` on the page slice and builds the view only on a match.
/// With a handful of probes in a world-sized store, almost every row is a
/// miss.
#[derive(Debug, Clone)]
pub struct RowsFor<'a> {
    rows: Rows<'a>,
    probe: NodeId,
}

impl<'a> Iterator for RowsFor<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        let rows = &mut self.rows;
        while rows.index < rows.store.len {
            if rows.off >= rows.page.len() {
                rows.load_page();
            }
            let rest = &rows.page[rows.off..];
            let skip = rest
                .iter()
                .position(|r| r.probe == self.probe)
                .unwrap_or(rest.len());
            let hit = skip < rest.len();
            rows.off += skip;
            rows.index += skip;
            if hit {
                return rows.next();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordKind;

    fn record(i: u64, kind: RecordKind) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_millis(i),
            probe: NodeId(i as u32 % 3),
            remote: NodeId(100 + i as u32),
            remote_ip: Ipv4Addr::new(58, 0, 0, (i % 250) as u8),
            remote_kind: RemoteKind::Peer,
            direction: if i.is_multiple_of(2) {
                Direction::Outbound
            } else {
                Direction::Inbound
            },
            kind,
            wire_bytes: 64 + i as u32,
        }
    }

    fn every_kind() -> Vec<TraceRecord> {
        let ips = vec![Ipv4Addr::new(58, 0, 0, 1), Ipv4Addr::new(60, 0, 0, 2)];
        [
            RecordKind::Bootstrap,
            RecordKind::TrackerQuery,
            RecordKind::TrackerResponse {
                peer_ips: ips.clone(),
            },
            RecordKind::PeerListRequest { req_id: 7 },
            RecordKind::PeerListResponse {
                req_id: 8,
                peer_ips: ips,
            },
            RecordKind::Handshake,
            RecordKind::HandshakeAck { accepted: true },
            RecordKind::DataRequest {
                seq: 9,
                chunk: ChunkId(4),
            },
            RecordKind::DataReply {
                seq: 9,
                chunk: ChunkId(4),
                payload_bytes: 1380,
            },
            RecordKind::DataReject {
                seq: 10,
                busy: false,
            },
            RecordKind::Announce,
            RecordKind::Goodbye,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| record(i as u64, k))
        .collect()
    }

    /// A mixed stream long enough to seal several pages, cycling every
    /// variant (so spill encoding covers the whole tag space) with
    /// interleaved peer lists (so arena spans cross spilled pages).
    fn mixed_stream(n: u64) -> Vec<TraceRecord> {
        let template = every_kind();
        (0..n)
            .map(|i| {
                let mut r = template[(i % template.len() as u64) as usize].clone();
                r.t = SimTime::from_millis(i);
                r.probe = NodeId(i as u32 % 3);
                r.remote = NodeId(100 + (i as u32 % 50));
                r.wire_bytes = 64 + (i as u32 % 1000);
                if let RecordKind::DataRequest { seq, .. }
                | RecordKind::DataReply { seq, .. }
                | RecordKind::DataReject { seq, .. } = &mut r.kind
                {
                    *seq = i;
                }
                r
            })
            .collect()
    }

    #[test]
    fn every_variant_roundtrips_losslessly() {
        let records = every_kind();
        let store = TraceStore::from_records(&records);
        assert_eq!(store.len(), records.len());
        assert_eq!(store.to_records(), records);
        assert!(store.rows().eq(records.iter().map(TraceRecord::as_ref)));
    }

    #[test]
    fn rows_for_streams_one_probe() {
        let records = every_kind();
        let store = TraceStore::from_records(&records);
        let mine: Vec<_> = store.rows_for(NodeId(0)).collect();
        let expected: Vec<_> = records
            .iter()
            .filter(|r| r.probe == NodeId(0))
            .map(TraceRecord::as_ref)
            .collect();
        assert_eq!(mine, expected);
        assert!(!mine.is_empty());
    }

    #[test]
    fn rows_for_matches_filter_across_pages() {
        // Sparse matches spread over several pages, including page-final
        // rows and pages with no match at all, to exercise the
        // probe-column skip path of the RowsFor cursor.
        let mut store = TraceStore::new();
        for i in 0..(3 * PAGE_ROWS as u64 + 17) {
            let mut r = record(
                i,
                RecordKind::DataRequest {
                    seq: i,
                    chunk: ChunkId(i),
                },
            );
            r.probe = match i % 5 {
                0 => NodeId(1),
                1..=3 => NodeId(2),
                _ => NodeId(3),
            };
            store.push(&r);
        }
        for probe in [NodeId(1), NodeId(2), NodeId(3), NodeId(99)] {
            let fast: Vec<_> = store.rows_for(probe).collect();
            let slow: Vec<_> = store.rows().filter(|r| r.probe == probe).collect();
            assert_eq!(fast, slow);
        }
        assert!(store.rows_for(NodeId(99)).next().is_none());
    }

    #[test]
    fn equality_tracks_content() {
        let records = every_kind();
        let a = TraceStore::from_records(&records);
        let b: TraceStore = records.clone().into_iter().collect();
        assert_eq!(a, b);
        let mut c = TraceStore::from_records(&records);
        c.push(&records[0]);
        assert_ne!(a, c);
    }

    #[test]
    fn packed_rows_are_smaller_than_owned_records() {
        // A realistic mix: mostly data traffic, some gossip lists.
        let mut records = Vec::new();
        for i in 0..(PAGE_ROWS as u64 + 100) {
            let kind = if i % 10 == 0 {
                RecordKind::PeerListResponse {
                    req_id: i,
                    peer_ips: (0..20).map(|k| Ipv4Addr::new(58, 0, 1, k)).collect(),
                }
            } else {
                RecordKind::DataReply {
                    seq: i,
                    chunk: ChunkId(i / 4),
                    payload_bytes: 1380,
                }
            };
            records.push(record(i, kind));
        }
        let store = TraceStore::from_records(&records);
        let row_bytes = records.capacity() * std::mem::size_of::<TraceRecord>()
            + records
                .iter()
                .map(|r| match &r.kind {
                    RecordKind::PeerListResponse { peer_ips, .. }
                    | RecordKind::TrackerResponse { peer_ips } => {
                        peer_ips.capacity() * std::mem::size_of::<Ipv4Addr>()
                    }
                    _ => 0,
                })
                .sum::<usize>();
        assert!(
            store.approx_heap_bytes() < row_bytes,
            "store ({}) should undercut rows ({})",
            store.approx_heap_bytes(),
            row_bytes
        );
    }

    #[test]
    fn cursor_is_exact_size_and_into_iter_works() {
        let records = every_kind();
        let store = TraceStore::from_records(&records);
        let rows = store.rows();
        assert_eq!(rows.len(), records.len());
        let mut n = 0;
        for r in &store {
            assert_eq!(r, records[n].as_ref());
            n += 1;
        }
        assert_eq!(n, records.len());
    }

    #[test]
    fn empty_store_basics() {
        let store = TraceStore::new();
        assert!(store.is_empty());
        assert_eq!(store.rows().count(), 0);
        assert_eq!(store.to_records(), Vec::new());
        assert!(format!("{store:?}").contains("len"));
        assert_eq!(store.spilled_pages(), 0);
        assert_eq!(store.budget(), None);
    }

    #[test]
    fn spilled_store_is_bit_identical_to_resident() {
        let records = mixed_stream(2 * PAGE_ROWS as u64 + 500);
        let resident = TraceStore::from_records(&records);
        // A 1-byte budget forces every sealed page out; the open page and
        // the arena stay resident by construction.
        let mut spilled = TraceStore::with_budget(Some(1));
        for r in &records {
            spilled.push(r);
        }
        assert_eq!(spilled.spilled_pages(), 2, "both sealed pages must spill");
        assert!(
            spilled.approx_heap_bytes() < resident.approx_heap_bytes(),
            "spilling must release page heap"
        );
        assert!(spilled.peak_resident_bytes() >= spilled.approx_heap_bytes());

        // The full cursor, the per-probe cursor, equality and row
        // conversion must all be spill-transparent.
        assert!(spilled.rows().eq(resident.rows()));
        assert_eq!(spilled, resident);
        assert_eq!(resident, spilled);
        for probe in [NodeId(0), NodeId(1), NodeId(2)] {
            assert!(spilled.rows_for(probe).eq(resident.rows_for(probe)));
        }
        assert_eq!(spilled.to_records(), records);
    }

    #[test]
    fn generous_budget_never_spills() {
        let records = mixed_stream(PAGE_ROWS as u64 + 10);
        let mut store = TraceStore::with_budget(Some(1 << 30));
        for r in &records {
            store.push(r);
        }
        assert_eq!(store.spilled_pages(), 0);
        assert_eq!(store.to_records(), records);
    }

    #[test]
    fn budget_bounds_resident_column_bytes() {
        // Resident set after each seal: at most the budget, plus the open
        // page the next pushes grow (the arena is tiny here — no lists).
        let mut store = TraceStore::with_budget(Some(512 * 1024));
        for i in 0..(5 * PAGE_ROWS as u64) {
            store.push(&record(
                i,
                RecordKind::DataReply {
                    seq: i,
                    chunk: ChunkId(i / 4),
                    payload_bytes: 1380,
                },
            ));
            if store.len().is_multiple_of(PAGE_ROWS) {
                assert!(
                    store.approx_heap_bytes() as u64 <= 512 * 1024,
                    "over budget right after a seal: {} bytes",
                    store.approx_heap_bytes()
                );
            }
        }
        assert!(store.spilled_pages() > 0);
        assert!(store.peak_resident_bytes() > store.approx_heap_bytes());
    }

    #[test]
    fn clones_share_the_spill_file() {
        let records = mixed_stream(PAGE_ROWS as u64 + 100);
        let mut store = TraceStore::with_budget(Some(1));
        for r in &records {
            store.push(r);
        }
        assert_eq!(store.spilled_pages(), 1);
        let clone = store.clone();
        assert_eq!(clone, store);
        assert!(clone.rows().eq(store.rows()));
        // Both handles keep working after the other is dropped.
        drop(store);
        assert_eq!(clone.to_records(), records);
    }

    #[test]
    fn pages_are_allocated_whole_and_never_regrow() {
        let mut store = TraceStore::new();
        for i in 0..=PAGE_ROWS as u64 {
            store.push(&record(i, RecordKind::Handshake));
        }
        // One full page still at its first capacity, one open page at the
        // same; no lists were pushed, so the arena holds nothing.
        assert_eq!(store.approx_heap_bytes(), 2 * PAGE_ROWS * 48);
        store.push(&record(
            0,
            RecordKind::TrackerResponse {
                peer_ips: vec![Ipv4Addr::LOCALHOST],
            },
        ));
        assert_eq!(
            store.approx_heap_bytes(),
            2 * PAGE_ROWS * 48 + store.ips.capacity() * 4
        );
    }

    /// The encoded bytes of a valid row, for the corruption tests to damage.
    fn encoded_row() -> [u8; SPILL_ROW_BYTES] {
        let store = TraceStore::from_records(&every_kind());
        encode_frame(&store.pages[0][..1])
            .try_into()
            .expect("one row is SPILL_ROW_BYTES long")
    }

    #[test]
    #[should_panic(expected = "corrupt spill frame: remote kind 4")]
    fn decode_rejects_an_unknown_remote_kind() {
        let mut bytes = encoded_row();
        bytes[44] = 4;
        let _ = Row::decode(&bytes);
    }

    #[test]
    #[should_panic(expected = "corrupt spill frame: direction 2")]
    fn decode_rejects_an_unknown_direction() {
        let mut bytes = encoded_row();
        bytes[45] = 2;
        let _ = Row::decode(&bytes);
    }

    #[test]
    #[should_panic(expected = "corrupt spill frame: kind tag 12")]
    fn decode_rejects_an_unknown_kind_tag() {
        let mut bytes = encoded_row();
        bytes[46] = 12;
        let _ = Row::decode(&bytes);
    }

    #[test]
    #[should_panic(expected = "ragged spill frame")]
    fn decode_rejects_a_ragged_frame() {
        let mut frame = encoded_row().to_vec();
        frame.push(0);
        decode_frame(&frame, &mut Vec::new());
    }
}
