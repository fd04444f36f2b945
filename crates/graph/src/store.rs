//! Graph storage backends: the [`GraphStore`] trait and the on-disk
//! binary CSR format.
//!
//! All adjacency and label access in [`Graph`] is routed
//! through [`GraphStore`], which has two implementations:
//!
//! * [`VecStore`] — the original heap-owned `Vec` arrays, produced by
//!   [`crate::GraphBuilder::build`].
//! * [`MmapStore`] — a read-only view over the binary `.egb` file format
//!   defined here, memory-mapped so a graph loads in O(1) regardless of
//!   size and multiple processes censusing the same file share one
//!   physical copy of the adjacency arrays through the page cache.
//!
//! # Binary layout (`.egb`, version 1)
//!
//! Little-endian throughout. The file is a 4096-byte header page followed
//! by eight page-aligned sections:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "EGOCSR1\0"
//! 8       4     version (u32, = 1)
//! 12      4     flags   (u32, bit 0 = directed)
//! 16      8     num_nodes (u64)
//! 24      8     num_edges (u64, distinct edges)
//! 32      4     num_labels (u32, fits u16)
//! 36      4     section count (u32, = 8)
//! 40      8     fingerprint (u64, memoized census-cache key)
//! 48      128   section table: 8 x (byte offset u64, byte length u64)
//! ...     pad   zero padding to 4096
//! ```
//!
//! Sections, in table order: node labels (`u16` × n), undirected offsets
//! (`u32` × n+1), undirected targets (`u32` × `und_offsets[n]`), out
//! offsets, out targets, in offsets, in targets (all zero-length for
//! undirected graphs), and a serialized attribute blob. Every non-empty
//! section starts on a 4096-byte boundary, so mapped slices are always
//! aligned for their element type and adjacency pages never straddle a
//! section boundary.
//!
//! Opening validates the header, section table, and the section sizes
//! implied by the offset arrays' last entries, and deserializes the
//! (sparse, typically small) attribute blob; it does **not** touch the
//! adjacency sections, so open cost is independent of graph size. The
//! offset arrays themselves are trusted to be monotone — a corrupted
//! file can make slicing panic (safe, no UB), and
//! [`Graph::verify_fingerprint`](crate::Graph::verify_fingerprint)
//! (run by `egocensus convert` after writing) checks full content
//! integrity against the header fingerprint.

use crate::attrs::{AttrStore, AttrValue, EdgeAttrStore};
use crate::graph::Graph;
use crate::ids::{Label, NodeId};
use crate::io::IoError;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// File extension that selects the binary mmap backend in
/// [`crate::io::load_path`].
pub const BINARY_EXTENSION: &str = "egb";

const MAGIC: [u8; 8] = *b"EGOCSR1\0";
const VERSION: u32 = 1;
const PAGE: usize = 4096;
const NUM_SECTIONS: usize = 8;

// Section table indices.
const SEC_LABELS: usize = 0;
const SEC_UND_OFF: usize = 1;
const SEC_UND_TGT: usize = 2;
const SEC_OUT_OFF: usize = 3;
const SEC_OUT_TGT: usize = 4;
const SEC_IN_OFF: usize = 5;
const SEC_IN_TGT: usize = 6;
const SEC_ATTRS: usize = 7;

/// Read-only access to the CSR sections of a graph.
///
/// Contract: `labels().len()` is the node count `n`; `und_offsets()` has
/// `n + 1` monotone entries with `und_offsets()[0] == 0` and
/// `und_offsets()[n] == und_targets().len()`; each window
/// `und_targets()[off[i]..off[i+1]]` is the sorted, deduplicated
/// undirected neighbor list of node `i`. For directed graphs the
/// out/in arrays satisfy the same invariants; for undirected graphs all
/// four are empty and callers fall back to the undirected view.
pub trait GraphStore: Send + Sync {
    /// Per-node labels, indexed by node id.
    fn labels(&self) -> &[Label];
    /// Undirected-view CSR offsets, length `n + 1`.
    fn und_offsets(&self) -> &[u32];
    /// Undirected-view neighbor lists, sorted per node.
    fn und_targets(&self) -> &[NodeId];
    /// Out-edge CSR offsets (empty for undirected graphs).
    fn out_offsets(&self) -> &[u32];
    /// Out-neighbor lists (empty for undirected graphs).
    fn out_targets(&self) -> &[NodeId];
    /// In-edge CSR offsets (empty for undirected graphs).
    fn in_offsets(&self) -> &[u32];
    /// In-neighbor lists (empty for undirected graphs).
    fn in_targets(&self) -> &[NodeId];
    /// Short backend name for stats/debugging (`"mem"` or `"mmap"`).
    fn kind(&self) -> &'static str;
}

/// Heap-owned storage: the backend every [`crate::GraphBuilder`] produces.
#[derive(Clone, Debug, Default)]
pub struct VecStore {
    pub(crate) labels: Vec<Label>,
    pub(crate) und_offsets: Vec<u32>,
    pub(crate) und_targets: Vec<NodeId>,
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<NodeId>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_targets: Vec<NodeId>,
}

impl GraphStore for VecStore {
    #[inline(always)]
    fn labels(&self) -> &[Label] {
        &self.labels
    }
    #[inline(always)]
    fn und_offsets(&self) -> &[u32] {
        &self.und_offsets
    }
    #[inline(always)]
    fn und_targets(&self) -> &[NodeId] {
        &self.und_targets
    }
    #[inline(always)]
    fn out_offsets(&self) -> &[u32] {
        &self.out_offsets
    }
    #[inline(always)]
    fn out_targets(&self) -> &[NodeId] {
        &self.out_targets
    }
    #[inline(always)]
    fn in_offsets(&self) -> &[u32] {
        &self.in_offsets
    }
    #[inline(always)]
    fn in_targets(&self) -> &[NodeId] {
        &self.in_targets
    }
    fn kind(&self) -> &'static str {
        "mem"
    }
}

/// The two storage backends a [`Graph`] can sit on. Dispatch is a
/// two-way match (statically resolved per arm), so the hot accessors
/// stay branch-predictable instead of paying a vtable load per call.
#[derive(Clone)]
pub(crate) enum StoreBackend {
    Mem(VecStore),
    Mmap(Arc<MmapStore>),
}

impl std::fmt::Debug for StoreBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreBackend::Mem(s) => write!(
                f,
                "VecStore {{ nodes: {}, und_targets: {} }}",
                s.labels.len(),
                s.und_targets.len()
            ),
            StoreBackend::Mmap(s) => write!(
                f,
                "MmapStore {{ nodes: {}, bytes: {}, mapped: {} }}",
                s.labels().len(),
                s.buf.as_slice().len(),
                s.buf.is_mapped()
            ),
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $method:ident) => {
        match $self {
            StoreBackend::Mem(s) => GraphStore::$method(s),
            StoreBackend::Mmap(s) => GraphStore::$method(&**s),
        }
    };
}

impl StoreBackend {
    #[inline(always)]
    pub(crate) fn labels(&self) -> &[Label] {
        dispatch!(self, labels)
    }
    #[inline(always)]
    pub(crate) fn und_offsets(&self) -> &[u32] {
        dispatch!(self, und_offsets)
    }
    #[inline(always)]
    pub(crate) fn und_targets(&self) -> &[NodeId] {
        dispatch!(self, und_targets)
    }
    #[inline(always)]
    pub(crate) fn out_offsets(&self) -> &[u32] {
        dispatch!(self, out_offsets)
    }
    #[inline(always)]
    pub(crate) fn out_targets(&self) -> &[NodeId] {
        dispatch!(self, out_targets)
    }
    #[inline(always)]
    pub(crate) fn in_offsets(&self) -> &[u32] {
        dispatch!(self, in_offsets)
    }
    #[inline(always)]
    pub(crate) fn in_targets(&self) -> &[NodeId] {
        dispatch!(self, in_targets)
    }
    #[inline]
    pub(crate) fn kind(&self) -> &'static str {
        dispatch!(self, kind)
    }
}

// ---------------------------------------------------------------------------
// Memory mapping

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// An owned read-only `mmap` of a whole file. Unmapped on drop.
#[cfg(unix)]
struct Mapping {
    ptr: *const u8,
    len: usize,
}

#[cfg(unix)]
impl Mapping {
    /// Map `len` bytes of `file` read-only and `MAP_SHARED`, so every
    /// process mapping the same file shares one set of physical pages.
    fn new(file: &std::fs::File, len: usize) -> std::io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mapping {
            ptr: ptr as *const u8,
            len,
        })
    }

    fn as_slice(&self) -> &[u8] {
        // Safety: the region [ptr, ptr + len) stays mapped PROT_READ for
        // the lifetime of `self`; munmap happens only in Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        unsafe {
            sys::munmap(self.ptr as *mut _, self.len);
        }
    }
}

// Safety: the mapping is immutable (PROT_READ) and owned; concurrent
// reads from multiple threads are fine. Mutating the underlying file
// while mapped is outside the API's contract (same as any mmap user).
#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

/// File bytes with 8-byte base alignment: an actual `mmap` when the
/// platform provides one, or an aligned heap buffer otherwise (and for
/// [`read_binary`]). Section offsets are multiples of [`PAGE`], so any
/// base alignment ≥ 8 keeps every typed section slice aligned.
enum MapBuf {
    #[cfg(unix)]
    Mmap(Mapping),
    Heap {
        buf: Vec<u64>,
        len: usize,
    },
}

impl MapBuf {
    fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            MapBuf::Mmap(m) => m.as_slice(),
            MapBuf::Heap { buf, len } => {
                // Safety: buf holds ceil(len / 8) u64s, i.e. at least
                // `len` initialized bytes at an 8-aligned address.
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len) }
            }
        }
    }

    fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            MapBuf::Mmap(_) => true,
            MapBuf::Heap { .. } => false,
        }
    }

    fn read_from(path: &Path) -> Result<MapBuf, IoError> {
        use std::io::Read as _;
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(IoError::Format("file too large for address space".into()));
        }
        let len = len as usize;
        let mut buf = vec![0u64; len.div_ceil(8)];
        // Safety: viewing the u64 buffer as bytes for reading; every
        // byte pattern is a valid u64.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
        file.read_exact(bytes)?;
        Ok(MapBuf::Heap { buf, len })
    }
}

/// Reinterpret an aligned byte slice as a slice of plain CSR elements.
///
/// Only instantiated at `u32`, `NodeId` (`repr(transparent)` over `u32`)
/// and `Label` (`repr(transparent)` over `u16`): no padding, every bit
/// pattern valid. Alignment and size divisibility hold by construction
/// (page-aligned sections, validated byte lengths) and are debug-checked.
fn cast_slice<T>(bytes: &[u8]) -> &[T] {
    let size = std::mem::size_of::<T>();
    debug_assert_eq!(bytes.len() % size, 0);
    debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
    // Safety: see above; length and alignment checked by the caller's
    // validation pass.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) }
}

/// Read-only mmap-backed storage over the `.egb` binary format.
pub struct MmapStore {
    buf: MapBuf,
    labels: Range<usize>,
    und_offsets: Range<usize>,
    und_targets: Range<usize>,
    out_offsets: Range<usize>,
    out_targets: Range<usize>,
    in_offsets: Range<usize>,
    in_targets: Range<usize>,
}

impl MmapStore {
    #[inline(always)]
    fn bytes(&self, r: &Range<usize>) -> &[u8] {
        &self.buf.as_slice()[r.start..r.end]
    }
}

impl GraphStore for MmapStore {
    #[inline(always)]
    fn labels(&self) -> &[Label] {
        cast_slice(self.bytes(&self.labels))
    }
    #[inline(always)]
    fn und_offsets(&self) -> &[u32] {
        cast_slice(self.bytes(&self.und_offsets))
    }
    #[inline(always)]
    fn und_targets(&self) -> &[NodeId] {
        cast_slice(self.bytes(&self.und_targets))
    }
    #[inline(always)]
    fn out_offsets(&self) -> &[u32] {
        cast_slice(self.bytes(&self.out_offsets))
    }
    #[inline(always)]
    fn out_targets(&self) -> &[NodeId] {
        cast_slice(self.bytes(&self.out_targets))
    }
    #[inline(always)]
    fn in_offsets(&self) -> &[u32] {
        cast_slice(self.bytes(&self.in_offsets))
    }
    #[inline(always)]
    fn in_targets(&self) -> &[NodeId] {
        cast_slice(self.bytes(&self.in_targets))
    }
    fn kind(&self) -> &'static str {
        "mmap"
    }
}

// ---------------------------------------------------------------------------
// Writing

fn slice_bytes<T>(s: &[T]) -> &[u8] {
    // Safety: only used on u16/u32-shaped plain types (see cast_slice).
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> std::io::Result<()> {
    let len = u32::try_from(s.len())
        .map_err(|_| bad_data("attribute name or string value longer than u32"))?;
    put_u32(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_value(out: &mut Vec<u8>, v: &AttrValue) -> std::io::Result<()> {
    match v {
        AttrValue::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        AttrValue::Float(f) => {
            out.push(1);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        AttrValue::Str(s) => {
            out.push(2);
            put_str(out, s)?;
        }
        AttrValue::Bool(b) => {
            out.push(3);
            out.push(*b as u8);
        }
    }
    Ok(())
}

fn bad_data(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Serialize both attribute stores into a deterministic byte blob
/// (columns sorted by name, entries by key), so converting the same
/// graph always yields byte-identical files.
fn encode_attrs(g: &Graph) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();

    let mut names: Vec<&str> = g.node_attrs().attribute_names().collect();
    names.sort_unstable();
    put_u32(&mut out, names.len() as u32);
    for name in names {
        put_str(&mut out, name)?;
        let mut entries: Vec<(u32, &AttrValue)> =
            g.node_attrs().column(name).map(|(n, v)| (n.0, v)).collect();
        entries.sort_unstable_by_key(|(n, _)| *n);
        let count = u32::try_from(entries.len())
            .map_err(|_| bad_data("too many node attribute entries"))?;
        put_u32(&mut out, count);
        for (node, value) in entries {
            put_u32(&mut out, node);
            put_value(&mut out, value)?;
        }
    }

    let mut enames: Vec<&str> = g.edge_attrs().attribute_names().collect();
    enames.sort_unstable();
    put_u32(&mut out, enames.len() as u32);
    for name in enames {
        put_str(&mut out, name)?;
        let mut entries: Vec<((u32, u32), &AttrValue)> = g.edge_attrs().column(name).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        let count = u32::try_from(entries.len())
            .map_err(|_| bad_data("too many edge attribute entries"))?;
        put_u32(&mut out, count);
        for ((a, b), value) in entries {
            put_u32(&mut out, a);
            put_u32(&mut out, b);
            put_value(&mut out, value)?;
        }
    }
    Ok(out)
}

/// Serialize `g` into the binary `.egb` format.
///
/// Works over either backend (so `convert` can also rewrite binary
/// files). Refused on big-endian targets: the format is little-endian
/// and the mmap reader casts sections in place.
pub fn write_binary<W: Write>(g: &Graph, w: &mut W) -> std::io::Result<()> {
    if cfg!(target_endian = "big") {
        return Err(bad_data(
            "binary graph format requires a little-endian target",
        ));
    }
    let attrs = encode_attrs(g)?;
    let sections: [&[u8]; NUM_SECTIONS] = [
        slice_bytes(g.store().labels()),
        slice_bytes(g.store().und_offsets()),
        slice_bytes(g.store().und_targets()),
        slice_bytes(g.store().out_offsets()),
        slice_bytes(g.store().out_targets()),
        slice_bytes(g.store().in_offsets()),
        slice_bytes(g.store().in_targets()),
        &attrs,
    ];

    // Lay out the section table: each non-empty section page-aligned.
    let mut table = [(0u64, 0u64); NUM_SECTIONS];
    let mut cursor = PAGE;
    for (i, sec) in sections.iter().enumerate() {
        if sec.is_empty() {
            continue;
        }
        table[i] = (cursor as u64, sec.len() as u64);
        cursor += sec.len().next_multiple_of(PAGE);
    }

    let mut header = Vec::with_capacity(PAGE);
    header.extend_from_slice(&MAGIC);
    put_u32(&mut header, VERSION);
    put_u32(&mut header, g.is_directed() as u32);
    put_u64(&mut header, g.num_nodes() as u64);
    put_u64(&mut header, g.num_edges() as u64);
    put_u32(&mut header, g.num_labels() as u32);
    put_u32(&mut header, NUM_SECTIONS as u32);
    put_u64(&mut header, g.fingerprint());
    for (off, len) in table {
        put_u64(&mut header, off);
        put_u64(&mut header, len);
    }
    header.resize(PAGE, 0);
    w.write_all(&header)?;

    let pad = [0u8; 512];
    for sec in sections {
        if sec.is_empty() {
            continue;
        }
        w.write_all(sec)?;
        let mut rem = sec.len().next_multiple_of(PAGE) - sec.len();
        while rem > 0 {
            let chunk = rem.min(pad.len());
            w.write_all(&pad[..chunk])?;
            rem -= chunk;
        }
    }
    Ok(())
}

/// Write `g` to `path` in the binary format (buffered).
pub fn save_binary(g: &Graph, path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write_binary(g, &mut w)?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Opening

fn fmt_err(msg: impl Into<String>) -> IoError {
    IoError::Format(msg.into())
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn get_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

struct Header {
    directed: bool,
    num_nodes: usize,
    num_edges: usize,
    num_labels: u16,
    fingerprint: u64,
    sections: [Range<usize>; NUM_SECTIONS],
}

fn parse_header(bytes: &[u8]) -> Result<Header, IoError> {
    if cfg!(target_endian = "big") {
        return Err(fmt_err(
            "binary graph format requires a little-endian target",
        ));
    }
    if bytes.len() < PAGE {
        return Err(fmt_err("file too small for header page"));
    }
    if bytes[..8] != MAGIC {
        return Err(fmt_err("bad magic (not an egocensus binary graph)"));
    }
    let version = get_u32(bytes, 8);
    if version != VERSION {
        return Err(fmt_err(format!("unsupported format version {version}")));
    }
    let flags = get_u32(bytes, 12);
    if flags > 1 {
        return Err(fmt_err(format!("unknown header flags {flags:#x}")));
    }
    let num_nodes = get_u64(bytes, 16);
    if num_nodes > u32::MAX as u64 {
        return Err(fmt_err("node count exceeds the u32 id space"));
    }
    let num_edges = get_u64(bytes, 24);
    let num_labels = get_u32(bytes, 32);
    if num_labels > u16::MAX as u32 {
        return Err(fmt_err("label count exceeds the u16 label space"));
    }
    if get_u32(bytes, 36) != NUM_SECTIONS as u32 {
        return Err(fmt_err("unexpected section count"));
    }
    let fingerprint = get_u64(bytes, 40);

    let mut sections: [Range<usize>; NUM_SECTIONS] = Default::default();
    for (i, slot) in sections.iter_mut().enumerate() {
        let off = get_u64(bytes, 48 + i * 16);
        let len = get_u64(bytes, 48 + i * 16 + 8);
        let end = off
            .checked_add(len)
            .ok_or_else(|| fmt_err(format!("section {i} length overflows")))?;
        if end > bytes.len() as u64 {
            return Err(fmt_err(format!("section {i} extends past end of file")));
        }
        if len > 0 && !(off as usize).is_multiple_of(PAGE) {
            return Err(fmt_err(format!("section {i} is not page-aligned")));
        }
        *slot = off as usize..end as usize;
    }

    Ok(Header {
        directed: flags & 1 != 0,
        num_nodes: num_nodes as usize,
        num_edges: num_edges as usize,
        num_labels: num_labels as u16,
        fingerprint,
        sections,
    })
}

/// Check that an offsets/targets section pair has the sizes the header
/// implies: `n + 1` offsets whose last entry matches the target count.
fn check_csr_pair(
    bytes: &[u8],
    offsets: &Range<usize>,
    targets: &Range<usize>,
    n: usize,
    what: &str,
) -> Result<(), IoError> {
    if offsets.len() != (n + 1) * 4 {
        return Err(fmt_err(format!(
            "mis-sized section: {what} offsets hold {} bytes, expected {}",
            offsets.len(),
            (n + 1) * 4
        )));
    }
    let first = get_u32(bytes, offsets.start);
    if first != 0 {
        return Err(fmt_err(format!("{what} offsets do not start at 0")));
    }
    let last = get_u32(bytes, offsets.end - 4) as usize;
    if targets.len() != last * 4 {
        return Err(fmt_err(format!(
            "mis-sized section: {what} targets hold {} bytes, offsets imply {}",
            targets.len(),
            last * 4
        )));
    }
    Ok(())
}

fn open_buf(buf: MapBuf) -> Result<Graph, IoError> {
    let bytes = buf.as_slice();
    let h = parse_header(bytes)?;
    let n = h.num_nodes;
    let s = &h.sections;

    if s[SEC_LABELS].len() != n * 2 {
        return Err(fmt_err(format!(
            "mis-sized section: labels hold {} bytes, expected {}",
            s[SEC_LABELS].len(),
            n * 2
        )));
    }
    check_csr_pair(bytes, &s[SEC_UND_OFF], &s[SEC_UND_TGT], n, "undirected")?;
    if h.directed {
        check_csr_pair(bytes, &s[SEC_OUT_OFF], &s[SEC_OUT_TGT], n, "out")?;
        check_csr_pair(bytes, &s[SEC_IN_OFF], &s[SEC_IN_TGT], n, "in")?;
    } else {
        for i in [SEC_OUT_OFF, SEC_OUT_TGT, SEC_IN_OFF, SEC_IN_TGT] {
            if !s[i].is_empty() {
                return Err(fmt_err(
                    "directed sections present in an undirected graph file",
                ));
            }
        }
    }

    let (node_attrs, edge_attrs) =
        decode_attrs(&bytes[s[SEC_ATTRS].clone()], h.directed).map_err(fmt_err)?;

    let store = MmapStore {
        labels: s[SEC_LABELS].clone(),
        und_offsets: s[SEC_UND_OFF].clone(),
        und_targets: s[SEC_UND_TGT].clone(),
        out_offsets: s[SEC_OUT_OFF].clone(),
        out_targets: s[SEC_OUT_TGT].clone(),
        in_offsets: s[SEC_IN_OFF].clone(),
        in_targets: s[SEC_IN_TGT].clone(),
        buf,
    };
    Ok(Graph::from_parts(
        h.directed,
        h.num_labels,
        h.num_edges,
        StoreBackend::Mmap(Arc::new(store)),
        node_attrs,
        edge_attrs,
        h.fingerprint,
    ))
}

/// Open a binary graph file through the mmap backend.
///
/// Cost is O(header + attributes): adjacency pages fault in lazily as
/// the census touches them, and `MAP_SHARED` + `PROT_READ` means every
/// process serving the same file shares one physical copy. Falls back
/// to an aligned heap read where mmap is unavailable or fails.
pub fn open_binary(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    let path = path.as_ref();
    #[cfg(unix)]
    {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len <= usize::MAX as u64 {
            if let Ok(mapping) = Mapping::new(&file, len as usize) {
                return open_buf(MapBuf::Mmap(mapping));
            }
        }
        // mmap failed (e.g. a filesystem without mmap support): fall
        // through to the heap path below.
    }
    read_binary(path)
}

/// Read a binary graph file fully into (aligned) heap memory.
///
/// Same format checks as [`open_binary`] without the shared mapping —
/// useful when the file lives on a filesystem that does not support
/// mmap, and as the portable fallback.
pub fn read_binary(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    open_buf(MapBuf::read_from(path.as_ref())?)
}

// ---------------------------------------------------------------------------
// Attribute blob decoding

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("attribute blob truncated")?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "attribute string is not UTF-8".into())
    }

    fn value(&mut self) -> Result<AttrValue, String> {
        Ok(match self.u8()? {
            0 => AttrValue::Int(self.u64()? as i64),
            1 => AttrValue::Float(f64::from_bits(self.u64()?)),
            2 => AttrValue::Str(self.str()?),
            3 => AttrValue::Bool(self.u8()? != 0),
            tag => return Err(format!("unknown attribute value tag {tag}")),
        })
    }
}

fn decode_attrs(blob: &[u8], directed: bool) -> Result<(AttrStore, EdgeAttrStore), String> {
    let mut node_attrs = AttrStore::new();
    let mut edge_attrs = EdgeAttrStore::new(directed);
    if blob.is_empty() {
        return Ok((node_attrs, edge_attrs));
    }
    let mut c = Cursor { bytes: blob, at: 0 };

    let ncols = c.u32()?;
    for _ in 0..ncols {
        let name = c.str()?;
        let count = c.u32()?;
        for _ in 0..count {
            let node = NodeId(c.u32()?);
            let value = c.value()?;
            node_attrs.set(node, &name, value);
        }
    }
    let ecols = c.u32()?;
    for _ in 0..ecols {
        let name = c.str()?;
        let count = c.u32()?;
        for _ in 0..count {
            let a = NodeId(c.u32()?);
            let b = NodeId(c.u32()?);
            let value = c.value()?;
            edge_attrs.set(a, b, &name, value);
        }
    }
    if c.at != blob.len() {
        return Err("trailing bytes after attribute blob".into());
    }
    Ok((node_attrs, edge_attrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "egocensus_store_{}_{seq}_{tag}.egb",
            std::process::id()
        ))
    }

    fn sample() -> Graph {
        let mut b = GraphBuilder::undirected();
        let a = b.add_node(Label(1));
        let c = b.add_node(Label(0));
        let d = b.add_node(Label(2));
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.set_node_attr(a, "name", "alice in wonderland");
        b.set_node_attr(a, "age", 33i64);
        b.set_node_attr(d, "score", 1.5f64);
        b.set_node_attr(d, "vip", true);
        b.set_edge_attr(a, c, "w", 0.5f64);
        b.build()
    }

    fn to_bytes(g: &Graph) -> Vec<u8> {
        let mut out = Vec::new();
        write_binary(g, &mut out).unwrap();
        out
    }

    fn open_bytes(bytes: &[u8], tag: &str) -> Result<Graph, IoError> {
        let path = temp_path(tag);
        std::fs::write(&path, bytes).unwrap();
        let g = open_binary(&path);
        std::fs::remove_file(&path).ok();
        g
    }

    fn assert_graphs_equal(a: &Graph, b: &Graph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.is_directed(), b.is_directed());
        assert_eq!(a.num_labels(), b.num_labels());
        assert_eq!(a.fingerprint(), b.fingerprint());
        for n in a.node_ids() {
            assert_eq!(a.label(n), b.label(n));
            assert_eq!(a.neighbors(n), b.neighbors(n));
            if a.is_directed() {
                assert_eq!(a.out_neighbors(n), b.out_neighbors(n));
                assert_eq!(a.in_neighbors(n), b.in_neighbors(n));
            }
        }
        assert!(b.verify_fingerprint(), "content hash diverged from header");
    }

    #[test]
    fn binary_roundtrip_undirected_with_attrs() {
        let g = sample();
        let g2 = open_bytes(&to_bytes(&g), "rt_und").unwrap();
        assert_eq!(g2.storage_kind(), "mmap");
        assert_graphs_equal(&g, &g2);
        assert_eq!(
            g2.node_attr(NodeId(0), "name"),
            Some(&AttrValue::Str("alice in wonderland".into()))
        );
        assert_eq!(
            g2.edge_attr(NodeId(1), NodeId(0), "w"),
            Some(&AttrValue::Float(0.5))
        );
    }

    #[test]
    fn binary_roundtrip_directed() {
        let mut b = GraphBuilder::directed();
        b.add_nodes(4, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
        b.add_edge(NodeId(2), NodeId(0));
        b.add_edge(NodeId(3), NodeId(2));
        b.set_edge_attr(NodeId(2), NodeId(0), "w", 7i64);
        let g = b.build();
        let g2 = open_bytes(&to_bytes(&g), "rt_dir").unwrap();
        assert_graphs_equal(&g, &g2);
        assert_eq!(
            g2.edge_attr(NodeId(2), NodeId(0), "w"),
            Some(&AttrValue::Int(7))
        );
        assert_eq!(g2.edge_attr(NodeId(0), NodeId(2), "w"), None);
    }

    #[test]
    fn binary_roundtrip_empty_and_isolated() {
        let g = GraphBuilder::undirected().build();
        let g2 = open_bytes(&to_bytes(&g), "rt_empty").unwrap();
        assert_graphs_equal(&g, &g2);

        let mut b = GraphBuilder::undirected();
        b.add_nodes(5, Label(3));
        let g = b.build();
        let g2 = open_bytes(&to_bytes(&g), "rt_isolated").unwrap();
        assert_graphs_equal(&g, &g2);
    }

    #[test]
    fn read_binary_heap_fallback_matches_mmap() {
        let g = sample();
        let path = temp_path("heap");
        std::fs::write(&path, to_bytes(&g)).unwrap();
        let heap = read_binary(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_graphs_equal(&g, &heap);
    }

    #[test]
    fn writing_is_deterministic() {
        let a = to_bytes(&sample());
        let b = to_bytes(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_truncated_header() {
        let bytes = to_bytes(&sample());
        let err = open_bytes(&bytes[..10], "trunc").unwrap_err();
        assert!(err.to_string().contains("too small"), "{err}");
    }

    #[test]
    fn malformed_bad_magic() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        let err = open_bytes(&bytes, "magic").unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn malformed_bad_version() {
        let mut bytes = to_bytes(&sample());
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        let err = open_bytes(&bytes, "version").unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn malformed_missized_section() {
        // Shrink the labels section length in the table.
        let mut bytes = to_bytes(&sample());
        let len_at = 48 + SEC_LABELS * 16 + 8;
        bytes[len_at..len_at + 8].copy_from_slice(&2u64.to_le_bytes());
        let err = open_bytes(&bytes, "missized").unwrap_err();
        assert!(err.to_string().contains("mis-sized"), "{err}");
    }

    #[test]
    fn malformed_targets_disagree_with_offsets() {
        // Claim one fewer undirected-target byte row than offsets imply.
        let mut bytes = to_bytes(&sample());
        let len_at = 48 + SEC_UND_TGT * 16 + 8;
        let old = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
        bytes[len_at..len_at + 8].copy_from_slice(&(old - 4).to_le_bytes());
        let err = open_bytes(&bytes, "tgt").unwrap_err();
        assert!(err.to_string().contains("mis-sized"), "{err}");
    }

    #[test]
    fn malformed_section_past_eof() {
        let mut bytes = to_bytes(&sample());
        let off_at = 48 + SEC_ATTRS * 16;
        bytes[off_at..off_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = open_bytes(&bytes, "eof").unwrap_err();
        assert!(err.to_string().contains("past end"), "{err}");
    }

    #[test]
    fn malformed_unaligned_section() {
        let mut bytes = to_bytes(&sample());
        let off_at = 48 + SEC_UND_OFF * 16;
        let old = u64::from_le_bytes(bytes[off_at..off_at + 8].try_into().unwrap());
        bytes[off_at..off_at + 8].copy_from_slice(&(old + 2).to_le_bytes());
        let err = open_bytes(&bytes, "align").unwrap_err();
        assert!(err.to_string().contains("page-aligned"), "{err}");
    }

    #[test]
    fn malformed_attr_blob() {
        let g = sample();
        let mut bytes = to_bytes(&g);
        // Corrupt the first attribute column's entry count to a huge value.
        let attrs_off = u64::from_le_bytes(
            bytes[48 + SEC_ATTRS * 16..48 + SEC_ATTRS * 16 + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        bytes[attrs_off..attrs_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = open_bytes(&bytes, "attrs").unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn tampered_adjacency_fails_fingerprint_verification() {
        let g = sample();
        let mut bytes = to_bytes(&g);
        let tgt_off = u64::from_le_bytes(
            bytes[48 + SEC_UND_TGT * 16..48 + SEC_UND_TGT * 16 + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        // Swap a neighbor id without touching the header fingerprint.
        bytes[tgt_off] ^= 1;
        let g2 = open_bytes(&bytes, "tamper").unwrap();
        assert!(!g2.verify_fingerprint());
    }
}
