//! Pluggable graph storage: the [`GraphStore`] trait and its three backends.
//!
//! Every consumer of adjacency in this workspace — the seed builder's
//! two-hop ball collection, the reduce passes, the verification oracles —
//! reads graphs through a narrow row-access surface: vertex/edge counts,
//! degrees, one sorted neighbour row at a time, adjacency tests, and the
//! degeneracy ordering derived from them. [`GraphStore`] names exactly that
//! surface so the storage representation can vary independently of the
//! enumeration kernel:
//!
//! * [`CsrStore`] — today's in-RAM [`CsrGraph`], unchanged: zero-copy rows,
//!   binary-search adjacency. The fastest backend and the default.
//! * [`CompressedStore`] — gap/varint–encoded adjacency rows that decode
//!   into a caller-provided scratch buffer. Rows cost a decode per access,
//!   but the seed builder reads each raw row at most a few times per seed
//!   and works on its local matrix after that, so the decode tax is paid
//!   per seed, not per fixpoint round.
//! * [`MmapStore`] — the on-disk `.kpx` format (written by `kplex convert`)
//!   memory-mapped read-only, so a server can own graphs larger than its
//!   RAM budget; rows are zero-copy out of the page cache.
//!
//! [`StoreBackend`] is the concrete enum the pipeline threads through
//! `Prepared` and the service cache: it records *which* backend a graph is
//! resident as (and therefore its resident byte footprint, see
//! [`GraphStore::resident_bytes`]).
//!
//! ## The `.kpx` on-disk format
//!
//! Little-endian, three sections, each page-aligned so the mapped file can
//! be reinterpreted in place:
//!
//! ```text
//! offset 0    header (64 bytes):
//!             magic "KPXGRPH1" · version u32 · reserved u32 ·
//!             n u64 · m2 u64 (directed edge count = 2m) ·
//!             index_off u64 · edges_off u64 · file_len u64 · reserved u64
//! index_off   row index: (n+1) × u64 — *edge counts*, not byte offsets;
//!             index[0] = 0, non-decreasing, index[n] = m2
//! edges_off   edge array: m2 × u32 — row v is edges[index[v]..index[v+1]],
//!             strictly sorted (a format invariant, inherited from the
//!             writer's CSR input and trusted rather than re-scanned)
//! ```
//!
//! `index_off` and `edges_off` are 4096-byte aligned; combined with the
//! page alignment of `mmap` itself this guarantees the u64/u32 views are
//! correctly aligned. Open-time validation is O(n): magic, version,
//! overflow-checked section layout (the header's `n`/`m2` are untrusted),
//! section offsets, exact file length, and row-index monotonicity; a torn,
//! truncated, or absurd file fails loudly with [`GraphError::BinaryFormat`].

use crate::coreness::CoreDecomposition;
use crate::csr::{CsrGraph, VertexId};
use crate::error::GraphError;
use std::path::Path;
use std::sync::Arc;

/// The row-access surface shared by every graph backend.
///
/// `Send + Sync` is a supertrait because prepared graphs are shared across
/// the parallel engine's workers behind an `Arc`.
pub trait GraphStore: Send + Sync {
    /// Number of vertices (ids are dense `0..n`).
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges.
    fn num_edges(&self) -> usize;

    /// Degree of `v`, without materialising the row.
    fn degree(&self, v: VertexId) -> usize;

    /// The sorted neighbour row of `v`.
    ///
    /// Backends that hold rows uncompressed (CSR, mmap) return them
    /// zero-copy and leave `scratch` untouched; compressed backends decode
    /// into `scratch` and return a view of it. Callers that need two rows
    /// alive at once pass two scratch buffers.
    fn row<'a>(&'a self, v: VertexId, scratch: &'a mut Vec<VertexId>) -> &'a [VertexId];

    /// Adjacency test.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool;

    /// Which backend this is (drives cache accounting and `STATS`).
    fn kind(&self) -> StoreKind;

    /// Heap/RAM bytes this graph keeps resident. A mapped store answers
    /// near zero: its pages live in the kernel page cache, reclaimable
    /// under memory pressure, not in the process heap.
    fn resident_bytes(&self) -> usize;

    /// Degeneracy-order iteration: peels the graph and returns the full
    /// core decomposition (ordering η, core numbers, degeneracy).
    fn degeneracy_order(&self) -> CoreDecomposition {
        crate::coreness::core_decomposition(self)
    }
}

/// The backend selector, as it appears on command lines (`--store`) and on
/// the wire (`SUBMIT store=`, `STATS store=`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StoreKind {
    /// In-RAM CSR ([`CsrStore`]): fastest, largest footprint.
    Csr,
    /// Gap/varint compressed rows ([`CompressedStore`]).
    Compressed,
    /// Memory-mapped `.kpx` file ([`MmapStore`]): out-of-core.
    Mmap,
}

impl StoreKind {
    /// Parses the command-line/wire spelling (`csr|compressed|mmap`).
    pub fn parse(s: &str) -> Option<StoreKind> {
        match s {
            "csr" => Some(StoreKind::Csr),
            "compressed" => Some(StoreKind::Compressed),
            "mmap" => Some(StoreKind::Mmap),
            _ => None,
        }
    }

    /// The canonical spelling, inverse of [`StoreKind::parse`].
    pub fn label(self) -> &'static str {
        match self {
            StoreKind::Csr => "csr",
            StoreKind::Compressed => "compressed",
            StoreKind::Mmap => "mmap",
        }
    }

    /// The kind a *derived* in-RAM graph (e.g. the `(q-k)`-core reduction
    /// of the input) is kept as. A reduction of a mapped graph has no
    /// backing file, so it is kept compressed: the raw input stays
    /// out-of-core and the much smaller working set pays only the varint
    /// decode tax.
    pub fn resident(self) -> StoreKind {
        match self {
            StoreKind::Csr => StoreKind::Csr,
            StoreKind::Compressed | StoreKind::Mmap => StoreKind::Compressed,
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl GraphStore for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    fn row<'a>(&'a self, v: VertexId, _scratch: &'a mut Vec<VertexId>) -> &'a [VertexId] {
        self.neighbors(v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Csr
    }

    fn resident_bytes(&self) -> usize {
        // offsets: (n+1) × usize, edges: 2m × u32.
        (self.num_vertices() + 1) * std::mem::size_of::<usize>()
            + 2 * self.num_edges() * std::mem::size_of::<VertexId>()
    }
}

/// The in-RAM CSR backend: a thin owner of a [`CsrGraph`].
#[derive(Clone, Debug)]
pub struct CsrStore {
    graph: CsrGraph,
}

impl CsrStore {
    /// Wraps an existing graph without copying it.
    pub fn new(graph: CsrGraph) -> Self {
        Self { graph }
    }

    /// Borrows the underlying CSR graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Unwraps back into the underlying CSR graph.
    pub fn into_graph(self) -> CsrGraph {
        self.graph
    }
}

impl GraphStore for CsrStore {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.graph.degree(v)
    }

    fn row<'a>(&'a self, v: VertexId, _scratch: &'a mut Vec<VertexId>) -> &'a [VertexId] {
        self.graph.neighbors(v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.graph.has_edge(u, v)
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Csr
    }

    fn resident_bytes(&self) -> usize {
        GraphStore::resident_bytes(&self.graph)
    }
}

// --- varint-compressed rows --------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut x: u32) {
    while x >= 0x80 {
        buf.push((x as u8) | 0x80);
        x >>= 7;
    }
    buf.push(x as u8);
}

#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut x = 0u32;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        x |= u32::from(b & 0x7f) << shift;
        if b < 0x80 {
            return x;
        }
        shift += 7;
    }
}

/// Gap/varint-compressed adjacency: each row stores its first neighbour as
/// a varint and every later neighbour as the varint gap to its predecessor
/// (rows are strictly sorted, so gaps are ≥ 1 and small on clustered
/// graphs). Degrees are kept uncompressed so [`GraphStore::degree`] stays
/// O(1).
#[derive(Clone)]
pub struct CompressedStore {
    deg: Vec<u32>,
    /// Byte offset of each row's encoding in `bytes` (length n+1).
    offsets: Vec<usize>,
    bytes: Vec<u8>,
    m2: usize,
}

impl std::fmt::Debug for CompressedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedStore")
            .field("n", &self.deg.len())
            .field("m2", &self.m2)
            .field("encoded_bytes", &self.bytes.len())
            .finish()
    }
}

impl CompressedStore {
    /// Compresses every row of `g`.
    pub fn from_graph(g: &CsrGraph) -> Self {
        let mut b = CompressedBuilder::new();
        for v in g.vertices() {
            b.push_row(g.neighbors(v));
        }
        b.finish()
    }
}

impl GraphStore for CompressedStore {
    fn num_vertices(&self) -> usize {
        self.deg.len()
    }

    fn num_edges(&self) -> usize {
        self.m2 / 2
    }

    fn degree(&self, v: VertexId) -> usize {
        self.deg[v as usize] as usize
    }

    fn row<'a>(&'a self, v: VertexId, scratch: &'a mut Vec<VertexId>) -> &'a [VertexId] {
        scratch.clear();
        let mut pos = self.offsets[v as usize];
        let mut acc = 0u32;
        for i in 0..self.deg[v as usize] {
            let delta = get_varint(&self.bytes, &mut pos);
            acc = if i == 0 { delta } else { acc + delta };
            scratch.push(acc);
        }
        scratch.as_slice()
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Walk the shorter row's varints in place; sortedness gives an
        // early exit without allocating or decoding the full row.
        let (a, b) = if self.deg[u as usize] <= self.deg[v as usize] {
            (u, v)
        } else {
            (v, u)
        };
        let mut pos = self.offsets[a as usize];
        let mut acc = 0u32;
        for i in 0..self.deg[a as usize] {
            let delta = get_varint(&self.bytes, &mut pos);
            acc = if i == 0 { delta } else { acc + delta };
            if acc >= b {
                return acc == b;
            }
        }
        false
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Compressed
    }

    fn resident_bytes(&self) -> usize {
        self.deg.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.bytes.len()
    }
}

/// Streaming builder for [`CompressedStore`]: rows are fed once, in vertex
/// order, and encoded immediately — reductions use this to avoid ever
/// materialising a full uncompressed copy of their output.
#[derive(Debug, Default)]
pub struct CompressedBuilder {
    deg: Vec<u32>,
    offsets: Vec<usize>,
    bytes: Vec<u8>,
    m2: usize,
}

impl CompressedBuilder {
    /// An empty builder; rows are appended with [`CompressedBuilder::push_row`].
    pub fn new() -> Self {
        Self {
            deg: Vec::new(),
            offsets: vec![0],
            bytes: Vec::new(),
            m2: 0,
        }
    }

    /// Appends the (strictly sorted) neighbour row of the next vertex.
    pub fn push_row(&mut self, row: &[VertexId]) {
        debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row must be sorted");
        let mut prev = 0u32;
        for (i, &w) in row.iter().enumerate() {
            put_varint(&mut self.bytes, if i == 0 { w } else { w - prev });
            prev = w;
        }
        self.deg.push(row.len() as u32);
        self.offsets.push(self.bytes.len());
        self.m2 += row.len();
    }

    /// Finalises the store.
    pub fn finish(self) -> CompressedStore {
        CompressedStore {
            deg: self.deg,
            offsets: self.offsets,
            bytes: self.bytes,
            m2: self.m2,
        }
    }
}

// --- the .kpx on-disk format and its mapped reader ---------------------------

const KPX_MAGIC: &[u8; 8] = b"KPXGRPH1";
const KPX_VERSION: u32 = 1;
const KPX_HEADER_LEN: usize = 64;
const KPX_ALIGN: usize = 4096;

fn align_up(x: usize, a: usize) -> Option<usize> {
    Some(x.checked_add(a - 1)? / a * a)
}

/// Section offsets and exact file length of a `.kpx` holding `n` vertices
/// and `m2` directed edges. `None` if any quantity overflows `usize` or the
/// file would exceed `isize::MAX` (the slice-length ceiling): `n`/`m2` come
/// straight from an untrusted header in [`MmapStore::open`], and release
/// builds wrap on overflow, so unchecked math here would let a crafted
/// header wrap past the length validation and read out of bounds.
fn kpx_layout(n: usize, m2: usize) -> Option<(usize, usize, usize)> {
    let index_off = KPX_ALIGN; // the 64-byte header gets a full page
    let index_bytes = n.checked_add(1)?.checked_mul(8)?;
    let edges_off = align_up(index_off.checked_add(index_bytes)?, KPX_ALIGN)?;
    let file_len = edges_off.checked_add(m2.checked_mul(4)?)?;
    if file_len > isize::MAX as usize {
        return None;
    }
    Some((index_off, edges_off, file_len))
}

fn write_zeros(w: &mut impl std::io::Write, mut n: usize) -> std::io::Result<()> {
    const ZEROS: [u8; KPX_ALIGN] = [0u8; KPX_ALIGN];
    while n > 0 {
        let take = n.min(ZEROS.len());
        w.write_all(&ZEROS[..take])?;
        n -= take;
    }
    Ok(())
}

/// Serialises `g` into the `.kpx` mapped format (see the module docs) and
/// writes it to `path` atomically: the sections are streamed through a
/// buffered writer into a temp file (never materialising the file image in
/// RAM — the point of the mapped backend is graphs near the RAM budget),
/// fsync'd, and renamed into place so a crash leaves either the old file or
/// the new one, not a torn hybrid.
pub fn write_kpx(g: &CsrGraph, path: impl AsRef<Path>) -> Result<(), GraphError> {
    use std::io::Write;
    let path = path.as_ref();
    let n = g.num_vertices();
    let m2 = 2 * g.num_edges();
    let (index_off, edges_off, file_len) =
        kpx_layout(n, m2).ok_or_else(|| corrupt("graph too large for the .kpx format"))?;
    let tmp = path.with_extension("kpx.tmp");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    let mut header = [0u8; KPX_HEADER_LEN];
    header[..8].copy_from_slice(KPX_MAGIC);
    header[8..12].copy_from_slice(&KPX_VERSION.to_le_bytes());
    header[16..24].copy_from_slice(&(n as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(m2 as u64).to_le_bytes());
    header[32..40].copy_from_slice(&(index_off as u64).to_le_bytes());
    header[40..48].copy_from_slice(&(edges_off as u64).to_le_bytes());
    header[48..56].copy_from_slice(&(file_len as u64).to_le_bytes());
    w.write_all(&header)?;
    write_zeros(&mut w, index_off - KPX_HEADER_LEN)?;
    let mut acc = 0u64;
    w.write_all(&acc.to_le_bytes())?;
    for v in g.vertices() {
        acc += g.degree(v) as u64;
        w.write_all(&acc.to_le_bytes())?;
    }
    write_zeros(&mut w, edges_off - (index_off + 8 * (n + 1)))?;
    for v in g.vertices() {
        for &x in g.neighbors(v) {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    let file = w.into_inner().map_err(|e| e.into_error())?;
    // Durability before the rename: without it, a crash after the rename
    // can leave an empty/partial destination on journaled filesystems,
    // destroying a previously valid file.
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // Best-effort fsync of the directory so the rename itself is durable;
    // some platforms/filesystems cannot open a directory, which is fine.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        }) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// A read-only memory mapping of a whole file, unmapped on drop. Only ever
/// constructed for `PROT_READ`/`MAP_PRIVATE` mappings of immutable files.
struct MapHandle {
    ptr: *const u8,
    len: usize,
}

// Safety: the mapping is read-only and private; concurrent reads from any
// thread are fine, and the pointer is owned exclusively by this handle.
unsafe impl Send for MapHandle {}
unsafe impl Sync for MapHandle {}

impl Drop for MapHandle {
    fn drop(&mut self) {
        // Safety: `ptr`/`len` came from a successful mmap of exactly `len`
        // bytes and nothing else unmaps them.
        unsafe { sys::unmap(self.ptr, self.len) };
    }
}

/// Raw-syscall `mmap`/`munmap` for the mapped backend. The workspace links
/// no libc, so the two syscalls are issued directly; other platforms fall
/// back to reading the file into RAM (see [`Backing::Owned`]).
#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            in("r9") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a0 => ret,
            in("x1") a1,
            in("x2") a2,
            in("x3") a3,
            in("x4") a4,
            in("x5") a5,
            options(nostack),
        );
        ret
    }

    /// Maps `len` bytes of `file` read-only; `None` on any failure (the
    /// caller then falls back to reading the file).
    pub(super) fn map_file(file: &std::fs::File, len: usize) -> Option<*const u8> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        // Safety: all-zero addr asks the kernel to pick; the fd is open for
        // reading and outlives the call; errors come back as -errno.
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd() as usize,
                0,
            )
        };
        if ret < 0 {
            None
        } else {
            Some(ret as *const u8)
        }
    }

    /// Unmaps a mapping produced by [`map_file`].
    pub(super) unsafe fn unmap(ptr: *const u8, len: usize) {
        let _ = syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0);
    }
}

/// Fallback stubs when raw mmap is unavailable: mapping always "fails", so
/// [`MmapStore::open`] takes the read-into-RAM path and [`MapHandle`] is
/// never constructed.
#[cfg(not(all(
    target_os = "linux",
    target_endian = "little",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub(super) fn map_file(_file: &std::fs::File, _len: usize) -> Option<*const u8> {
        None
    }

    pub(super) unsafe fn unmap(_ptr: *const u8, _len: usize) {}
}

/// How an opened `.kpx` file is held.
enum Backing {
    /// Memory-mapped in place; the index/edge views reinterpret the mapped
    /// bytes (sections are page-aligned, the format is little-endian, and
    /// this variant is only built on little-endian Linux).
    Mapped(Arc<MapHandle>),
    /// Decoded into RAM: the portable fallback when mapping is unavailable.
    Owned {
        index: Vec<u64>,
        edges: Vec<VertexId>,
    },
}

impl Clone for Backing {
    fn clone(&self) -> Self {
        match self {
            Backing::Mapped(m) => Backing::Mapped(m.clone()),
            Backing::Owned { index, edges } => Backing::Owned {
                index: index.clone(),
                edges: edges.clone(),
            },
        }
    }
}

/// The out-of-core backend: a `.kpx` file opened read-only, memory-mapped
/// where the platform allows (falling back to an in-RAM copy elsewhere).
#[derive(Clone)]
pub struct MmapStore {
    n: usize,
    m2: usize,
    index_off: usize,
    edges_off: usize,
    backing: Backing,
}

impl std::fmt::Debug for MmapStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapStore")
            .field("n", &self.n)
            .field("m2", &self.m2)
            .field("mapped", &matches!(self.backing, Backing::Mapped(_)))
            .finish()
    }
}

fn corrupt(msg: impl Into<String>) -> GraphError {
    GraphError::BinaryFormat(msg.into())
}

impl MmapStore {
    /// Opens and validates a `.kpx` file (see the module docs for the
    /// format and what open-time validation covers). Rejects torn or
    /// truncated files by exact length and row-index checks.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapStore, GraphError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)?;
        let actual_len = file.metadata()?.len();
        if actual_len < KPX_HEADER_LEN as u64 {
            return Err(corrupt("file shorter than the .kpx header"));
        }
        let mut header = [0u8; KPX_HEADER_LEN];
        {
            use std::io::Read;
            (&file).read_exact(&mut header)?;
        }
        if &header[..8] != KPX_MAGIC {
            return Err(corrupt("bad .kpx magic"));
        }
        let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4"));
        let u64_at = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8"));
        if u32_at(8) != KPX_VERSION {
            return Err(corrupt(format!("unsupported .kpx version {}", u32_at(8))));
        }
        let n = usize::try_from(u64_at(16)).map_err(|_| corrupt("n overflows usize"))?;
        let m2 = usize::try_from(u64_at(24)).map_err(|_| corrupt("m2 overflows usize"))?;
        if m2 % 2 != 0 {
            return Err(corrupt("odd directed edge count"));
        }
        let (index_off, edges_off, file_len) =
            kpx_layout(n, m2).ok_or_else(|| corrupt("n/m2 overflow the .kpx layout"))?;
        if u64_at(32) != index_off as u64
            || u64_at(40) != edges_off as u64
            || u64_at(48) != file_len as u64
        {
            return Err(corrupt("section offsets disagree with n/m2"));
        }
        if actual_len != file_len as u64 {
            return Err(corrupt(format!(
                "torn .kpx: header says {file_len} bytes, file has {actual_len}"
            )));
        }
        let backing = match sys::map_file(&file, file_len) {
            Some(ptr) => Backing::Mapped(Arc::new(MapHandle { ptr, len: file_len })),
            None => {
                let data = std::fs::read(path)?;
                if data.len() != file_len {
                    return Err(corrupt("file changed while opening"));
                }
                let index = (0..=n)
                    .map(|i| {
                        let at = index_off + 8 * i;
                        u64::from_le_bytes(data[at..at + 8].try_into().expect("8"))
                    })
                    .collect();
                let edges = (0..m2)
                    .map(|i| {
                        let at = edges_off + 4 * i;
                        u32::from_le_bytes(data[at..at + 4].try_into().expect("4"))
                    })
                    .collect();
                Backing::Owned { index, edges }
            }
        };
        let store = MmapStore {
            n,
            m2,
            index_off,
            edges_off,
            backing,
        };
        // Row-index sanity: O(n), touches only the index pages. Row
        // sortedness and endpoint ranges are format invariants of the
        // writer, deliberately not re-scanned (that would touch all O(m)
        // edge pages and defeat lazy paging).
        let index = store.index();
        if index[0] != 0 || index[n] != m2 as u64 {
            return Err(corrupt("row index bounds"));
        }
        if index.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("row index not monotone"));
        }
        Ok(store)
    }

    fn index(&self) -> &[u64] {
        match &self.backing {
            // Safety: the section is within the mapping (validated against
            // the file length), 4096-aligned on a page-aligned base, and
            // the mapped variant only exists on little-endian targets.
            Backing::Mapped(m) => unsafe {
                std::slice::from_raw_parts(m.ptr.add(self.index_off) as *const u64, self.n + 1)
            },
            Backing::Owned { index, .. } => index,
        }
    }

    fn edge_array(&self) -> &[VertexId] {
        match &self.backing {
            // Safety: as for `index` — in-bounds, aligned, little-endian.
            Backing::Mapped(m) => unsafe {
                std::slice::from_raw_parts(m.ptr.add(self.edges_off) as *const VertexId, self.m2)
            },
            Backing::Owned { edges, .. } => edges,
        }
    }
}

impl GraphStore for MmapStore {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.m2 / 2
    }

    fn degree(&self, v: VertexId) -> usize {
        let index = self.index();
        (index[v as usize + 1] - index[v as usize]) as usize
    }

    fn row<'a>(&'a self, v: VertexId, _scratch: &'a mut Vec<VertexId>) -> &'a [VertexId] {
        let index = self.index();
        &self.edge_array()[index[v as usize] as usize..index[v as usize + 1] as usize]
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let mut scratch = Vec::new();
        self.row(a, &mut scratch).binary_search(&b).is_ok()
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Mmap
    }

    fn resident_bytes(&self) -> usize {
        match &self.backing {
            // Mapped pages belong to the kernel page cache, not this
            // process's heap budget.
            Backing::Mapped(_) => 0,
            Backing::Owned { index, edges } => index.len() * 8 + edges.len() * 4,
        }
    }
}

// --- the backend enum ---------------------------------------------------------

/// A graph resident as one of the three backends. This is the concrete
/// type `Prepared` and the service cache hold, so every cached graph knows
/// its own backend and resident footprint.
#[derive(Clone, Debug)]
pub enum StoreBackend {
    /// In-RAM CSR.
    Csr(CsrStore),
    /// Varint-compressed rows.
    Compressed(CompressedStore),
    /// Mapped `.kpx` file.
    Mmap(MmapStore),
}

impl StoreBackend {
    /// Wraps a freshly built graph as the *resident* form of `kind` (see
    /// [`StoreKind::resident`]: `Mmap` inputs keep derived graphs
    /// compressed, since a derived graph has no backing file).
    pub fn from_graph(graph: CsrGraph, kind: StoreKind) -> StoreBackend {
        match kind.resident() {
            StoreKind::Csr => StoreBackend::Csr(CsrStore::new(graph)),
            _ => StoreBackend::Compressed(CompressedStore::from_graph(&graph)),
        }
    }

    /// Opens a `.kpx` file as a mapped backend.
    pub fn open_mmap(path: impl AsRef<Path>) -> Result<StoreBackend, GraphError> {
        Ok(StoreBackend::Mmap(MmapStore::open(path)?))
    }

    /// The underlying CSR graph, when this backend is CSR.
    pub fn as_csr(&self) -> Option<&CsrGraph> {
        match self {
            StoreBackend::Csr(s) => Some(s.graph()),
            _ => None,
        }
    }
}

impl GraphStore for StoreBackend {
    fn num_vertices(&self) -> usize {
        match self {
            StoreBackend::Csr(s) => s.num_vertices(),
            StoreBackend::Compressed(s) => s.num_vertices(),
            StoreBackend::Mmap(s) => s.num_vertices(),
        }
    }

    fn num_edges(&self) -> usize {
        match self {
            StoreBackend::Csr(s) => s.num_edges(),
            StoreBackend::Compressed(s) => s.num_edges(),
            StoreBackend::Mmap(s) => s.num_edges(),
        }
    }

    fn degree(&self, v: VertexId) -> usize {
        match self {
            StoreBackend::Csr(s) => s.degree(v),
            StoreBackend::Compressed(s) => s.degree(v),
            StoreBackend::Mmap(s) => s.degree(v),
        }
    }

    fn row<'a>(&'a self, v: VertexId, scratch: &'a mut Vec<VertexId>) -> &'a [VertexId] {
        match self {
            StoreBackend::Csr(s) => s.row(v, scratch),
            StoreBackend::Compressed(s) => s.row(v, scratch),
            StoreBackend::Mmap(s) => s.row(v, scratch),
        }
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self {
            StoreBackend::Csr(s) => s.has_edge(u, v),
            StoreBackend::Compressed(s) => s.has_edge(u, v),
            StoreBackend::Mmap(s) => s.has_edge(u, v),
        }
    }

    fn kind(&self) -> StoreKind {
        match self {
            StoreBackend::Csr(s) => s.kind(),
            StoreBackend::Compressed(s) => s.kind(),
            StoreBackend::Mmap(s) => s.kind(),
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            StoreBackend::Csr(s) => s.resident_bytes(),
            StoreBackend::Compressed(s) => s.resident_bytes(),
            StoreBackend::Mmap(s) => s.resident_bytes(),
        }
    }
}

/// Extracts the `k`-core of any store as a renumbered backend of
/// `kind.resident()` form, plus the `new id -> old id` mapping (ascending,
/// like [`crate::kcore_subgraph`]).
///
/// Rows are filtered, remapped and re-encoded one at a time, so the peak
/// transient is one row — an uncompressed copy of the reduced graph is
/// never materialised when the target form is compressed. That is what
/// keeps an out-of-core prepare's RAM footprint at the *reduced* working
/// set, not the input size.
pub fn kcore_backend<G: GraphStore + ?Sized>(
    g: &G,
    k: u32,
    kind: StoreKind,
) -> (StoreBackend, Vec<VertexId>) {
    let keep = crate::coreness::kcore_vertices(g, k);
    let mut remap = vec![u32::MAX; g.num_vertices()];
    for (new, &old) in keep.iter().enumerate() {
        remap[old as usize] = new as u32;
    }
    let mut scratch = Vec::new();
    let mut filtered: Vec<VertexId> = Vec::new();
    // `keep` is ascending and so is each row, so the filtered+remapped row
    // stays strictly sorted (the remap is monotone on kept vertices).
    match kind.resident() {
        StoreKind::Csr => {
            let mut offsets = Vec::with_capacity(keep.len() + 1);
            let mut edges = Vec::new();
            offsets.push(0usize);
            for &old in &keep {
                for &w in g.row(old, &mut scratch) {
                    let nw = remap[w as usize];
                    if nw != u32::MAX {
                        edges.push(nw);
                    }
                }
                offsets.push(edges.len());
            }
            let graph = CsrGraph::from_parts(offsets, edges);
            (StoreBackend::Csr(CsrStore::new(graph)), keep)
        }
        _ => {
            let mut b = CompressedBuilder::new();
            for &old in &keep {
                filtered.clear();
                filtered.extend(
                    g.row(old, &mut scratch)
                        .iter()
                        .map(|&w| remap[w as usize])
                        .filter(|&nw| nw != u32::MAX),
                );
                b.push_row(&filtered);
            }
            (StoreBackend::Compressed(b.finish()), keep)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kplex-store-{}-{tag}.kpx", std::process::id()))
    }

    fn rows_of<G: GraphStore>(s: &G) -> Vec<Vec<VertexId>> {
        let mut scratch = Vec::new();
        (0..s.num_vertices() as VertexId)
            .map(|v| s.row(v, &mut scratch).to_vec())
            .collect()
    }

    #[test]
    fn varint_roundtrip_edges() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 300, u32::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn store_kind_parse_label_roundtrip() {
        for kind in [StoreKind::Csr, StoreKind::Compressed, StoreKind::Mmap] {
            assert_eq!(StoreKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(StoreKind::parse("ram"), None);
        assert_eq!(StoreKind::Mmap.resident(), StoreKind::Compressed);
        assert_eq!(StoreKind::Csr.resident(), StoreKind::Csr);
    }

    #[test]
    fn compressed_store_matches_csr() {
        let g = gen::powerlaw_cluster(300, 4, 0.4, 11);
        let c = CompressedStore::from_graph(&g);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(rows_of(&c), rows_of(&g));
        for v in g.vertices() {
            assert_eq!(GraphStore::degree(&c, v), g.degree(v));
        }
        for u in g.vertices().step_by(7) {
            for v in g.vertices().step_by(5) {
                assert_eq!(GraphStore::has_edge(&c, u, v), g.has_edge(u, v));
            }
        }
        assert!(
            GraphStore::resident_bytes(&c) < GraphStore::resident_bytes(&g),
            "varint rows should be smaller than CSR ({} vs {})",
            GraphStore::resident_bytes(&c),
            GraphStore::resident_bytes(&g)
        );
    }

    #[test]
    fn kpx_roundtrip_via_mmap() {
        let g = gen::barabasi_albert(200, 3, 5);
        let path = tmp_path("roundtrip");
        write_kpx(&g, &path).unwrap();
        let m = MmapStore::open(&path).unwrap();
        assert_eq!(m.num_vertices(), g.num_vertices());
        assert_eq!(m.num_edges(), g.num_edges());
        assert_eq!(rows_of(&m), rows_of(&g));
        for u in g.vertices().step_by(3) {
            for v in g.vertices().step_by(11) {
                assert_eq!(GraphStore::has_edge(&m, u, v), g.has_edge(u, v));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_store_is_not_resident() {
        // Only meaningful where the raw-mmap path exists; elsewhere the
        // owned fallback legitimately reports its full footprint.
        let g = gen::gnm(100, 400, 3);
        let path = tmp_path("resident");
        write_kpx(&g, &path).unwrap();
        let m = MmapStore::open(&path).unwrap();
        if matches!(m.backing, Backing::Mapped(_)) {
            assert_eq!(GraphStore::resident_bytes(&m), 0);
        } else {
            assert!(GraphStore::resident_bytes(&m) > 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_kpx_files_are_rejected() {
        let g = gen::gnm(60, 200, 9);
        let path = tmp_path("torn");
        write_kpx(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Truncated mid-edge-array: length check trips.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert!(MmapStore::open(&path).is_err());

        // Truncated inside the header.
        std::fs::write(&path, &full[..32]).unwrap();
        assert!(MmapStore::open(&path).is_err());

        // Wrong magic.
        let mut bad = full.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(MmapStore::open(&path).is_err());

        // Non-monotone row index.
        let mut bad = full.clone();
        let at = KPX_ALIGN + 8; // index[1]
        bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(MmapStore::open(&path).is_err());

        // The pristine bytes still open fine.
        std::fs::write(&path, &full).unwrap();
        assert!(MmapStore::open(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflowing_header_fields_are_rejected() {
        // A crafted header whose n makes 8*(n+1) wrap in release builds:
        // n = 2^61 gives 8*(n+1) = 2^64 + 8 ≡ 8, so unchecked layout math
        // would compute a tiny file_len that the crafted offsets and file
        // length match exactly — and index() would then build a slice of
        // 2^61 + 1 u64s over a one-page mapping. The checked layout must
        // reject this before any slice is constructed.
        let path = tmp_path("overflow");
        let n: u64 = 1 << 61;
        let wrapped_edges_off = 2 * KPX_ALIGN as u64; // align_up(4096 + 8)
        let mut buf = vec![0u8; wrapped_edges_off as usize]; // m2 = 0
        buf[..8].copy_from_slice(KPX_MAGIC);
        buf[8..12].copy_from_slice(&KPX_VERSION.to_le_bytes());
        buf[16..24].copy_from_slice(&n.to_le_bytes());
        buf[24..32].copy_from_slice(&0u64.to_le_bytes());
        buf[32..40].copy_from_slice(&(KPX_ALIGN as u64).to_le_bytes());
        buf[40..48].copy_from_slice(&wrapped_edges_off.to_le_bytes());
        buf[48..56].copy_from_slice(&wrapped_edges_off.to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        assert!(MmapStore::open(&path).is_err());

        // Same, with m2 chosen so 4*m2 wraps instead.
        let m2: u64 = 1 << 62;
        buf[16..24].copy_from_slice(&4u64.to_le_bytes()); // n = 4
        buf[24..32].copy_from_slice(&m2.to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        assert!(MmapStore::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kpx_layout_overflow_returns_none() {
        assert!(kpx_layout(usize::MAX, 0).is_none());
        assert!(kpx_layout(usize::MAX / 8, 0).is_none());
        assert!(kpx_layout(0, usize::MAX / 2).is_none());
        assert!(kpx_layout(200, 4000).is_some());
    }

    #[test]
    fn empty_graph_kpx_roundtrip() {
        let g = CsrGraph::from_edges(0, []).unwrap();
        let path = tmp_path("empty");
        write_kpx(&g, &path).unwrap();
        let m = MmapStore::open(&path).unwrap();
        assert_eq!(m.num_vertices(), 0);
        assert_eq!(m.num_edges(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kcore_backend_matches_kcore_subgraph() {
        let g = gen::powerlaw_cluster(250, 5, 0.3, 21);
        for k in [0u32, 2, 4, 6] {
            let (want_g, want_map) = crate::coreness::kcore_subgraph(&g, k);
            for kind in [StoreKind::Csr, StoreKind::Compressed, StoreKind::Mmap] {
                let (backend, map) = kcore_backend(&g, k, kind);
                assert_eq!(map, want_map, "k={k} kind={kind}");
                assert_eq!(backend.num_vertices(), want_g.num_vertices());
                assert_eq!(backend.num_edges(), want_g.num_edges());
                assert_eq!(rows_of(&backend), rows_of(&want_g), "k={k} kind={kind}");
                assert_eq!(backend.kind(), kind.resident());
            }
        }
    }

    #[test]
    fn backend_from_graph_respects_resident_kind() {
        let g = gen::gnm(50, 120, 1);
        assert!(matches!(
            StoreBackend::from_graph(g.clone(), StoreKind::Csr),
            StoreBackend::Csr(_)
        ));
        assert!(matches!(
            StoreBackend::from_graph(g.clone(), StoreKind::Compressed),
            StoreBackend::Compressed(_)
        ));
        assert!(matches!(
            StoreBackend::from_graph(g, StoreKind::Mmap),
            StoreBackend::Compressed(_)
        ));
    }

    #[test]
    fn degeneracy_order_is_uniform_across_backends() {
        let g = gen::barabasi_albert(150, 4, 2);
        let path = tmp_path("degen");
        write_kpx(&g, &path).unwrap();
        let m = MmapStore::open(&path).unwrap();
        let c = CompressedStore::from_graph(&g);
        let a = GraphStore::degeneracy_order(&g);
        let b = c.degeneracy_order();
        let d = m.degeneracy_order();
        assert_eq!(a.order, b.order);
        assert_eq!(a.order, d.order);
        assert_eq!(a.core, b.core);
        assert_eq!(a.core, d.core);
        std::fs::remove_file(&path).ok();
    }
}
