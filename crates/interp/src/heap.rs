//! Memcheck-style simulated heap.
//!
//! The paper detects triggered overflows indirectly, through their effect
//! on the computation: "invalid reads and writes" reported by Valgrind's
//! memcheck, or outright crashes (§4.6, Table 2's *Error Type* column).
//! This module reproduces that behaviour:
//!
//! * every allocation is an isolated block with an exact byte size;
//! * reads/writes past the block (but within a red zone) are recorded as
//!   [`MemErrorKind::InvalidRead`]/[`MemErrorKind::InvalidWrite`] and the
//!   program continues — like memcheck;
//! * accesses far outside any block (beyond the red zone), and any access
//!   through null, escalate to a segmentation fault;
//! * use-after-free and double-free are recorded;
//! * allocation sizes ≥ the allocator limit fail (null return or abort,
//!   depending on the site's wrapper, matching `malloc` vs `g_malloc`).
//!
//! Every block splits its byte cells the way memcheck splits shadow
//! memory from data:
//!
//! * the values, one host byte per simulated byte;
//! * the sticky overflow flags, one bit per byte;
//! * the shadow tags, in a side-table beside them holding an entry only
//!   for cells that were stored — and never touched at all when the tag
//!   type is `()` (plain concrete execution).
//!
//! Ordinary blocks (at most 1 MiB) keep their values and overflow bits
//! densely (`vec![0; n]`, so a large block arrives as lazily zeroed
//! pages), which costs ~1.125 host bytes per simulated byte; a
//! copy-on-write after a snapshot copies that much. Larger blocks are
//! sparse, so simulating a 2 GB allocation costs no host memory. Like
//! memcheck's secondary shadow maps, a sparse block keeps fixed pages of
//! 256 cells, each page holding the values, overflow bits and a touched
//! bit per cell, in a map keyed by page index that holds only the pages
//! a store reached. A page costs ~350 host bytes, so a block touched at
//! one cell per page pays that much per cell; fuel bounds how many cells
//! a run can touch. A sparse block's charge to the byte gauges is
//! logical, one map entry of a whole [`Cell`] per touched cell, not its
//! host pages.
//!
//! The values and overflow bits do not depend on the tag type, so a
//! concrete heap lifts into any tagged one (`Heap::lift`) by sharing
//! them, with every cell untagged.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use diode_lang::{Bv, Label};

use crate::value::BlockId;

thread_local! {
    /// Largest heap high-water mark of any run finished on this thread
    /// since the last [`take_peak_heap_bytes`] call. The machine notes
    /// every run's peak here so campaign drivers can attribute peak
    /// interpreter memory to a site without threading a gauge through
    /// every entry point.
    static PEAK_HEAP: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Folds one finished run's heap peak into the thread-local gauge.
pub(crate) fn note_peak_heap_bytes(bytes: u64) {
    PEAK_HEAP.with(|p| p.set(p.get().max(bytes)));
}

/// Reads and resets this thread's peak-heap gauge: the largest heap
/// high-water mark among runs finished on this thread since the last
/// call. Zero when no run finished in the window.
#[must_use]
pub fn take_peak_heap_bytes() -> u64 {
    PEAK_HEAP.with(|p| p.replace(0))
}

/// Kinds of memory errors detected by the heap monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemErrorKind {
    /// Read past the end of a live block (within the red zone).
    InvalidRead,
    /// Write past the end of a live block (within the red zone).
    InvalidWrite,
    /// Read through a pointer to a freed block.
    UseAfterFreeRead,
    /// Write through a pointer to a freed block.
    UseAfterFreeWrite,
    /// Second `free` of the same block.
    DoubleFree,
}

/// A recorded memory error (one memcheck report line).
#[derive(Debug, Clone)]
pub struct MemError {
    /// What happened.
    pub kind: MemErrorKind,
    /// The allocation site of the affected block.
    pub site: Arc<str>,
    /// Offset of the access relative to the block base.
    pub offset: u64,
    /// Size of the affected block at allocation time.
    pub block_size: u32,
    /// Label of the statement performing the access.
    pub at: Label,
}

/// Reason the heap monitor escalated to a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Access through the null pointer.
    NullDeref {
        /// Label of the faulting statement.
        at: Label,
    },
    /// Access far beyond a block's red zone.
    WildAccess {
        /// Label of the faulting statement.
        at: Label,
        /// Offset of the attempted access.
        offset: u64,
        /// Size of the block being overrun.
        block_size: u32,
    },
}

/// One byte cell: value, sticky overflow flag, shadow tag.
#[derive(Debug, Clone)]
pub struct Cell<T> {
    /// Stored byte (8-bit).
    pub value: Bv,
    /// Sticky overflow flag of the stored value.
    pub ovf: bool,
    /// Shadow tag of the stored value.
    pub tag: T,
}

impl<T: Default> Default for Cell<T> {
    fn default() -> Self {
        Cell {
            value: Bv::byte(0),
            ovf: false,
            tag: T::default(),
        }
    }
}

/// Block payloads at most this large are stored densely, larger ones in
/// pages.
const DENSE_LIMIT: u32 = 1 << 20;

/// A block's cells. The values and overflow bits sit behind an `Arc` so
/// cloning a whole heap — the prefix-snapshot operation — is O(blocks),
/// not O(bytes): they are shared and only copied again when a
/// post-snapshot write lands in them (`Arc::make_mut` copy-on-write).
#[derive(Clone)]
struct Payload<T> {
    /// Values and overflow bits, shared by every heap lifted from this
    /// one.
    cells: Cells,
    /// Shadow tags of the cells stored so far, by offset (`None`: no
    /// cell was tagged yet). Never set when `T` is zero-sized.
    tags: Option<Arc<HashMap<u32, T>>>,
}

#[derive(Clone)]
enum Cells {
    /// A block of at most `DENSE_LIMIT` bytes.
    Dense(Arc<Dense>),
    /// A larger block's touched pages.
    Sparse(Arc<Pages>),
}

/// Bit `i % 64` of word `i / 64`.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Sets bit `i` of `words` to `on` and returns its previous value.
fn set_bit(words: &mut [u64], i: usize, on: bool) -> bool {
    let word = &mut words[i / 64];
    let was = *word >> (i % 64) & 1 == 1;
    *word = *word & !(1 << (i % 64)) | u64::from(on) << (i % 64);
    was
}

/// A dense block's values and overflow bits: everything of its cells
/// but their tags.
#[derive(Clone, Default)]
struct Dense {
    /// Stored byte values.
    bytes: Vec<u8>,
    /// Sticky overflow flags, one bit per byte.
    ovf: Vec<u64>,
}

impl Dense {
    /// A zero-filled block of `size` bytes.
    fn zeroed(size: u32) -> Self {
        Dense {
            bytes: vec![0; size as usize],
            ovf: vec![0; (size as usize).div_ceil(64)],
        }
    }

    /// Host bytes the values and overflow bits occupy.
    fn payload_bytes(&self) -> u64 {
        self.bytes.len() as u64 + 8 * self.ovf.len() as u64
    }

    /// The value and overflow flag at `offset`.
    fn get(&self, offset: u32) -> (u8, bool) {
        let i = offset as usize;
        (self.bytes[i], bit(&self.ovf, i))
    }

    fn store(&mut self, offset: u32, value: u8, ovf: bool) {
        let i = offset as usize;
        self.bytes[i] = value;
        set_bit(&mut self.ovf, i, ovf);
    }
}

/// Simulated bytes per page of a sparse block: a power of two, at least
/// one overflow word's worth. A page costs ~350 host bytes (320 of
/// values and bits, its allocation and its map entry), which is the worst
/// case per touched cell: a program storing one cell per page pays that
/// for each store, and fuel bounds its stores.
const PAGE_BYTES: usize = 256;

const _: () = assert!(PAGE_BYTES.is_power_of_two() && PAGE_BYTES >= 64);

/// One page of a sparse block: the values, overflow bits and touched
/// bits of `PAGE_BYTES` consecutive cells. A cell never stored has a
/// clear touched bit and reads as the default cell.
#[derive(Clone)]
struct Page {
    bytes: [u8; PAGE_BYTES],
    ovf: [u64; PAGE_BYTES / 64],
    touched: [u64; PAGE_BYTES / 64],
}

impl Page {
    const EMPTY: Page = Page {
        bytes: [0; PAGE_BYTES],
        ovf: [0; PAGE_BYTES / 64],
        touched: [0; PAGE_BYTES / 64],
    };
}

/// A sparse block's values and overflow bits: the pages a store reached,
/// by page index.
#[derive(Clone, Default)]
struct Pages(HashMap<u32, Box<Page>, BuildHasherDefault<PageHasher>>);

impl Pages {
    /// The value and overflow flag at `offset`: zero and clear for a cell
    /// never stored.
    fn get(&self, offset: u32) -> (u8, bool) {
        let i = offset as usize % PAGE_BYTES;
        self.0
            .get(&(offset / PAGE_BYTES as u32))
            .map_or((0, false), |page| (page.bytes[i], bit(&page.ovf, i)))
    }

    /// Stores a cell's value and overflow flag; true when the cell was
    /// never stored before.
    fn store(&mut self, offset: u32, value: u8, ovf: bool) -> bool {
        let page = self
            .0
            .entry(offset / PAGE_BYTES as u32)
            .or_insert_with(|| Box::new(Page::EMPTY));
        let i = offset as usize % PAGE_BYTES;
        page.bytes[i] = value;
        set_bit(&mut page.ovf, i, ovf);
        !set_bit(&mut page.touched, i, true)
    }
}

/// Hashes a sparse block's page indices. A block's size is a `u32`, so
/// its page indices are small dense integers below 2³² / `PAGE_BYTES`
/// (2³¹ / `PAGE_BYTES` under the default allocator limit): one multiply
/// spreads them over the high bits, and folding those into the low bits
/// spreads strided indices too. SipHash's protection against crafted
/// collisions buys nothing here: fuel bounds the pages a run can touch.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, index: u32) {
        self.0 = (self.0 ^ u64::from(index)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ self.0 >> 32
    }
}

/// True when cells of tag type `T` carry information worth a side-table
/// entry: every tag type but the zero-sized `()` of concrete execution.
const fn tags_stored<T>() -> bool {
    std::mem::size_of::<T>() != 0
}

#[derive(Clone)]
struct Block<T> {
    site: Arc<str>,
    size: u32,
    freed: bool,
    payload: Payload<T>,
    /// Approximate bytes charged to the heap gauge for this block's
    /// payload (dense: bytes + overflow words, then per tagged cell;
    /// sparse: grows per touched cell).
    accounted: u64,
}

/// Fixed per-block bookkeeping charge (site arc, size, flags, vec slot).
const BLOCK_OVERHEAD_BYTES: u64 = 48;

/// Extra charge per hash-map entry beyond its value — a sparse cell or a
/// dense block's side-table tag (key + bucket overhead).
const ENTRY_OVERHEAD_BYTES: u64 = 16;

/// Charge for one hash-map entry holding a `V`.
fn entry_bytes<V>() -> u64 {
    std::mem::size_of::<V>() as u64 + ENTRY_OVERHEAD_BYTES
}

/// Outcome of a heap access: either a value (reads) / unit (writes), plus
/// any recorded error; or a fault that must halt the program.
pub type AccessResult<V> = Result<V, Fault>;

/// The simulated heap.
#[derive(Clone)]
pub struct Heap<T> {
    blocks: Vec<Block<T>>,
    errors: Vec<MemError>,
    /// Single-allocation limit: requests of at least this many bytes fail.
    alloc_limit: u64,
    /// Accesses past `size + redzone` fault instead of being recorded.
    redzone: u64,
    /// Approximate bytes resident in live block payloads right now.
    cur_bytes: u64,
    /// High-water mark of `cur_bytes` over the heap's lifetime. Plain
    /// (non-atomic) state updated on the interpreter's single thread,
    /// so accounting is deterministic and costs one add per event.
    peak_bytes: u64,
}

impl<T: Default + Clone> Heap<T> {
    /// Creates an empty heap.
    ///
    /// `alloc_limit` is the allocator's single-request capacity in bytes
    /// (the paper's x86-32 processes realistically refuse ~2 GB requests);
    /// `redzone` is how far past a block an access may land and still be
    /// recorded (rather than faulting).
    #[must_use]
    pub fn new(alloc_limit: u64, redzone: u64) -> Self {
        Heap {
            blocks: Vec::new(),
            errors: Vec::new(),
            alloc_limit,
            redzone,
            cur_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Charges `bytes` to the resident gauge and ratchets the peak.
    fn account(&mut self, bytes: u64) {
        self.cur_bytes += bytes;
        if self.cur_bytes > self.peak_bytes {
            self.peak_bytes = self.cur_bytes;
        }
    }

    /// Attempts to allocate `size` bytes for `site`. Returns `None` when
    /// the allocator refuses the request.
    pub fn alloc(&mut self, site: Arc<str>, size: u32) -> Option<BlockId> {
        if u64::from(size) >= self.alloc_limit {
            return None;
        }
        let (cells, accounted) = if size <= DENSE_LIMIT {
            let dense = Dense::zeroed(size);
            let bytes = BLOCK_OVERHEAD_BYTES + dense.payload_bytes();
            (Cells::Dense(Arc::new(dense)), bytes)
        } else {
            (Cells::Sparse(Arc::default()), BLOCK_OVERHEAD_BYTES)
        };
        self.account(accounted);
        self.blocks.push(Block {
            site,
            size,
            freed: false,
            payload: Payload { cells, tags: None },
            accounted,
        });
        Some(BlockId(
            u32::try_from(self.blocks.len()).expect("too many blocks"),
        ))
    }

    /// Frees a block, recording a double-free if needed.
    ///
    /// Returns a fault for `free(null)`-through-wild pointers (null frees
    /// are tolerated, like `free(NULL)` in C).
    pub fn free(&mut self, ptr: BlockId, at: Label) {
        if ptr.is_null() {
            return;
        }
        let block = &mut self.blocks[(ptr.0 - 1) as usize];
        if block.freed {
            self.errors.push(MemError {
                kind: MemErrorKind::DoubleFree,
                site: block.site.clone(),
                offset: 0,
                block_size: block.size,
                at,
            });
        } else {
            block.freed = true;
            // Use-after-free accesses are answered from the `freed` flag
            // before the payload is ever consulted, so the cells are
            // unreachable from here on: drop them eagerly. This keeps
            // long-lived heap clones — prefix snapshots — from pinning
            // (and later re-dropping) megabytes of dead payload.
            block.payload = Payload {
                cells: Cells::Dense(Arc::default()),
                tags: None,
            };
            let released = std::mem::take(&mut block.accounted);
            self.cur_bytes = self.cur_bytes.saturating_sub(released);
        }
    }

    /// Loads one byte. Out-of-bounds reads within the red zone are
    /// recorded and return a zero cell; farther reads fault.
    pub fn load(&mut self, ptr: BlockId, offset: u64, at: Label) -> AccessResult<Cell<T>> {
        if ptr.is_null() {
            return Err(Fault::NullDeref { at });
        }
        let block = &mut self.blocks[(ptr.0 - 1) as usize];
        if block.freed {
            self.errors.push(MemError {
                kind: MemErrorKind::UseAfterFreeRead,
                site: block.site.clone(),
                offset,
                block_size: block.size,
                at,
            });
            return Ok(Cell::default());
        }
        if offset >= u64::from(block.size) {
            if offset >= u64::from(block.size) + self.redzone {
                return Err(Fault::WildAccess {
                    at,
                    offset,
                    block_size: block.size,
                });
            }
            self.errors.push(MemError {
                kind: MemErrorKind::InvalidRead,
                site: block.site.clone(),
                offset,
                block_size: block.size,
                at,
            });
            return Ok(Cell::default());
        }
        // In bounds, so below the block's `u32` size.
        let offset = offset as u32;
        let (value, ovf) = match &block.payload.cells {
            Cells::Dense(cells) => cells.get(offset),
            Cells::Sparse(pages) => pages.get(offset),
        };
        let tag = block
            .payload
            .tags
            .as_ref()
            .and_then(|tags| tags.get(&offset).cloned())
            .unwrap_or_default();
        Ok(Cell {
            value: Bv::byte(value),
            ovf,
            tag,
        })
    }

    /// Stores one byte. Out-of-bounds writes within the red zone are
    /// recorded and dropped; farther writes fault.
    ///
    /// # Panics
    ///
    /// Panics if the cell's value is not 8 bits wide: a dense block keeps
    /// one host byte per cell.
    pub fn store(
        &mut self,
        ptr: BlockId,
        offset: u64,
        cell: Cell<T>,
        at: Label,
    ) -> AccessResult<()> {
        assert_eq!(cell.value.width(), 8, "memory cells are bytes");
        if ptr.is_null() {
            return Err(Fault::NullDeref { at });
        }
        let block = &mut self.blocks[(ptr.0 - 1) as usize];
        if block.freed {
            self.errors.push(MemError {
                kind: MemErrorKind::UseAfterFreeWrite,
                site: block.site.clone(),
                offset,
                block_size: block.size,
                at,
            });
            return Ok(());
        }
        if offset >= u64::from(block.size) {
            if offset >= u64::from(block.size) + self.redzone {
                return Err(Fault::WildAccess {
                    at,
                    offset,
                    block_size: block.size,
                });
            }
            self.errors.push(MemError {
                kind: MemErrorKind::InvalidWrite,
                site: block.site.clone(),
                offset,
                block_size: block.size,
                at,
            });
            return Ok(());
        }
        // In bounds, so below the block's `u32` size.
        let offset = offset as u32;
        let value = cell.value.value() as u8;
        let (mut cost, dense) = match &mut block.payload.cells {
            Cells::Dense(cells) => {
                Arc::make_mut(cells).store(offset, value, cell.ovf);
                (0, true)
            }
            Cells::Sparse(pages) => {
                // A never-touched sparse cell materialised: one charge
                // for the whole cell, its tag included.
                let fresh = Arc::make_mut(pages).store(offset, value, cell.ovf);
                (if fresh { entry_bytes::<Cell<T>>() } else { 0 }, false)
            }
        };
        if tags_stored::<T>() {
            let tags = Arc::make_mut(block.payload.tags.get_or_insert_with(Arc::default));
            if tags.insert(offset, cell.tag).is_none() && dense {
                // A never-tagged dense cell got a tag.
                cost += entry_bytes::<T>();
            }
        }
        if cost > 0 {
            block.accounted += cost;
            self.account(cost);
        }
        Ok(())
    }

    /// All recorded (non-fatal) memory errors, in occurrence order.
    #[must_use]
    pub fn errors(&self) -> &[MemError] {
        &self.errors
    }

    /// Consumes the heap, returning the recorded errors.
    #[must_use]
    pub fn into_errors(self) -> Vec<MemError> {
        self.errors
    }

    /// Number of live (never freed) blocks — useful for leak assertions in
    /// tests.
    #[must_use]
    pub fn live_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| !b.freed).count()
    }

    /// Approximate bytes resident in live block payloads right now.
    /// Logical accounting: payloads shared with snapshot clones via
    /// copy-on-write `Arc`s are charged to every heap that can reach
    /// them.
    #[must_use]
    pub fn current_bytes(&self) -> u64 {
        self.cur_bytes
    }

    /// High-water mark of [`current_bytes`](Self::current_bytes) over
    /// the heap's lifetime (resumed heaps inherit their snapshot's
    /// peak).
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }
}

impl Heap<()> {
    /// This concrete heap under tag type `T`, every cell untagged: the
    /// heap a run under a tagging policy holds when none of its values
    /// ever carried a tag. Values and overflow bits, dense or paged, are
    /// shared, not copied (a later store into either heap copies on
    /// write), and tag tables start empty. The memory errors and both
    /// byte gauges carry over.
    pub(crate) fn lift<T: Default + Clone>(&self) -> Heap<T> {
        let blocks = self
            .blocks
            .iter()
            .map(|b| Block {
                site: b.site.clone(),
                size: b.size,
                freed: b.freed,
                payload: Payload {
                    cells: b.payload.cells.clone(),
                    tags: None,
                },
                accounted: b.accounted,
            })
            .collect();
        Heap {
            blocks,
            errors: self.errors.clone(),
            alloc_limit: self.alloc_limit,
            redzone: self.redzone,
            cur_bytes: self.cur_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::LabelSet;

    fn heap() -> Heap<()> {
        Heap::new(1 << 31, 4096)
    }

    fn cell(v: u8) -> Cell<()> {
        Cell {
            value: Bv::byte(v),
            ovf: false,
            tag: (),
        }
    }

    #[test]
    fn roundtrip_within_bounds() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 8).unwrap();
        h.store(b, 3, cell(0xaa), Label(0)).unwrap();
        let c = h.load(b, 3, Label(1)).unwrap();
        assert_eq!(c.value, Bv::byte(0xaa));
        assert!(h.errors().is_empty());
    }

    #[test]
    fn oob_write_is_recorded_not_fatal() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 8).unwrap();
        h.store(b, 8, cell(1), Label(0)).unwrap();
        h.store(b, 100, cell(1), Label(0)).unwrap();
        assert_eq!(h.errors().len(), 2);
        assert!(h
            .errors()
            .iter()
            .all(|e| e.kind == MemErrorKind::InvalidWrite));
    }

    #[test]
    fn wild_write_faults() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 8).unwrap();
        let fault = h.store(b, 8 + 4096, cell(1), Label(7)).unwrap_err();
        assert!(matches!(fault, Fault::WildAccess { at: Label(7), .. }));
    }

    #[test]
    fn null_deref_faults() {
        let mut h = heap();
        assert!(matches!(
            h.load(BlockId::NULL, 0, Label(2)),
            Err(Fault::NullDeref { at: Label(2) })
        ));
    }

    #[test]
    fn oversized_allocation_fails() {
        let mut h = heap();
        assert!(h.alloc("t@1".into(), u32::MAX).is_none());
        assert!(h.alloc("t@1".into(), 1 << 30).is_some());
    }

    #[test]
    fn huge_allocations_are_sparse_and_cheap() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), (1 << 30) - 1).unwrap();
        h.store(b, (1 << 29) + 17, cell(0x5a), Label(0)).unwrap();
        assert_eq!(
            h.load(b, (1 << 29) + 17, Label(0)).unwrap().value,
            Bv::byte(0x5a)
        );
        // Unwritten sparse cells read as zero.
        assert_eq!(h.load(b, 12345, Label(0)).unwrap().value, Bv::byte(0));
    }

    #[test]
    fn use_after_free_and_double_free() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 4).unwrap();
        h.free(b, Label(0));
        h.free(b, Label(1));
        h.store(b, 0, cell(1), Label(2)).unwrap();
        let _ = h.load(b, 0, Label(3)).unwrap();
        let kinds: Vec<_> = h.errors().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                MemErrorKind::DoubleFree,
                MemErrorKind::UseAfterFreeWrite,
                MemErrorKind::UseAfterFreeRead
            ]
        );
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "memory cells are bytes")]
    fn wide_cells_are_rejected() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 8).unwrap();
        let _ = h.store(
            b,
            0,
            Cell {
                value: Bv::u32(1),
                ovf: false,
                tag: (),
            },
            Label(0),
        );
    }

    #[test]
    fn free_null_is_tolerated() {
        let mut h = heap();
        h.free(BlockId::NULL, Label(0));
        assert!(h.errors().is_empty());
    }

    #[test]
    fn byte_accounting_tracks_alloc_store_free() {
        let mut h = heap();
        assert_eq!((h.current_bytes(), h.peak_bytes()), (0, 0));

        // Dense block: its bytes and overflow words, charged up front.
        let dense = h.alloc("t@1".into(), 100).unwrap();
        let dense_cost = BLOCK_OVERHEAD_BYTES + 100 + 8 * 2;
        assert_eq!(h.current_bytes(), dense_cost);
        // Untagged (concrete) stores add nothing.
        h.store(dense, 5, cell(1), Label(0)).unwrap();
        assert_eq!(h.current_bytes(), dense_cost);

        // Sparse block: only overhead until cells are touched.
        let sparse = h.alloc("t@2".into(), (1 << 30) - 1).unwrap();
        assert_eq!(h.current_bytes(), dense_cost + BLOCK_OVERHEAD_BYTES);
        h.store(sparse, 17, cell(1), Label(0)).unwrap();
        h.store(sparse, 17, cell(2), Label(0)).unwrap(); // rewrite: no growth
        h.store(sparse, 99, cell(3), Label(0)).unwrap();
        let sparse_cost = BLOCK_OVERHEAD_BYTES + 2 * entry_bytes::<Cell<()>>();
        assert_eq!(h.current_bytes(), dense_cost + sparse_cost);
        let peak = h.peak_bytes();
        assert_eq!(peak, h.current_bytes());

        // Free releases a block's charge; the peak stays.
        h.free(dense, Label(0));
        assert_eq!(h.current_bytes(), sparse_cost);
        assert_eq!(h.peak_bytes(), peak);
        h.free(dense, Label(0)); // double free: no double release
        assert_eq!(h.current_bytes(), sparse_cost);

        // Clones carry the gauges.
        let clone = h.clone();
        assert_eq!(clone.current_bytes(), sparse_cost);
        assert_eq!(clone.peak_bytes(), peak);
    }

    fn tagged(v: u8, ovf: bool, labels: &[u32]) -> Cell<LabelSet> {
        let tag = labels
            .iter()
            .fold(LabelSet::empty(), |t, &l| t.union(&LabelSet::singleton(l)));
        Cell {
            value: Bv::byte(v),
            ovf,
            tag,
        }
    }

    #[test]
    fn overflow_bit_round_trips_and_clean_store_clears_it() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 130).unwrap();
        h.store(
            b,
            129,
            Cell {
                value: Bv::byte(7),
                ovf: true,
                tag: (),
            },
            Label(0),
        )
        .unwrap();
        let c = h.load(b, 129, Label(0)).unwrap();
        assert_eq!((c.value, c.ovf), (Bv::byte(7), true));
        // Neighbours in the same and adjacent words stay clean.
        assert!(!h.load(b, 128, Label(0)).unwrap().ovf);
        assert!(!h.load(b, 65, Label(0)).unwrap().ovf);
        h.store(b, 129, cell(7), Label(0)).unwrap();
        assert!(!h.load(b, 129, Label(0)).unwrap().ovf);
    }

    #[test]
    fn tags_round_trip_and_unwritten_cells_read_the_default() {
        let mut h: Heap<LabelSet> = Heap::new(1 << 31, 4096);
        let b = h.alloc("t@1".into(), 64).unwrap();
        let base = h.current_bytes();
        h.store(b, 3, tagged(9, false, &[4, 2]), Label(0)).unwrap();
        let c = h.load(b, 3, Label(0)).unwrap();
        assert_eq!((c.value, c.tag.labels()), (Bv::byte(9), &[2, 4][..]));
        assert!(h.load(b, 4, Label(0)).unwrap().tag.is_empty());
        // One side-table entry per tagged cell; a rewrite adds none.
        assert_eq!(h.current_bytes(), base + entry_bytes::<LabelSet>());
        h.store(b, 3, tagged(1, false, &[]), Label(0)).unwrap();
        assert_eq!(h.current_bytes(), base + entry_bytes::<LabelSet>());
        assert!(h.load(b, 3, Label(0)).unwrap().tag.is_empty());
    }

    #[test]
    fn writes_after_clone_leave_the_clone_unchanged() {
        let mut h: Heap<LabelSet> = Heap::new(1 << 31, 4096);
        let b = h.alloc("t@1".into(), 256).unwrap();
        h.store(b, 10, tagged(0x11, true, &[1]), Label(0)).unwrap();
        let snapshot = h.clone();
        h.store(b, 10, tagged(0x22, false, &[2]), Label(0)).unwrap();
        h.store(b, 200, tagged(0x33, true, &[3]), Label(0)).unwrap();
        let mut frozen = snapshot;
        let c = frozen.load(b, 10, Label(0)).unwrap();
        assert_eq!(
            (c.value, c.ovf, c.tag.labels()),
            (Bv::byte(0x11), true, &[1][..])
        );
        let c = frozen.load(b, 200, Label(0)).unwrap();
        assert_eq!(
            (c.value, c.ovf, c.tag.is_empty()),
            (Bv::byte(0), false, true)
        );
        let c = h.load(b, 200, Label(0)).unwrap();
        assert_eq!(
            (c.value, c.ovf, c.tag.labels()),
            (Bv::byte(0x33), true, &[3][..])
        );
    }

    #[test]
    fn lifting_a_concrete_heap_shares_its_payloads_and_tags_nothing() {
        let mut h = heap();
        let dense = h.alloc("t@1".into(), 130).unwrap();
        let sparse = h.alloc("t@2".into(), (1 << 30) - 1).unwrap();
        let freed = h.alloc("t@3".into(), 8).unwrap();
        let flagged = |v: u8| Cell {
            value: Bv::byte(v),
            ovf: true,
            tag: (),
        };
        h.store(dense, 3, cell(0xaa), Label(0)).unwrap();
        h.store(dense, 129, flagged(7), Label(0)).unwrap();
        h.store(dense, 130, cell(1), Label(0)).unwrap(); // recorded error
        h.store(sparse, 1 << 29, flagged(0x5a), Label(0)).unwrap();
        h.store(sparse, 17, cell(0x11), Label(0)).unwrap();
        h.free(freed, Label(0));

        let mut lifted: Heap<LabelSet> = h.lift();
        assert_eq!(
            (lifted.current_bytes(), lifted.peak_bytes()),
            (h.current_bytes(), h.peak_bytes())
        );
        assert_eq!(lifted.errors().len(), 1);
        assert_eq!(lifted.live_blocks(), 2);
        let (Cells::Dense(a), Cells::Dense(b)) =
            (&h.blocks[0].payload.cells, &lifted.blocks[0].payload.cells)
        else {
            panic!("a 130-byte block is dense");
        };
        assert!(Arc::ptr_eq(a, b), "the dense payload is shared");
        let (Cells::Sparse(a), Cells::Sparse(b)) =
            (&h.blocks[1].payload.cells, &lifted.blocks[1].payload.cells)
        else {
            panic!("a 1 GiB block is sparse");
        };
        assert!(Arc::ptr_eq(a, b), "the page map is shared");
        assert!(lifted.blocks.iter().all(|b| b.payload.tags.is_none()));
        for (b, off, value, ovf) in [
            (dense, 3, 0xaa, false),
            (dense, 129, 7, true),
            (dense, 128, 0, false),
            (sparse, 1 << 29, 0x5a, true),
            (sparse, 17, 0x11, false),
            (sparse, 99, 0, false),
        ] {
            let c = lifted.load(b, off, Label(0)).unwrap();
            assert_eq!(
                (c.value, c.ovf, c.tag.is_empty()),
                (Bv::byte(value), ovf, true),
                "block {b:?} offset {off}"
            );
        }
        let _ = lifted.load(freed, 0, Label(1)).unwrap();
        assert_eq!(
            lifted.errors().last().map(|e| e.kind),
            Some(MemErrorKind::UseAfterFreeRead)
        );

        // Stores into the lifted heap copy on write.
        lifted
            .store(dense, 3, tagged(0x22, true, &[5]), Label(0))
            .unwrap();
        lifted
            .store(sparse, 1 << 29, tagged(0x33, false, &[6]), Label(0))
            .unwrap();
        let c = lifted.load(dense, 3, Label(0)).unwrap();
        assert_eq!(
            (c.value, c.ovf, c.tag.labels()),
            (Bv::byte(0x22), true, &[5][..])
        );
        let c = h.load(dense, 3, Label(0)).unwrap();
        assert_eq!((c.value, c.ovf), (Bv::byte(0xaa), false));
        let c = h.load(sparse, 1 << 29, Label(0)).unwrap();
        assert_eq!((c.value, c.ovf), (Bv::byte(0x5a), true));
    }

    #[test]
    fn free_releases_a_tagged_block_charge() {
        let mut h: Heap<LabelSet> = Heap::new(1 << 31, 4096);
        let keep = h.alloc("t@1".into(), 8).unwrap();
        let kept = h.current_bytes();
        let b = h.alloc("t@2".into(), 1 << 20).unwrap();
        for off in [0, 1, 1 << 19] {
            h.store(b, off, tagged(1, false, &[0]), Label(0)).unwrap();
        }
        let full =
            kept + BLOCK_OVERHEAD_BYTES + (1 << 20) + (1 << 17) + 3 * entry_bytes::<LabelSet>();
        assert_eq!(h.current_bytes(), full);
        h.free(b, Label(0));
        assert_eq!(h.current_bytes(), kept);
        assert_eq!(h.peak_bytes(), full);
        assert_eq!(h.live_blocks(), 1);
        h.free(keep, Label(0));
        assert_eq!(h.current_bytes(), 0);
    }

    #[test]
    fn thread_local_peak_gauge_reads_and_resets() {
        // Run on a dedicated thread so parallel tests can't interleave
        // their own note_peak calls into this gauge.
        std::thread::spawn(|| {
            assert_eq!(take_peak_heap_bytes(), 0);
            note_peak_heap_bytes(100);
            note_peak_heap_bytes(40); // smaller: ignored
            assert_eq!(take_peak_heap_bytes(), 100);
            assert_eq!(take_peak_heap_bytes(), 0);
        })
        .join()
        .unwrap();
    }

    /// A tag as a comparable list of labels.
    trait TagView: Default + Clone + std::fmt::Debug {
        fn view(&self) -> Vec<u32>;
    }

    impl TagView for () {
        fn view(&self) -> Vec<u32> {
            Vec::new()
        }
    }

    impl TagView for LabelSet {
        fn view(&self) -> Vec<u32> {
            self.labels().to_vec()
        }
    }

    /// Splitmix64: a seeded op sequence without a dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A 1 GiB block whose last page is partial.
    const BIG: u32 = (1 << 30) + 37;
    const REDZONE: u64 = 4096;

    /// The per-cell reference the paged block must match: one map entry
    /// of a whole `Cell` per touched byte, charged as one entry each.
    #[derive(Clone)]
    struct Model<T> {
        cells: HashMap<u64, Cell<T>>,
        /// Touched offsets in first-touch order, for picking rewrites
        /// deterministically.
        order: Vec<u64>,
        errors: Vec<(MemErrorKind, u64, Label)>,
        freed: bool,
        current: u64,
        peak: u64,
    }

    impl<T: TagView> Model<T> {
        fn new() -> Self {
            Model {
                cells: HashMap::new(),
                order: Vec::new(),
                errors: Vec::new(),
                freed: false,
                current: BLOCK_OVERHEAD_BYTES,
                peak: BLOCK_OVERHEAD_BYTES,
            }
        }

        fn lift<U: TagView>(&self) -> Model<U> {
            Model {
                cells: self
                    .cells
                    .iter()
                    .map(|(&off, c)| {
                        let cell = Cell {
                            value: c.value,
                            ovf: c.ovf,
                            tag: U::default(),
                        };
                        (off, cell)
                    })
                    .collect(),
                order: self.order.clone(),
                errors: self.errors.clone(),
                freed: self.freed,
                current: self.current,
                peak: self.peak,
            }
        }

        /// The access's outcome before it touches a cell: `Err` for a
        /// wild access, `Ok(false)` for a recorded error.
        fn check(&mut self, off: u64, at: Label, write: bool) -> Result<bool, ()> {
            let (uaf, oob) = if write {
                (MemErrorKind::UseAfterFreeWrite, MemErrorKind::InvalidWrite)
            } else {
                (MemErrorKind::UseAfterFreeRead, MemErrorKind::InvalidRead)
            };
            if self.freed {
                self.errors.push((uaf, off, at));
                return Ok(false);
            }
            if off >= u64::from(BIG) {
                if off >= u64::from(BIG) + REDZONE {
                    return Err(());
                }
                self.errors.push((oob, off, at));
                return Ok(false);
            }
            Ok(true)
        }

        fn load(&mut self, off: u64, at: Label) -> Result<Cell<T>, ()> {
            Ok(if self.check(off, at, false)? {
                self.cells.get(&off).cloned().unwrap_or_default()
            } else {
                Cell::default()
            })
        }

        fn store(&mut self, off: u64, cell: Cell<T>, at: Label) -> Result<(), ()> {
            if self.check(off, at, true)? && self.cells.insert(off, cell).is_none() {
                self.order.push(off);
                self.current += entry_bytes::<Cell<T>>();
                self.peak = self.peak.max(self.current);
            }
            Ok(())
        }

        fn free(&mut self, at: Label) {
            if self.freed {
                self.errors.push((MemErrorKind::DoubleFree, 0, at));
            } else {
                self.freed = true;
                self.current = 0;
            }
        }
    }

    /// One heap holding one huge block, beside its model.
    #[derive(Clone)]
    struct World<T> {
        heap: Heap<T>,
        model: Model<T>,
        block: BlockId,
    }

    impl<T: TagView> World<T> {
        fn new() -> Self {
            let mut heap = Heap::new(1 << 31, REDZONE);
            let block = heap.alloc("big@1".into(), BIG).unwrap();
            World {
                heap,
                model: Model::new(),
                block,
            }
        }

        /// Everything observable agrees with the model: the byte gauges,
        /// the recorded errors and, while the block lives, every cell in
        /// `probes` (loaded from a clone, so the check records nothing).
        fn assert_matches(&self, probes: &[u64], context: &str) {
            let (heap, model) = (&self.heap, &self.model);
            assert_eq!(
                (heap.current_bytes(), heap.peak_bytes()),
                (model.current, model.peak),
                "{context}: byte gauges"
            );
            let errors: Vec<_> = heap
                .errors()
                .iter()
                .map(|e| (e.kind, e.offset, e.at))
                .collect();
            assert_eq!(errors, model.errors, "{context}: recorded errors");
            if model.freed {
                return;
            }
            let mut heap = heap.clone();
            for &off in probes.iter().filter(|&&off| off < u64::from(BIG)) {
                let got = heap.load(self.block, off, Label(0)).unwrap();
                let want = model.cells.get(&off).cloned().unwrap_or_default();
                assert_eq!(
                    (got.value, got.ovf, got.tag.view()),
                    (want.value, want.ovf, want.tag.view()),
                    "{context}: cell {off}"
                );
            }
        }
    }

    /// An offset clustered around a page boundary, far from any other,
    /// a rewrite of a touched cell, or at and past the block's end.
    fn pick_offset<T>(rng: &mut Rng, model: &Model<T>) -> u64 {
        let page = PAGE_BYTES as u64;
        let pages = u64::from(BIG) / page;
        match rng.below(8) {
            0..=2 => {
                let anchor = [1, 2, 1000, pages / 2, pages - 1, pages][rng.below(6) as usize];
                (anchor + rng.below(3)) * page + rng.below(3) - 1
            }
            3 | 4 => rng.below(u64::from(BIG)),
            5 | 6 if !model.order.is_empty() => {
                model.order[rng.below(model.order.len() as u64) as usize]
            }
            7 if rng.below(8) == 0 => u64::from(BIG) + REDZONE + rng.below(4),
            _ => u64::from(BIG) - 2 + rng.below(4),
        }
    }

    /// Runs `ops` seeded ops over `worlds`, checking every world against
    /// its model after each one.
    fn drive<T: TagView>(
        worlds: &mut Vec<World<T>>,
        rng: &mut Rng,
        ops: usize,
        tag: impl Fn(&mut Rng) -> T,
    ) {
        for op in 0..ops {
            let w = rng.below(worlds.len() as u64) as usize;
            let at = Label(op as u32);
            let context = format!("op {op} on world {w}");
            let live = |w: &World<T>| !w.model.freed;
            match rng.below(64) {
                0 | 1 => {
                    // Clone a live world over a freed one, if any; later
                    // writes land on either side.
                    let from = if live(&worlds[w]) {
                        w
                    } else {
                        worlds.iter().position(live).unwrap_or(w)
                    };
                    let copy = worlds[from].clone();
                    match worlds.iter().position(|w| !live(w)) {
                        _ if worlds.len() < 3 => worlds.push(copy),
                        Some(dead) => worlds[dead] = copy,
                        None => worlds[(from + 1) % 3] = copy,
                    }
                }
                2 if worlds.iter().filter(|w| live(w)).count() > 1 => {
                    let world = &mut worlds[w];
                    world.heap.free(world.block, at);
                    world.model.free(at);
                }
                3..=20 => {
                    let world = &mut worlds[w];
                    let off = pick_offset(rng, &world.model);
                    let got = world.heap.load(world.block, off, at);
                    let want = world.model.load(off, at);
                    match (got, want) {
                        (Ok(got), Ok(want)) => assert_eq!(
                            (got.value, got.ovf, got.tag.view()),
                            (want.value, want.ovf, want.tag.view()),
                            "{context}: load {off}"
                        ),
                        (Err(Fault::WildAccess { offset, .. }), Err(())) => {
                            assert_eq!(offset, off, "{context}");
                        }
                        (got, want) => panic!("{context}: load {off}: {got:?} vs {want:?}"),
                    }
                }
                _ => {
                    let cell = Cell {
                        value: Bv::byte(rng.below(256) as u8),
                        ovf: rng.below(2) == 1,
                        tag: tag(rng),
                    };
                    let world = &mut worlds[w];
                    let off = pick_offset(rng, &world.model);
                    let got = world.heap.store(world.block, off, cell.clone(), at);
                    let want = world.model.store(off, cell, at);
                    assert_eq!(got.is_err(), want.is_err(), "{context}: store {off}");
                }
            }
            // Every cell touched in any world, its neighbours, and the
            // boundary cells of the anchor pages.
            let mut probes: Vec<u64> = worlds
                .iter()
                .flat_map(|w| w.model.order.iter())
                .flat_map(|&off| [off.saturating_sub(1), off, off + 1])
                .collect();
            probes.extend([
                0,
                PAGE_BYTES as u64 - 1,
                PAGE_BYTES as u64,
                u64::from(BIG) - 1,
            ]);
            probes.sort_unstable();
            probes.dedup();
            for (i, world) in worlds.iter().enumerate() {
                world.assert_matches(&probes, &format!("{context}, then world {i}"));
            }
        }
    }

    #[test]
    fn paged_blocks_match_a_per_cell_model() {
        for seed in 1..=3 {
            let mut rng = Rng(seed);
            let mut concrete = vec![World::<()>::new()];
            drive(&mut concrete, &mut rng, 600, |_| ());
            // Lift every concrete world and keep writing tagged cells;
            // the concrete worlds they share pages with stay unchanged.
            let mut lifted: Vec<World<LabelSet>> = concrete
                .iter()
                .map(|w| World {
                    heap: w.heap.lift(),
                    model: w.model.lift(),
                    block: w.block,
                })
                .collect();
            drive(&mut lifted, &mut rng, 600, |rng| {
                let labels: Vec<u32> = (0..rng.below(3)).map(|_| rng.below(16) as u32).collect();
                tagged(0, false, &labels).tag
            });
            for (i, world) in concrete.iter().enumerate() {
                let probes = world.model.order.clone();
                world.assert_matches(
                    &probes,
                    &format!("seed {seed}: concrete world {i} after lifting"),
                );
            }
        }
    }
}
